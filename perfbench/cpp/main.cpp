/**
 * @file
 * perfbench: the repository benchmark (perfbench/README.md).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *
 * --trace 0 runs workload W alone: set-up, one timed window of S seconds
 * with tracing off, output checks, two more timed set-ups (setup_s is
 * the median of three), and the end-to-end metrics.  --trace 1 is the
 * traced run: every workload in turn gets S/6 seconds untraced and S/6
 * traced, interleaved (their difference is the tracing overhead),
 * then the benchmark calls each layer's public functions under spans and
 * reports per-layer self times.  The last line of standard output is one
 * JSON object with the keys correct, attempted, failed and metrics.
 */

#include <malloc.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/preprocess.hpp"
#include "host.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

const char* const kWorkloads[] = {"spmm-repeat", "serve-mix", "simulate"};

void
usage(std::ostream& out)
{
    out << "usage: perfbench --workload spmm-repeat|serve-mix|simulate "
           "--seed N --seconds S --trace 0|1\n"
           "                 [--trace-out FILE] [--tiny] [--bad-checksum]\n"
           "       perfbench --self-test\n";
}

template <typename T>
bool
parseNumber(const std::string& s, T* out)
{
    const char* end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, *out);
    return ec == std::errc() && p == end;
}

/** Parse argv into @p o; false (after printing why) on any bad flag. */
bool
parseArgs(int argc, char** argv, Options* o, bool* self_test)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](std::string* v) {
            if (i + 1 >= argc) {
                std::cerr << "perfbench: missing value for " << a << "\n";
                return false;
            }
            *v = argv[++i];
            return true;
        };
        std::string v;
        if (a == "--self-test") {
            *self_test = true;
        } else if (a == "--tiny") {
            o->tiny = true;
        } else if (a == "--bad-checksum") {
            o->bad_checksum = true;
        } else if (a == "--workload") {
            if (!value(&o->workload))
                return false;
            have_workload = false;
            for (const char* w : kWorkloads)
                have_workload |= o->workload == w;
            if (!have_workload) {
                std::cerr << "perfbench: unknown workload '" << o->workload
                          << "'\n";
                return false;
            }
        } else if (a == "--seed") {
            if (!value(&v) || !parseNumber(v, &o->seed)) {
                std::cerr << "perfbench: --seed takes an unsigned integer\n";
                return false;
            }
        } else if (a == "--seconds") {
            if (!value(&v) || !parseNumber(v, &o->seconds) ||
                !(o->seconds > 0 && o->seconds <= 600)) {
                std::cerr << "perfbench: --seconds takes a number in "
                             "(0, 600]\n";
                return false;
            }
        } else if (a == "--trace") {
            if (!value(&v) || (v != "0" && v != "1")) {
                std::cerr << "perfbench: --trace takes 0 or 1\n";
                return false;
            }
            o->trace = v == "1";
        } else if (a == "--trace-out") {
            if (!value(&o->trace_out))
                return false;
        } else {
            std::cerr << "perfbench: unknown option '" << a << "'\n";
            return false;
        }
    }
    if (!*self_test && !have_workload) {
        std::cerr << "perfbench: --workload is required\n";
        return false;
    }
    return true;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, const Options& o, Checks& checks)
{
    if (name == "spmm-repeat")
        return makeSpmmRepeat(o, checks);
    if (name == "serve-mix")
        return makeServeMix(o, checks);
    return makeSimulate(o, checks);
}

std::string
number(double v)
{
    std::ostringstream s;
    s << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
    return s.str();
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::ostringstream s;
    s << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        s << (i ? ", " : "") << "\"" << metrics[i].name
          << "\": {\"value\": " << number(metrics[i].value)
          << ", \"unit\": \"" << metrics[i].unit << "\"}";
    s << "}}";
    std::cout << s.str() << std::endl;
}

void
printWindow(const Window& w, std::ostream& out)
{
    out << "window: " << std::fixed << std::setprecision(2) << w.seconds
        << " s in " << w.subWindows() << " sub-windows, " << w.attempted()
        << " attempted, " << w.failed() << " failed, steady rate "
        << w.steadyRate() << "/s\n";
    for (size_t i = 0; i < w.classes.size(); ++i) {
        const OpClass& c = w.classes[i];
        const Quartiles q = quartiles(c.ms);
        out << "  op" << i + 1 << " " << std::left << std::setw(14) << c.name
            << std::right << " n=" << std::setw(5) << c.ms.size()
            << "  p50 " << std::setw(9) << std::setprecision(3)
            << median(c.ms) << " ms  IQR [" << q.q1 << ", " << q.q3
            << "]  steady p50 " << w.steadyP50(i) << " ms";
        if (tailReportable(c.ms.size(), 0.9))
            out << "  p90 " << percentile(c.ms, 0.9) << " ms ("
                << samplesBeyond(c.ms.size(), 0.9) << " beyond)";
        else
            out << "  p90 n/a (<10 samples beyond)";
        out << "\n      sub-window medians:";
        for (double m : w.subWindowMedians(i))
            out << " " << m;
        out << "\n";
    }
    out.unsetf(std::ios::floatfield);
}

/** Geometric mean over classes of traced / untraced median latency,
 *  minus one. */
double
tracingOverhead(const Window& untraced, const Window& traced)
{
    std::vector<double> ratios;
    for (size_t i = 0; i < untraced.classes.size(); ++i) {
        const double u = median(untraced.classes[i].ms);
        const double t = median(traced.classes[i].ms);
        if (u > 0 && t > 0)
            ratios.push_back(t / u);
    }
    return ratios.empty() ? 0 : geomean(ratios) - 1;
}

int
runUntraced(const Options& o)
{
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const double par_before = spinParallelism(nproc);

    Checks checks;
    auto wl = makeWorkload(o.workload, o, checks);
    std::vector<double> setup_s;
    auto timedSetup = [&] {
        const double t0 = hottiles::monotonicSeconds();
        wl->setup();
        setup_s.push_back(hottiles::monotonicSeconds() - t0);
    };
    timedSetup();
    // peak_rss_mb is the peak through set-up.  The window's own peak is
    // printed too, but what the allocator keeps after the window varied
    // by +-15% between identical runs.
    const double rss_mb = peakRssMb();
    const size_t f0 = checks.failures();
    const Window w = wl->run(o.seconds);
    // Output checks that failed inside the window are already failed
    // operations of w; the rest (set-up, verify) count on their own.
    const size_t window_check_failures = checks.failures() - f0;
    const double window_rss_mb = peakRssMb();
    wl->verify();
    for (const OpClass& c : w.classes)
        checks.expect(!c.ms.empty(), "class " + c.name +
                                         " completed no operation");
    std::ostringstream described;
    wl->describe(w, described);
    timedSetup();
    timedSetup();
    wl.reset();

    const double par_after = spinParallelism(nproc);
    const StreamResult stream = streamTriad(nproc, o.tiny ? 1u << 20 : 1u << 24);

    std::cout << "workload " << o.workload << " seed " << o.seed << "\n";
    std::cout << "host: nproc=" << nproc << " threads=" << benchThreads()
              << " parallelism_before="
              << par_before << " parallelism_after=" << par_after << " "
              << buildFacts() << " stream_gbs=" << stream.gbs << " (3 x "
              << stream.array_mb << " MB arrays, LLC " << llcMb()
              << " MB) tracing_overhead=reported by --trace 1\n";
    std::cout << "peak RSS: " << rss_mb << " MB after set-up, "
              << window_rss_mb << " MB after the window\n";
    std::cout << "setup_s samples:";
    for (double s : setup_s)
        std::cout << " " << s;
    std::cout << "\n";
    printWindow(w, std::cout);
    std::cout << described.str();
    checks.print(std::cout);

    std::vector<Metric> m;
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"peak_rss_mb", rss_mb, "MB"});
    m.push_back({"ops_per_s", w.steadyRate(), "1/s"});
    for (size_t i = 0; i < w.classes.size(); ++i)
        m.push_back({"op" + std::to_string(i + 1) + "_p50_ms",
                     w.steadyP50(i), "ms"});
    const bool correct = checks.allPassed();
    printResult(correct, w.attempted(),
                w.failed() + checks.failures() - window_check_failures, m);
    return correct ? 0 : 1;
}

int
runTraced(const Options& o)
{
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    std::vector<Metric> m;
    m.push_back({"host.nproc", double(nproc), "count"});
    m.push_back({"host.parallelism_before", spinParallelism(nproc), "ratio"});
    const StreamResult stream = streamTriad(nproc, o.tiny ? 1u << 20 : 1u << 24);
    m.push_back({"host.stream_gbs", stream.gbs, "GB/s"});
    std::cout << "traced run, seed " << o.seed << "; host: nproc=" << nproc
              << " " << buildFacts() << " stream_gbs=" << stream.gbs << "\n";

    Checks checks;
    uint64_t attempted = 0, failed = 0;
    size_t window_check_failures = 0;  // already failed operations
    std::vector<SpanRecord> all_spans;
    const double slice = o.seconds / 6;
    for (const char* name : kWorkloads) {
        auto wl = makeWorkload(name, o, checks);
        auto window = [&](double seconds) {
            const size_t f0 = checks.failures();
            Window w = wl->run(seconds);
            window_check_failures += checks.failures() - f0;
            return w;
        };
        wl->setup();
        // Untraced, traced, traced, untraced: warm-up drift cancels out
        // of the overhead instead of favouring whichever side runs last.
        Window untraced = window(slice / 2);
        clearSpans();
        setTracing(true);
        Window traced = window(slice / 2);
        traced.merge(window(slice / 2));
        setTracing(false);
        untraced.merge(window(slice / 2));
        setTracing(true);
        wl->layerMetrics(stream.gbs, m);
        setTracing(false);
        wl->verify();
        const double overhead = tracingOverhead(untraced, traced);
        m.push_back({std::string("trace.overhead_frac.") + name, overhead,
                     "ratio"});
        std::cout << "--- " << name << ": untraced\n";
        printWindow(untraced, std::cout);
        std::cout << "--- " << name << ": traced (tracing overhead "
                  << overhead * 100 << "%)\n";
        printWindow(traced, std::cout);
        attempted += untraced.attempted() + traced.attempted();
        failed += untraced.failed() + traced.failed();
        std::vector<SpanRecord> s = spans();
        all_spans.insert(all_spans.end(), s.begin(), s.end());
    }
    m.push_back({"host.parallelism_after", spinParallelism(nproc), "ratio"});
    if (!o.trace_out.empty()) {
        std::ofstream out(o.trace_out);
        checks.expect(bool(out), "cannot write " + o.trace_out);
        writeChromeTrace(out, all_spans);
        std::cout << "wrote " << all_spans.size() << " spans to "
                  << o.trace_out << "\n";
    }
    for (const Metric& x : m)
        std::cout << "  " << x.name << " = " << x.value << " " << x.unit
                  << "\n";
    checks.print(std::cout);
    const bool correct = checks.allPassed();
    printResult(correct, attempted,
                failed + checks.failures() - window_check_failures, m);
    return correct ? 0 : 1;
}

/** Unit checks of the order statistics and span self times. */
int
selfTest()
{
    Checks c;
    auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };
    // 1..10 shuffled: exact order statistics are known.
    const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
    c.expect(near(median(ten), 5.5), "median of 1..10 is 5.5");
    c.expect(near(median({4, 1, 3}), 3), "median of {1,3,4} is 3");
    c.expect(near(percentile(ten, 0.9), 9), "p90 of 1..10 is 9");
    c.expect(near(percentile(ten, 0.5), 5), "p50 of 1..10 is 5");
    c.expect(near(percentile(ten, 1.0), 10), "p100 of 1..10 is 10");
    const Quartiles q = quartiles(ten);
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    c.expect(near(q.q1, 2.75) && near(q.q3, 8.25), "quartiles of 1..10");
    const Quartiles q2 = quartiles({1, 2});
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    c.expect(near(q2.q1, 0.75) && near(q2.q3, 2.25), "quartiles of {1,2}");
    // The >= 10 beyond rule: p90 needs n >= 100.
    c.expect(samplesBeyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
    c.expect(tailReportable(100, 0.9) && !tailReportable(99, 0.9),
             "p90 reportable from 100 samples, not 99");
    std::vector<double> big;
    for (int i = 1000; i >= 1; --i)
        big.push_back(i);
    c.expect(near(percentile(big, 0.9), 900), "p90 of 1..1000 is 900");
    c.expect(samplesBeyond(1000, 0.9) == 100, "1000 samples: 100 beyond");
    // Self time: a 10 ms parent with 3 ms and 4 ms children -> 3 ms.
    std::vector<SpanRecord> s(3);
    s[0] = {1, 0, 0, 1, "p", "", 0.0, 0.010};
    s[1] = {2, 1, 0, 1, "c", "", 0.001, 0.004};
    s[2] = {3, 1, 0, 1, "c", "", 0.005, 0.009};
    const std::vector<double> self = selfSeconds(s);
    c.expect(near(self[0], 0.003) && near(self[1], 0.003) &&
                 near(self[2], 0.004),
             "span self times subtract direct children");
    c.expect(near(medianSelfMs(s, self, "c", "*"), 3.5),
             "median self time over a span name");
    c.print(std::cout);
    std::cout << (c.allPassed() ? "self-test passed" : "self-test FAILED")
              << "\n";
    return c.allPassed() ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    bool self_test = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--help" || std::string(argv[i]) == "-h") {
            usage(std::cerr);
            return 2;
        }
    if (!parseArgs(argc, argv, &o, &self_test)) {
        usage(std::cerr);
        return 2;
    }
    if (self_test)
        return selfTest();
    // Keep large freed buffers in one heap for reuse.  With glibc's
    // defaults every run() maps and faults in its rows x K accumulators
    // afresh (64 MiB on del), and on a shared host that fault cost
    // swings between runs by more than the rest of the call costs; with
    // one arena per thread, the threads that happen to serve a request
    // decide how much of it is faulted in again.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    mallopt(M_ARENA_MAX, 1);
    hottiles::ThreadPool::setGlobalThreads(benchThreads());
    try {
        return o.trace ? runTraced(o) : runUntraced(o);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
