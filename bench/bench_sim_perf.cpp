/**
 * @file
 * Simulator wall-time harness: times whole uncached simulations per
 * (matrix, strategy) over the Table V proxies, splits each into work
 * lists, segment builds and the event loop, and emits machine-readable
 * BENCH_sim_perf.json so the repo tracks its perf trajectory across PRs.
 *
 * Per matrix, one runner interleaves five cells: the four strategies
 * and a host reference.  A strategy sample calls simulateExecution over
 * a time budget with no shared memo, so every call builds the work
 * lists and the segments with the Din L1 replay; it reports per-call
 * means:
 *   sim_ms       the whole call;
 *   loop_ms      the event loop (SimStats::loop_ms, runUntilEmpty);
 *   setup_ms     sim_ms - loop_ms;
 *   worklist_ms  the growth of the format.untiled_build and
 *                format.tiled_build timer totals over the call;
 *   segments_ms  setup_ms - worklist_ms: the per-class segment builds
 *                with the L1 replay, and the rest of the setup;
 * so loop_ms + worklist_ms + segments_ms = sim_ms.  The reference cell
 * runs the genuinely-scalar tier's spmm_csr_golden (tier_scalar.cpp is
 * compiled with auto-vectorization off, the kernels gate's reference)
 * over the same matrix at K = 32, single-threaded, over the same budget.
 * sim_vs_ref and loop_vs_ref are the medians of the per-round ratios
 * sim_ms / ref_ms and loop_ms / ref_ms: host speed cancels out of them,
 * unlike absolute milliseconds.  events_per_sec counts *retired* events
 * (scheduler pops plus completions that piggy-backed on a coalesced
 * event) over loop_ms.
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE        JSON output path (default BENCH_sim_perf.json, or
 *                     BENCH_sim_perf.smoke.json under --smoke)
 *   --check FILE      compare against a checked-in baseline JSON and
 *                     fail (exit 1) when a (matrix, strategy) row is
 *                     missing from it, simulated a different number of
 *                     events, or has a sim_vs_ref or loop_vs_ref more
 *                     than the tolerance above the baseline's
 *   --tolerance F     allowed relative regression, in [0, 1)
 *                     (default 0.30)
 */

#include <cstdio>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "kernels/dispatch.hpp"
#include "sim/simulator.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

using namespace hottiles;
namespace hk = hottiles::kernels;

namespace {

/** One (matrix, strategy) row as the gate sees it. */
struct Record
{
    std::string matrix;
    std::string strategy;
    uint64_t events = 0;
    double sim_vs_ref = 0;   //!< median per-round sim_ms / ref_ms
    double loop_vs_ref = 0;  //!< median per-round loop_ms / ref_ms
};

/** Total seconds this process has spent building work lists. */
double
worklistSeconds()
{
    MetricsRegistry& reg = MetricsRegistry::global();
    return reg.timer("format.untiled_build").snapshot().sum() +
           reg.timer("format.tiled_build").snapshot().sum();
}

/** One timed call of a cell: @p call repeated over a time budget, so
 *  that a row of microsecond simulations reads above timer noise. */
bench::Budget
budgetCall(const std::function<void()>& call)
{
    return bench::repeatFor(bench::smokeMode() ? 5.0 : 20.0, 100000, call);
}

int
checkAgainstBaseline(const std::vector<Record>& records,
                     const std::string& path, double tolerance)
{
    std::map<std::pair<std::string, std::string>, Record> baseline;
    for (const bench::Object& row : bench::readResults(path)) {
        Record b;
        b.matrix = bench::field<std::string>(row, "matrix");
        b.strategy = bench::field<std::string>(row, "strategy");
        b.events = uint64_t(bench::field<double>(row, "events"));
        b.sim_vs_ref = bench::field<double>(row, "sim_vs_ref");
        b.loop_vs_ref = bench::field<double>(row, "loop_vs_ref");
        baseline[{b.matrix, b.strategy}] = b;
    }
    int failures = 0;
    for (const Record& r : records) {
        const char* m = r.matrix.c_str();
        const char* s = r.strategy.c_str();
        auto it = baseline.find({r.matrix, r.strategy});
        if (it == baseline.end()) {
            std::printf("BASELINE MISSING %s/%s: %s has no row for it — "
                        "regenerate the baseline with the current sweep "
                        "(run without --check and commit the output)\n",
                        m, s, path.c_str());
            ++failures;
            continue;
        }
        const Record& then = it->second;
        if (r.events != then.events) {
            std::printf("EVENTS CHANGED %s/%s: %llu simulated events "
                        "(baseline %llu)\n",
                        m, s, (unsigned long long)r.events,
                        (unsigned long long)then.events);
            ++failures;
        }
        auto gate = [&](const char* ratio, double now, double base) {
            if (now > (1.0 + tolerance) * base) {
                std::printf("REGRESSION %s/%s: %s %.3f (baseline %.3f, "
                            "tolerance %.0f%%)\n",
                            m, s, ratio, now, base, tolerance * 100);
                ++failures;
            }
        };
        gate("sim_ms/ref", r.sim_vs_ref, then.sim_vs_ref);
        gate("loop_ms/ref", r.loop_vs_ref, then.loop_vs_ref);
    }
    if (failures == 0)
        std::printf("perf check OK: every (matrix, strategy) row matches "
                    "the baseline's events and no sim_ms/ref or "
                    "loop_ms/ref rose >%.0f%% vs %s\n",
                    tolerance * 100, path.c_str());
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(&argc, argv);
    const char* usage =
        "usage: bench_sim_perf [--smoke] [--threads N] [--out FILE] "
        "[--check FILE] [--tolerance F]\n"
        "  --out FILE         JSON output path (default "
        "BENCH_sim_perf.json, BENCH_sim_perf.smoke.json under --smoke)\n"
        "  --check FILE       exit 1 on a regression against this "
        "baseline JSON\n"
        "  --tolerance F      allowed relative regression, in [0, 1) "
        "(default 0.30)\n";
    std::string out_path = bench::defaultOut("sim_perf");
    std::string check_path;
    double tolerance = 0.30;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out")
            out_path = bench::flagValue(argc, argv, i, usage);
        else if (a == "--check")
            check_path = bench::flagValue(argc, argv, i, usage);
        else if (a == "--tolerance")
            tolerance = bench::parseNumber(
                a, bench::flagValue(argc, argv, i, usage), usage);
        else if (a == "--help" || a == "-h")
            bench::exitUsage(usage);
        else
            bench::exitUsage(usage, "unknown option '" + a + "'");
    }
    // The flag takes the range of bench_kernel_throughput's, where a
    // tolerance of 1 or more would leave the ratio gate unable to fail.
    if (tolerance >= 1)
        bench::exitUsage(usage, "--tolerance must be below 1");

    bench::banner("bench_sim_perf", "perf trajectory",
                  "Whole uncached simulations per strategy, split into "
                  "work lists, segment builds and the event loop, against "
                  "a scalar SpMM reference");

    Architecture arch = calibrated(makeSpadeSextans(4));
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    constexpr Index kRefK = 32;

    std::vector<Record> records;
    std::vector<bench::Row> results;
    Table table({"Matrix", "Strategy", "Events", "Sim ms", "Loop ms",
                 "Worklist ms", "Segments ms", "Ref ms", "Sim/ref",
                 "Loop/ref"});
    for (const std::string& name : bench::tableVNames()) {
        const CooMatrix& m = bench::suiteMatrix(name);
        HotTilesOptions o;
        o.build_formats = false;
        HotTiles ht(arch, m, o);
        const Partition iu = ht.iunaware();
        const Partition& htp = ht.partition();

        struct Strat
        {
            const char* name;
            const std::vector<uint8_t>* is_hot;
            bool serial;
        };
        std::vector<uint8_t> all_hot(ht.grid().numTiles(), 1);
        std::vector<uint8_t> all_cold(ht.grid().numTiles(), 0);
        const Strat strats[] = {
            {"HotOnly", &all_hot, false},
            {"ColdOnly", &all_cold, false},
            {"IUnaware", &iu.is_hot, iu.serial},
            {"HotTiles", &htp.is_hot, htp.serial},
        };
        SimStats last[std::size(strats)];
        bench::Runner runner;
        for (size_t si = 0; si < std::size(strats); ++si)
            runner.add([&, si] {
                const Strat& s = strats[si];
                double loop_ms = 0;
                const double worklist_s0 = worklistSeconds();
                const bench::Budget b = budgetCall([&] {
                    last[si] = simulateExecution(arch, ht.grid(), *s.is_hot,
                                                 s.serial, o.kernel)
                                   .stats;
                    loop_ms += last[si].loop_ms;
                });
                const double sim_ms = b.ms / b.reps;
                const double worklist_ms =
                    (worklistSeconds() - worklist_s0) * 1e3 / b.reps;
                loop_ms /= b.reps;
                const double setup_ms = sim_ms - loop_ms;
                return bench::Sample{
                    {"sim_ms", sim_ms},
                    {"loop_ms", loop_ms},
                    {"setup_ms", setup_ms},
                    {"worklist_ms", worklist_ms},
                    {"segments_ms", setup_ms - worklist_ms},
                    {"events_per_sec",
                     double(last[si].events_processed +
                            last[si].batched_events) /
                         (loop_ms / 1e3)}};
            });

        // The reference: scalar golden CSR SpMM over the same matrix.
        CooMatrix sorted = m;
        sorted.sortRowMajor();
        const CsrMatrix csr = CsrMatrix::fromCoo(sorted);
        const hk::CsrView cv{csr.rowPtr().data(), csr.colIds().data(),
                             csr.values().data(), csr.rows()};
        DenseMatrix din(csr.cols(), kRefK);
        din.fill(1);
        DenseMatrix dout(csr.rows(), kRefK);
        const size_t ref = runner.add([&] {
            const bench::Budget b = budgetCall([&] {
                scalar.spmm_csr_golden(cv, kRefK, din.row(0), dout.row(0), 0,
                                       csr.rows());
            });
            return bench::Sample{{"ref_ms", b.ms / b.reps}};
        });
        runner.run();

        const bench::Spread ref_ms = runner.spread(ref, "ref_ms");
        for (size_t si = 0; si < std::size(strats); ++si) {
            const SimStats& st = last[si];
            const bench::Spread sim_vs_ref =
                bench::ratioSpread(runner.samples(si, "sim_ms"),
                                   runner.samples(ref, "ref_ms"));
            const bench::Spread loop_vs_ref =
                bench::ratioSpread(runner.samples(si, "loop_ms"),
                                   runner.samples(ref, "ref_ms"));
            records.push_back({name, strats[si].name, st.events_processed,
                               sim_vs_ref.median, loop_vs_ref.median});
            results.push_back(bench::Row()
                                  .put("matrix", name)
                                  .put("strategy", strats[si].name)
                                  .put("events", st.events_processed)
                                  .put("sim_cycles", st.cycles)
                                  .put("batched_events", st.batched_events)
                                  .put("peak_queue_depth",
                                       st.peak_queue_depth)
                                  .put(runner, si)
                                  .put("ref_ms", ref_ms)
                                  .put("sim_vs_ref", sim_vs_ref)
                                  .put("loop_vs_ref", loop_vs_ref));
            auto ms = [&](const char* field) {
                return Table::num(runner.spread(si, field).median, 3);
            };
            table.addRow({name, strats[si].name,
                          std::to_string(st.events_processed), ms("sim_ms"),
                          ms("loop_ms"), ms("worklist_ms"),
                          ms("segments_ms"), Table::num(ref_ms.median, 3),
                          Table::num(sim_vs_ref.median, 3),
                          Table::num(loop_vs_ref.median, 3)});
        }
    }
    table.print(std::cout);
    std::printf("(medians of %u interleaved rounds of per-call means of "
                "uncached simulateExecution calls; ref = scalar golden CSR "
                "SpMM at K = %u)\n",
                bench::rounds(), unsigned(kRefK));

    bench::writeReport(out_path, "sim_perf", bench::Row(), results);
    std::printf("wrote %s\n", out_path.c_str());

    if (!check_path.empty())
        return checkAgainstBaseline(records, check_path, tolerance);
    return 0;
}
