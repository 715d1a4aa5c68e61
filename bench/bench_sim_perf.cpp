/**
 * @file
 * Simulator hot-loop throughput harness: times the event core in
 * events/second per (matrix, strategy) over the Table V proxies, for
 * both queue engines (the calendar/slab default and the legacy
 * std::function binary heap kept for equivalence testing), and emits
 * machine-readable BENCH_sim_perf.json so the repo tracks its perf
 * trajectory across PRs.
 *
 * Events/sec is measured over the event loop proper (SimStats::loop_ms,
 * the runUntilEmpty phase), not the whole simulateExecution call, so
 * format/segment building does not dilute the metric the event-core
 * work targets.  Whole-run wall time is reported alongside.
 *
 * The throughput metric counts *retired* events — scheduler pops plus
 * completions that piggy-backed on a coalesced event (batched_events) —
 * so it measures simulation work per second and is invariant to how
 * many completions share one queue entry.  Raw pops are still emitted
 * per record ("events"); the pre-PR tree never coalesced, so its event
 * count is its retired count and the comparison is apples-to-apples.
 * Rows with fewer than 500 events time as microsecond-scale noise and
 * are excluded from the geomean summary lines (they stay in the JSON).
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE        JSON output path (default BENCH_sim_perf.json)
 *   --check FILE      compare against a checked-in baseline JSON and
 *                     fail (exit 1) if the calendar/legacy events-per-
 *                     second ratio of any (matrix, strategy) regressed
 *                     by more than the tolerance.  The ratio is
 *                     machine-independent, unlike absolute events/sec.
 *   --tolerance F     allowed relative regression (default 0.30)
 *   --prepr-csv FILE  merge pre-PR numbers (CSV columns matrix,
 *                     strategy,wall_ms,sim_cycles,loop_ms,events,
 *                     measured on the pre-overhaul tree with the same
 *                     loop instrumentation) into the report as
 *                     prepr_* / *_speedup fields
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/worklist.hpp"

using namespace hottiles;

namespace {

struct Record
{
    std::string matrix;
    std::string strategy;
    std::string impl;
    uint64_t events = 0;
    double wall_ms = 0;  //!< whole simulateExecution call, rep average
    double loop_ms = 0;  //!< event-loop portion, rep average
    double events_per_sec = 0;  //!< retired events (pops + batched) / loop_ms
    uint64_t sim_cycles = 0;
    uint64_t batched_events = 0;
    uint64_t peak_queue_depth = 0;
};

/** One pre-PR measurement row (zeroed when no --prepr-csv was given). */
struct PreprRow
{
    double wall_ms = 0;
    double loop_ms = 0;
    uint64_t events = 0;
    double eventsPerSec() const
    {
        return loop_ms > 0 ? double(events) / (loop_ms / 1e3) : 0;
    }
};

const char*
implName(EventQueue::Impl impl)
{
    return impl == EventQueue::Impl::Calendar ? "calendar" : "legacy-heap";
}

/** RAII restore of the process-wide default queue engine. */
struct ImplGuard
{
    EventQueue::Impl saved = EventQueue::defaultImpl();
    ~ImplGuard() { EventQueue::setDefaultImpl(saved); }
};

std::map<std::pair<std::string, std::string>, PreprRow>
readPreprCsv(const std::string& path)
{
    std::map<std::pair<std::string, std::string>, PreprRow> out;
    std::ifstream in(path);
    HT_FATAL_IF(!in, "cannot open --prepr-csv file '", path, "'");
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string matrix, strategy, wall, cycles, loop, events;
        if (!std::getline(ls, matrix, ',') ||
            !std::getline(ls, strategy, ',') ||
            !std::getline(ls, wall, ',') ||
            !std::getline(ls, cycles, ',') ||
            !std::getline(ls, loop, ',') || !std::getline(ls, events, ','))
            continue;
        PreprRow row;
        row.wall_ms = std::strtod(wall.c_str(), nullptr);
        row.loop_ms = std::strtod(loop.c_str(), nullptr);
        row.events = std::strtoull(events.c_str(), nullptr, 10);
        out[{matrix, strategy}] = row;
    }
    return out;
}

void
writeJson(const std::string& path, const std::vector<Record>& records,
          const std::map<std::pair<std::string, std::string>, PreprRow>&
              prepr,
          bool smoke, double geomean_engine_speedup,
          double geomean_loop_speedup, double geomean_wall_speedup)
{
    std::ofstream out(path);
    HT_FATAL_IF(!out, "cannot open '", path, "' for writing");
    out << "{\n"
        << "  \"schema\": \"hottiles.bench_sim_perf.v1\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"geomean_calendar_vs_legacy_events_per_sec\": "
        << geomean_engine_speedup << ",\n";
    if (!prepr.empty())
        out << "  \"geomean_events_per_sec_speedup_vs_prepr\": "
            << geomean_loop_speedup << ",\n"
            << "  \"geomean_wall_speedup_vs_prepr\": "
            << geomean_wall_speedup << ",\n";
    // Registry snapshot: phase timers (preprocess.*, format.*) and any
    // counters the run populated, so the perf trajectory file also
    // tracks where preprocessing time goes.
    out << "  \"metrics\": ";
    MetricsRegistry::global().writeJson(out);
    out << ",\n  \"results\": [\n";
    for (size_t i = 0; i < records.size(); ++i) {
        const Record& r = records[i];
        out << "    {\"matrix\": \"" << r.matrix << "\", \"strategy\": \""
            << r.strategy << "\", \"impl\": \"" << r.impl
            << "\", \"events\": " << r.events << ", \"wall_ms\": "
            << r.wall_ms << ", \"loop_ms\": " << r.loop_ms
            << ", \"events_per_sec\": " << r.events_per_sec
            << ", \"sim_cycles\": " << r.sim_cycles
            << ", \"batched_events\": " << r.batched_events
            << ", \"peak_queue_depth\": " << r.peak_queue_depth;
        auto it = prepr.find({r.matrix, r.strategy});
        if (it != prepr.end() && r.impl == "calendar") {
            const PreprRow& p = it->second;
            out << ", \"prepr_events\": " << p.events
                << ", \"prepr_loop_ms\": " << p.loop_ms
                << ", \"prepr_wall_ms\": " << p.wall_ms
                << ", \"events_per_sec_speedup\": "
                << (p.eventsPerSec() > 0
                        ? r.events_per_sec / p.eventsPerSec()
                        : 0)
                << ", \"wall_speedup\": "
                << (p.wall_ms > 0 ? p.wall_ms / r.wall_ms : 0);
        }
        out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

// -- Minimal parser for our own baseline JSON (no JSON library in the
// -- toolchain).  Scans the "results" array object by object and pulls
// -- the fields the regression check needs.

std::string
extractString(const std::string& obj, const std::string& key)
{
    const std::string pat = "\"" + key + "\": \"";
    const size_t p = obj.find(pat);
    HT_FATAL_IF(p == std::string::npos, "baseline JSON misses key ", key);
    const size_t b = p + pat.size();
    const size_t e = obj.find('"', b);
    return obj.substr(b, e - b);
}

double
extractNumber(const std::string& obj, const std::string& key)
{
    const std::string pat = "\"" + key + "\": ";
    const size_t p = obj.find(pat);
    HT_FATAL_IF(p == std::string::npos, "baseline JSON misses key ", key);
    return std::strtod(obj.c_str() + p + pat.size(), nullptr);
}

std::map<std::tuple<std::string, std::string, std::string>, double>
readBaselineEps(const std::string& path)
{
    std::ifstream in(path);
    HT_FATAL_IF(!in, "cannot open baseline '", path, "'");
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::map<std::tuple<std::string, std::string, std::string>, double> out;
    size_t pos = text.find("\"results\"");
    HT_FATAL_IF(pos == std::string::npos, "baseline JSON has no results");
    while ((pos = text.find('{', pos + 1)) != std::string::npos) {
        const size_t end = text.find('}', pos);
        if (end == std::string::npos)
            break;
        const std::string obj = text.substr(pos, end - pos + 1);
        out[{extractString(obj, "matrix"), extractString(obj, "strategy"),
             extractString(obj, "impl")}] =
            extractNumber(obj, "events_per_sec");
        pos = end;
    }
    return out;
}

int
checkAgainstBaseline(const std::vector<Record>& records,
                     const std::string& path, double tolerance)
{
    auto baseline = readBaselineEps(path);
    auto epsOf = [&](const std::vector<Record>& rs, const std::string& m,
                     const std::string& s, const char* impl) -> double {
        for (const Record& r : rs)
            if (r.matrix == m && r.strategy == s && r.impl == impl)
                return r.events_per_sec;
        return 0;
    };
    int failures = 0;
    for (const Record& r : records) {
        if (r.impl != "calendar")
            continue;
        // Sub-millisecond runs (tiny event counts) time as pure noise;
        // they cannot support a regression verdict.
        if (r.events < 500)
            continue;
        const double legacy =
            epsOf(records, r.matrix, r.strategy, "legacy-heap");
        auto cal_it = baseline.find({r.matrix, r.strategy, "calendar"});
        auto leg_it = baseline.find({r.matrix, r.strategy, "legacy-heap"});
        if (legacy <= 0 || cal_it == baseline.end() ||
            leg_it == baseline.end() || leg_it->second <= 0)
            continue;
        const double ratio_now = r.events_per_sec / legacy;
        const double ratio_then = cal_it->second / leg_it->second;
        if (ratio_now < (1.0 - tolerance) * ratio_then) {
            std::printf("REGRESSION %s/%s: calendar-vs-legacy ratio %.2f "
                        "(baseline %.2f, tolerance %.0f%%)\n",
                        r.matrix.c_str(), r.strategy.c_str(), ratio_now,
                        ratio_then, tolerance * 100);
            ++failures;
        }
    }
    if (failures == 0)
        std::printf("perf check OK: no (matrix, strategy) ratio regressed "
                    ">%.0f%% vs %s\n", tolerance * 100, path.c_str());
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(&argc, argv);
    const char* usage =
        "usage: bench_sim_perf [--smoke] [--threads N] [--out FILE] "
        "[--check FILE] [--tolerance F] [--prepr-csv FILE]\n"
        "  --out FILE         JSON output path (default "
        "BENCH_sim_perf.json)\n"
        "  --check FILE       exit 1 on a regression against this "
        "baseline JSON\n"
        "  --tolerance F      allowed relative regression (default 0.30)\n"
        "  --prepr-csv FILE   merge pre-PR numbers from this CSV into "
        "the report\n";
    std::string out_path = "BENCH_sim_perf.json";
    std::string check_path;
    std::string prepr_path;
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
        else if (a == "--prepr-csv")
            prepr_path = bench::flagValue(argc, argv, i, usage);
        else if (a == "--help" || a == "-h")
            bench::exitUsage(usage);
        else
            bench::exitUsage(usage, "unknown option '" + a + "'");
    }

    bench::banner("bench_sim_perf", "perf trajectory",
                  "Event-core throughput (events/sec) per strategy, "
                  "calendar queue vs the legacy binary heap");

    std::map<std::pair<std::string, std::string>, PreprRow> prepr;
    if (!prepr_path.empty())
        prepr = readPreprCsv(prepr_path);

    Architecture arch = calibrated(makeSpadeSextans(4));
    const double min_ms = bench::smokeMode() ? 5.0 : 20.0;
    const int max_reps = bench::smokeMode() ? 8 : 16;

    ImplGuard guard;
    std::vector<Record> records;
    GeoMean engine_speedup;
    GeoMean loop_speedup;
    GeoMean wall_speedup;
    Table table({"Matrix", "Strategy", "Events", "Batched", "Calendar Mev/s",
                 "Legacy Mev/s", "Engine speedup", "vs pre-PR"});
    for (const std::string& name : bench::tableVNames()) {
        const CooMatrix& m = bench::suiteMatrix(name);
        HotTilesOptions o;
        o.build_formats = false;
        HotTiles ht(arch, m, o);
        const Partition iu = ht.iunaware();
        const Partition& htp = ht.partition();
        WorkListCache cache;

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
        for (const Strat& s : strats) {
            SimConfig cfg;
            cfg.work_cache = &cache;
            auto runOnce = [&] {
                return simulateExecution(arch, ht.grid(), *s.is_hot,
                                         s.serial, o.kernel, cfg)
                    .stats;
            };
            Record per_impl[2];
            for (EventQueue::Impl impl : {EventQueue::Impl::Calendar,
                                          EventQueue::Impl::LegacyHeap}) {
                EventQueue::setDefaultImpl(impl);
                SimStats st = runOnce();  // warm-up (also fills the cache)
                int reps = 0;
                double elapsed_ms = 0;
                double loop_ms_sum = 0;
                const auto t0 = std::chrono::steady_clock::now();
                while (reps < max_reps && elapsed_ms < min_ms) {
                    st = runOnce();
                    loop_ms_sum += st.loop_ms;
                    ++reps;
                    elapsed_ms = std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count();
                }
                Record r;
                r.matrix = name;
                r.strategy = s.name;
                r.impl = implName(impl);
                r.events = st.events_processed;
                r.wall_ms = elapsed_ms / reps;
                r.loop_ms = loop_ms_sum / reps;
                r.events_per_sec = double(st.events_processed +
                                          st.batched_events) /
                                   (r.loop_ms / 1e3);
                r.sim_cycles = st.cycles;
                r.batched_events = st.batched_events;
                r.peak_queue_depth = st.peak_queue_depth;
                per_impl[impl == EventQueue::Impl::Calendar ? 0 : 1] = r;
            }
            // Both engines must simulate the identical execution.
            HT_FATAL_IF(per_impl[0].sim_cycles != per_impl[1].sim_cycles ||
                            per_impl[0].events != per_impl[1].events,
                        "queue engines diverged on ", name, "/", s.name);
            const double ratio =
                per_impl[0].events_per_sec / per_impl[1].events_per_sec;
            // Tiny rows (sub-500 events, microsecond loops) are timing
            // noise; keep them out of the summary geomeans.
            const bool noisy = per_impl[0].events < 500;
            if (!noisy)
                engine_speedup.add(ratio);
            std::string vs_prepr = "-";
            if (auto it = prepr.find({name, s.name}); it != prepr.end()) {
                const double p_eps = it->second.eventsPerSec();
                if (p_eps > 0) {
                    const double sp = per_impl[0].events_per_sec / p_eps;
                    if (!noisy)
                        loop_speedup.add(sp);
                    vs_prepr = Table::num(sp, 2) + (noisy ? "x *" : "x");
                }
                if (it->second.wall_ms > 0 && !noisy)
                    wall_speedup.add(it->second.wall_ms /
                                     per_impl[0].wall_ms);
            }
            table.addRow({name, s.name, std::to_string(per_impl[0].events),
                          std::to_string(per_impl[0].batched_events),
                          Table::num(per_impl[0].events_per_sec / 1e6, 2),
                          Table::num(per_impl[1].events_per_sec / 1e6, 2),
                          Table::num(ratio, 2), vs_prepr});
            records.push_back(per_impl[0]);
            records.push_back(per_impl[1]);
        }
    }
    table.print(std::cout);
    std::printf("(events/sec counts retired events: scheduler pops + "
                "batched completions; * = sub-500-event row, excluded "
                "from geomeans)\n");
    std::printf("geomean calendar-vs-legacy events/sec: %.2fx\n",
                engine_speedup.value());
    if (!prepr.empty()) {
        std::printf("geomean event-loop events/sec vs pre-PR: %.2fx\n",
                    loop_speedup.value());
        std::printf("geomean whole-run wall clock vs pre-PR: %.2fx\n",
                    wall_speedup.value());
    }

    writeJson(out_path, records, prepr, bench::smokeMode(),
              engine_speedup.value(), loop_speedup.value(),
              wall_speedup.value());
    std::printf("wrote %s\n", out_path.c_str());

    if (!check_path.empty())
        return checkAgainstBaseline(records, check_path, tolerance);
    return 0;
}
