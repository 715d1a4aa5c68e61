/**
 * @file
 * Simulator hot-loop throughput harness: times the event core in
 * events/second per (matrix, strategy) over the Table V proxies, for
 * both queue engines (the calendar/slab default and the legacy
 * std::function binary heap kept for equivalence testing), interleaved
 * by the bench runner, and emits machine-readable BENCH_sim_perf.json
 * so the repo tracks its perf trajectory across PRs.
 *
 * Events/sec is measured over the event loop proper (SimStats::loop_ms,
 * the runUntilEmpty phase), not the whole simulateExecution call, so
 * format/segment building does not dilute the metric the event-core
 * work targets.  Those engine runs share one WorkListCache, so their
 * wall time leaves out the setup.  Whole simulations are timed apart:
 * per matrix, one runner interleaves the four strategies, each sample
 * one simulateExecution on the calendar engine with a fresh
 * WorkListCache, so it builds the work lists and the segments with the
 * Din L1 replay.  The calendar row reports its `sim_ms` and
 * `setup_ms` = sim_ms - loop_ms, both with quartiles.
 *
 * The throughput metric counts *retired* events — scheduler pops plus
 * completions that piggy-backed on a coalesced event (batched_events) —
 * so it measures simulation work per second and is invariant to how
 * many completions share one queue entry.  Raw pops are still emitted
 * per record ("events").  Rows with fewer than 500 events time as
 * microsecond-scale noise and are excluded from the geomean summary
 * line and the gate (they stay in the JSON).
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE        JSON output path (default BENCH_sim_perf.json, or
 *                     BENCH_sim_perf.smoke.json under --smoke)
 *   --check FILE      compare against a checked-in baseline JSON and
 *                     fail (exit 1) if the calendar/legacy events-per-
 *                     second ratio of any (matrix, strategy) regressed
 *                     by more than the tolerance.  The ratio is
 *                     machine-independent, unlike absolute events/sec;
 *                     it is the median of the per-round ratios.
 *   --tolerance F     allowed relative regression (default 0.30)
 */

#include <cstdio>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/worklist.hpp"

using namespace hottiles;

namespace {

/** One (matrix, strategy) row: the calendar/legacy ratio of the runs. */
struct Record
{
    std::string matrix;
    std::string strategy;
    uint64_t events = 0;
    double ratio = 0;  //!< median per-round calendar/legacy events/sec
};

/** RAII restore of the process-wide default queue engine. */
struct ImplGuard
{
    EventQueue::Impl saved = EventQueue::defaultImpl();
    ~ImplGuard() { EventQueue::setDefaultImpl(saved); }
};

int
checkAgainstBaseline(const std::vector<Record>& records,
                     const std::string& path, double tolerance)
{
    std::map<std::tuple<std::string, std::string, std::string>, double>
        baseline;
    for (const bench::Object& row : bench::readResults(path))
        baseline[{bench::field<std::string>(row, "matrix"),
                  bench::field<std::string>(row, "strategy"),
                  bench::field<std::string>(row, "impl")}] =
            bench::field<double>(row, "events_per_sec");
    int failures = 0;
    for (const Record& r : records) {
        // Sub-millisecond runs (tiny event counts) time as pure noise;
        // they cannot support a regression verdict.
        if (r.events < 500)
            continue;
        auto cal_it = baseline.find({r.matrix, r.strategy, "calendar"});
        auto leg_it = baseline.find({r.matrix, r.strategy, "legacy-heap"});
        if (r.ratio <= 0 || cal_it == baseline.end() ||
            leg_it == baseline.end() || leg_it->second <= 0)
            continue;
        const double ratio_then = cal_it->second / leg_it->second;
        if (r.ratio < (1.0 - tolerance) * ratio_then) {
            std::printf("REGRESSION %s/%s: calendar-vs-legacy ratio %.2f "
                        "(baseline %.2f, tolerance %.0f%%)\n",
                        r.matrix.c_str(), r.strategy.c_str(), r.ratio,
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
        "[--check FILE] [--tolerance F]\n"
        "  --out FILE         JSON output path (default "
        "BENCH_sim_perf.json, BENCH_sim_perf.smoke.json under --smoke)\n"
        "  --check FILE       exit 1 on a regression against this "
        "baseline JSON\n"
        "  --tolerance F      allowed relative regression (default 0.30)\n";
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

    bench::banner("bench_sim_perf", "perf trajectory",
                  "Whole-simulation wall time and event-core throughput "
                  "(events/sec) per strategy, calendar queue vs the "
                  "legacy binary heap");

    Architecture arch = calibrated(makeSpadeSextans(4));
    const std::pair<EventQueue::Impl, const char*> impls[] = {
        {EventQueue::Impl::Calendar, "calendar"},
        {EventQueue::Impl::LegacyHeap, "legacy-heap"},
    };

    ImplGuard guard;
    std::vector<Record> records;
    std::vector<bench::Row> results;
    GeoMean engine_speedup;
    Table table({"Matrix", "Strategy", "Events", "Batched", "Sim ms",
                 "Setup ms", "Calendar Mev/s", "Legacy Mev/s",
                 "Engine speedup"});
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
        // Whole simulations, uncached: a fresh WorkListCache per run.
        bench::Runner whole;
        for (const Strat& s : strats)
            whole.add([&, s] {
                EventQueue::setDefaultImpl(EventQueue::Impl::Calendar);
                WorkListCache fresh;
                SimConfig cfg;
                cfg.work_cache = &fresh;
                double loop_ms = 0;
                const bench::Budget b = bench::repeatFor(0, 1, [&] {
                    loop_ms = simulateExecution(arch, ht.grid(), *s.is_hot,
                                                s.serial, o.kernel, cfg)
                                  .stats.loop_ms;
                });
                return bench::Sample{{"sim_ms", b.ms},
                                     {"setup_ms", b.ms - loop_ms}};
            });
        whole.run();

        for (size_t si = 0; si < std::size(strats); ++si) {
            const Strat& s = strats[si];
            SimConfig cfg;
            cfg.work_cache = &cache;
            // The two engines of one strategy are compared, so the
            // runner interleaves them; both must simulate the identical
            // execution.
            SimStats last[2];
            bench::Runner runner;
            for (int e = 0; e < 2; ++e)
                runner.add([&, e] {
                    EventQueue::setDefaultImpl(impls[e].first);
                    double loop_ms = 0;
                    const bench::Budget b = bench::repeatFor(
                        bench::smokeMode() ? 5.0 : 20.0,
                        bench::smokeMode() ? 8 : 16, [&] {
                            last[e] = simulateExecution(arch, ht.grid(),
                                                        *s.is_hot, s.serial,
                                                        o.kernel, cfg)
                                          .stats;
                            loop_ms += last[e].loop_ms;
                        });
                    loop_ms /= b.reps;
                    return bench::Sample{
                        {"wall_ms", b.ms / b.reps},
                        {"loop_ms", loop_ms},
                        {"events_per_sec",
                         double(last[e].events_processed +
                                last[e].batched_events) /
                             (loop_ms / 1e3)}};
                });
            runner.run();
            HT_FATAL_IF(last[0].cycles != last[1].cycles ||
                            last[0].events_processed !=
                                last[1].events_processed,
                        "queue engines diverged on ", name, "/", s.name);
            const bench::Spread ratio =
                bench::ratioSpread(runner.samples(0, "events_per_sec"),
                                   runner.samples(1, "events_per_sec"));
            const SimStats& st = last[0];
            records.push_back({name, s.name, st.events_processed,
                               ratio.median});
            // Tiny rows (sub-500 events, microsecond loops) are timing
            // noise; keep them out of the summary geomean.
            if (st.events_processed >= 500)
                engine_speedup.add(ratio.median);
            for (int e = 0; e < 2; ++e) {
                bench::Row row;
                row.put("matrix", name)
                    .put("strategy", s.name)
                    .put("impl", impls[e].second)
                    .put("events", st.events_processed)
                    .put(runner, size_t(e))
                    .put("sim_cycles", st.cycles)
                    .put("batched_events", st.batched_events)
                    .put("peak_queue_depth", st.peak_queue_depth);
                if (e == 0)  // what the gate compares, and whole runs
                    row.put("calendar_vs_legacy", ratio).put(whole, si);
                results.push_back(row);
            }
            table.addRow(
                {name, s.name, std::to_string(st.events_processed),
                 std::to_string(st.batched_events),
                 Table::num(whole.spread(si, "sim_ms").median, 2),
                 Table::num(whole.spread(si, "setup_ms").median, 2),
                 Table::num(runner.spread(0, "events_per_sec").median / 1e6,
                            2),
                 Table::num(runner.spread(1, "events_per_sec").median / 1e6,
                            2),
                 Table::num(ratio.median, 2) +
                     (st.events_processed < 500 ? "x *" : "x")});
        }
    }
    table.print(std::cout);
    std::printf("(medians of %u interleaved rounds; events/sec counts "
                "retired events: scheduler pops + batched completions; "
                "* = sub-500-event row, excluded from the geomean)\n",
                bench::rounds());
    std::printf("geomean calendar-vs-legacy events/sec: %.2fx\n",
                engine_speedup.value());

    bench::writeReport(
        out_path, "sim_perf",
        bench::Row().put("geomean_calendar_vs_legacy_events_per_sec",
                         engine_speedup.value()),
        results);
    std::printf("wrote %s\n", out_path.c_str());

    if (!check_path.empty())
        return checkAgainstBaseline(records, check_path, tolerance);
    return 0;
}
