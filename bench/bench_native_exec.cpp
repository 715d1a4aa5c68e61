/**
 * @file
 * Native execution throughput harness (docs/EXECUTION.md): runs each
 * bench matrix's partition plan for real on the host CPU under four
 * assignment strategies — the HotTiles plan, the IMH-unaware random
 * split, and the two homogeneous degenerates (AllHot / AllCold),
 * interleaved per matrix by the bench runner — and emits
 * BENCH_native.json with GFLOP/s plus the per-class
 * measured-vs-predicted model error of every matrix x strategy cell.
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE   JSON output path (default BENCH_native.json, or
 *                BENCH_native.smoke.json under --smoke)
 *   --check      self-check gates, exit 1 on violation: every Golden
 *                run must be bit-identical to the serial reference
 *                executor, every Fast run within kernel tolerance of
 *                it, every cell must report nonzero throughput, and
 *                a matrix's rounds may compile at most once per cell.
 *
 * Each cell keeps one backend for all its runs, as a library user
 * repeating an SpMM does: the untimed warm-up compiles the cell's plan
 * into the backend's memo and every timed run reuses it, so
 * `prepare_ms` is the set-up a repeated run pays.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch_config.hpp"
#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "core/hottiles.hpp"
#include "core/telemetry.hpp"
#include "exec/backend.hpp"
#include "kernels/dispatch.hpp"
#include "partition/predicted_runtime.hpp"
#include "sparse/dense.hpp"

using namespace hottiles;

namespace {

/** One assignment strategy of one matrix: its plan and run options. */
struct Cell
{
    const char* name;
    Partition plan;
    exec::NativeExecOptions eo;
    std::unique_ptr<exec::ExecutionBackend> backend;  //!< all its runs
    DenseMatrix ref;  //!< reference output, under --check only
    bool hot_units = false;   //!< the hot class reported unit times
    bool cold_units = false;
    unsigned threads = 0;     //!< pool parallelism the runs used
};

} // namespace

int
main(int argc, char** argv)
{
    bench::init(&argc, argv);
    const char* usage =
        "usage: bench_native_exec [--smoke] [--threads N] [--out FILE] "
        "[--check]\n"
        "  --out FILE    JSON output path (default BENCH_native.json, "
        "BENCH_native.smoke.json under --smoke)\n"
        "  --check       exit 1 unless every run verifies against the "
        "reference executor\n";
    std::string out_path = bench::defaultOut("native");
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out")
            out_path = bench::flagValue(argc, argv, i, usage);
        else if (a == "--check")
            check = true;
        else if (a == "--help" || a == "-h")
            bench::exitUsage(usage);
        else
            bench::exitUsage(usage, "unknown option '" + a + "'");
    }

    bench::banner("bench_native_exec", "native execution",
                  "Host-CPU execution of partition plans "
                  "(docs/EXECUTION.md): GFLOP/s and "
                  "measured-vs-predicted model error per strategy");

    const Architecture arch = calibrated(makeSpadeSextans(4));
    HotTilesOptions opts;
    opts.kernel.kind = SparseKernel::Spmm;
    opts.kernel.k = 32;
    opts.build_formats = false;

    std::vector<bench::Row> results;
    std::vector<std::string> failures;
    Table table({"Matrix", "Strategy", "Hot nnz %", "GFLOP/s",
                 "GF/s q1-q3", "Wall ms", "Hot err%", "Cold err%"});

    for (const std::string& name : bench::tableVNames()) {
        const CooMatrix& m = bench::suiteMatrix(name);
        HotTiles ht(arch, m, opts);
        const TileGrid& grid = ht.grid();
        const KernelConfig& kernel = ht.context().kernel;
        DenseMatrix din(grid.matrixCols(), kernel.k);
        Rng rng(42);
        din.fillRandom(rng);

        Partition all_hot, all_cold;
        all_hot.is_hot.assign(grid.numTiles(), 1);
        all_hot.heuristic = "AllHot";
        all_cold.is_hot.assign(grid.numTiles(), 0);
        all_cold.heuristic = "AllCold";
        std::vector<Cell> strategies;
        strategies.push_back({"HotTiles", ht.partition(), {}, {}, {}});
        strategies.push_back({"IUnaware", ht.iunaware(), {}, {}, {}});
        strategies.push_back({"AllHot", std::move(all_hot), {}, {}, {}});
        strategies.push_back({"AllCold", std::move(all_cold), {}, {}, {}});

        // The four strategies of one matrix are compared with each
        // other, so the runner interleaves them.
        bench::Runner runner;
        for (Cell& s : strategies) {
            s.eo.hot_share_hint =
                assignmentTotals(ht.context(), s.plan.is_hot).hotShare();
            s.backend = exec::makeNativeCpuBackend(s.eo);
            if (check)
                s.ref = exec::referenceExecute(grid, s.plan, kernel, din);
            runner.add([&, &s = s] {
                exec::ExecReport rep;
                const DenseMatrix out =
                    s.backend->run(grid, s.plan, kernel, din, &rep);
                const PredictionErrorTelemetry tel =
                    exec::computeNativePredictionError(grid, ht.context(),
                                                       s.plan.is_hot, rep);
                recordPredictionError(tel, std::string("native.") + s.name);
                const PredictionErrorSummary hs =
                    summarizePredictionError(tel.hot_tiles);
                const PredictionErrorSummary cs =
                    summarizePredictionError(tel.cold_panels);
                s.hot_units = hs.count > 0;
                s.cold_units = cs.count > 0;
                s.threads = rep.threads;
                // Self-check gates on every run: correctness of the whole
                // execution path, not perf (absolute GFLOP/s is a host
                // property).
                const std::string cell = name + "/" + s.name;
                if (check &&
                    (out.data().size() != s.ref.data().size() ||
                     std::memcmp(out.data().data(), s.ref.data().data(),
                                 out.data().size() * sizeof(Value)) != 0))
                    failures.push_back(
                        "CHECK FAILED " + cell +
                        ": Golden run is not bit-identical to the "
                        "reference executor (max |diff| " +
                        std::to_string(out.maxAbsDiff(s.ref)) + ")");
                if (check && !(rep.gflops > 0))
                    failures.push_back("CHECK FAILED " + cell +
                                       ": nonpositive GFLOP/s reported");
                return bench::Sample{
                    {"gflops", rep.gflops},
                    {"wall_ms", rep.wall_s * 1e3},
                    {"prepare_ms", rep.prepare_s * 1e3},
                    {"hot_err_mean_pct", hs.mean_pct},
                    {"cold_err_mean_pct", cs.mean_pct},
                    {"stolen_tasks",
                     double(rep.hot.stolen_tasks + rep.cold.stolen_tasks)}};
            });
        }
        const Counter& misses =
            MetricsRegistry::global().counter("exec.native.plan.miss");
        const uint64_t misses0 = misses.value();
        runner.run();
        const uint64_t compiles = misses.value() - misses0;
        if (check && compiles > strategies.size())
            failures.push_back(
                "CHECK FAILED " + name + ": " + std::to_string(compiles) +
                " plan compiles in the rounds of " +
                std::to_string(strategies.size()) +
                " cells; a cell's runs must reuse its backend's plan");

        for (size_t i = 0; i < strategies.size(); ++i) {
            const Cell& s = strategies[i];
            const double hot_frac = s.plan.hotNnzFraction(grid);
            const bench::Spread gf = runner.spread(i, "gflops");
            results.push_back(bench::Row()
                                  .put("matrix", name)
                                  .put("strategy", s.name)
                                  .put(runner, i)
                                  .put("hot_nnz_fraction", hot_frac)
                                  .put("threads", s.threads));
            table.addRow(
                {name, s.name, Table::num(100 * hot_frac, 1),
                 Table::num(gf.median, 2),
                 Table::num(gf.q1, 2) + "-" + Table::num(gf.q3, 2),
                 Table::num(runner.spread(i, "wall_ms").median, 3),
                 s.hot_units
                     ? Table::num(runner.spread(i, "hot_err_mean_pct").median, 1)
                     : "-",
                 s.cold_units
                     ? Table::num(runner.spread(i, "cold_err_mean_pct").median,
                                  1)
                     : "-"});
            if (!check)
                continue;
            exec::NativeExecOptions fast = s.eo;
            fast.policy = kernels::Policy::Fast;
            fast.collect_unit_times = false;
            const DenseMatrix fout = exec::makeNativeCpuBackend(fast)->run(
                grid, s.plan, kernel, din);
            if (!fout.approxEqual(s.ref))
                failures.push_back(
                    "CHECK FAILED " + name + "/" + s.name +
                    ": Fast run diverges from the reference executor "
                    "(max |diff| " + std::to_string(fout.maxAbsDiff(s.ref)) +
                    ")");
        }
    }

    table.print(std::cout);
    std::printf("(medians of %u interleaved rounds per matrix)\n",
                bench::rounds());
    bench::writeReport(out_path, "native", {}, results);
    std::printf("wrote %zu cells to %s\n", results.size(), out_path.c_str());

    if (check) {
        for (const std::string& f : failures)
            std::printf("%s\n", f.c_str());
        if (failures.empty())
            std::printf("native exec check OK: every strategy verified "
                        "against the reference executor\n");
        return failures.empty() ? 0 : 1;
    }
    return 0;
}
