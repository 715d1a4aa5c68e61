/**
 * @file
 * Native execution throughput harness (docs/EXECUTION.md): runs each
 * bench matrix's partition plan for real on the host CPU under four
 * assignment strategies — the HotTiles plan, the IMH-unaware random
 * split, and the two homogeneous degenerates (AllHot / AllCold) — and
 * emits BENCH_native.json with GFLOP/s plus the per-class
 * measured-vs-predicted model error of every matrix x strategy cell.
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE   JSON output path (default BENCH_native.json)
 *   --check      self-check gates, exit 1 on violation: every Golden
 *                run must be bit-identical to the serial reference
 *                executor, every Fast run within kernel tolerance of
 *                it, and every cell must report nonzero throughput.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
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

struct Cell
{
    std::string matrix;
    std::string strategy;
    double gflops = 0;
    double wall_ms = 0;
    double prepare_ms = 0;
    double hot_nnz_fraction = 0;
    double hot_err_mean_pct = 0;   //!< 0 when the class had no samples
    double cold_err_mean_pct = 0;
    size_t stolen_tasks = 0;
    unsigned threads = 0;
};

struct CheckFailure
{
    std::string what;
};

void
writeJson(const std::string& path, const std::vector<Cell>& cells,
          bool smoke)
{
    std::ofstream out(path);
    HT_FATAL_IF(!out, "cannot open '", path, "' for writing");
    out << "{\n"
        << "  \"schema\": \"hottiles.bench_native.v1\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"active_tier\": \""
        << kernels::tierName(kernels::activeTier()) << "\",\n"
        << "  \"metrics\": ";
    MetricsRegistry::global().writeJson(out);
    out << ",\n  \"results\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell& c = cells[i];
        out << "    {\"matrix\": \"" << c.matrix << "\", \"strategy\": \""
            << c.strategy << "\", \"gflops\": " << c.gflops
            << ", \"wall_ms\": " << c.wall_ms
            << ", \"prepare_ms\": " << c.prepare_ms
            << ", \"hot_nnz_fraction\": " << c.hot_nnz_fraction
            << ", \"hot_err_mean_pct\": " << c.hot_err_mean_pct
            << ", \"cold_err_mean_pct\": " << c.cold_err_mean_pct
            << ", \"stolen_tasks\": " << c.stolen_tasks
            << ", \"threads\": " << c.threads << "}"
            << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(&argc, argv);
    const char* usage =
        "usage: bench_native_exec [--smoke] [--threads N] [--out FILE] "
        "[--check]\n"
        "  --out FILE    JSON output path (default BENCH_native.json)\n"
        "  --check       exit 1 unless every run verifies against the "
        "reference executor\n";
    std::string out_path = "BENCH_native.json";
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (a == "--check") {
            check = true;
        } else if (a == "--help" || a == "-h") {
            bench::exitUsage(usage);
        } else if (a == "--out") {
            bench::exitUsage(usage, "missing value for --out");
        } else {
            bench::exitUsage(usage, "unknown option '" + a + "'");
        }
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

    std::vector<Cell> cells;
    std::vector<CheckFailure> failures;
    Table table({"Matrix", "Strategy", "Hot nnz %", "GFLOP/s", "Wall ms",
                 "Hot err%", "Cold err%"});

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
        const std::pair<const char*, Partition> strategies[] = {
            {"HotTiles", ht.partition()},
            {"IUnaware", ht.iunaware()},
            {"AllHot", std::move(all_hot)},
            {"AllCold", std::move(all_cold)},
        };

        for (const auto& [strategy, p] : strategies) {
            exec::NativeExecOptions eo;
            AssignmentTotals totals =
                assignmentTotals(ht.context(), p.is_hot);
            if (totals.th_total + totals.tc_total > 0)
                eo.hot_share_hint =
                    totals.th_total / (totals.th_total + totals.tc_total);

            exec::ExecReport rep;
            DenseMatrix out = exec::makeNativeCpuBackend(eo)->run(
                grid, p, kernel, din, &rep);

            PredictionErrorTelemetry tel =
                exec::computeNativePredictionError(grid, ht.context(),
                                                   p.is_hot, rep);
            const std::string label = std::string("native.") + strategy;
            recordPredictionError(tel, label);
            const PredictionErrorSummary hs =
                summarizePredictionError(tel.hot_tiles);
            const PredictionErrorSummary cs =
                summarizePredictionError(tel.cold_panels);

            Cell c;
            c.matrix = name;
            c.strategy = strategy;
            c.gflops = rep.gflops;
            c.wall_ms = rep.wall_s * 1e3;
            c.prepare_ms = rep.prepare_s * 1e3;
            c.hot_nnz_fraction = p.hotNnzFraction(grid);
            c.hot_err_mean_pct = hs.mean_pct;
            c.cold_err_mean_pct = cs.mean_pct;
            c.stolen_tasks = rep.hot.stolen_tasks + rep.cold.stolen_tasks;
            c.threads = rep.threads;
            cells.push_back(c);
            table.addRow({name, strategy,
                          Table::num(100 * c.hot_nnz_fraction, 1),
                          Table::num(c.gflops, 2), Table::num(c.wall_ms, 3),
                          hs.count ? Table::num(hs.mean_pct, 1) : "-",
                          cs.count ? Table::num(cs.mean_pct, 1) : "-"});

            if (!check)
                continue;
            // Self-check gates: correctness of the whole execution path,
            // not perf (absolute GFLOP/s is host property).
            const DenseMatrix ref =
                exec::referenceExecute(grid, p, kernel, din);
            if (out.data().size() != ref.data().size() ||
                std::memcmp(out.data().data(), ref.data().data(),
                            out.data().size() * sizeof(Value)) != 0)
                failures.push_back(
                    {"CHECK FAILED " + c.matrix + "/" + c.strategy +
                     ": Golden run is not bit-identical to the reference "
                     "executor (max |diff| " +
                     std::to_string(out.maxAbsDiff(ref)) + ")"});
            exec::NativeExecOptions fast = eo;
            fast.policy = kernels::Policy::Fast;
            fast.collect_unit_times = false;
            const DenseMatrix fout = exec::makeNativeCpuBackend(fast)->run(
                grid, p, kernel, din);
            if (!fout.approxEqual(ref))
                failures.push_back(
                    {"CHECK FAILED " + c.matrix + "/" + c.strategy +
                     ": Fast run diverges from the reference executor "
                     "(max |diff| " + std::to_string(fout.maxAbsDiff(ref)) +
                     ")"});
            if (!(rep.gflops > 0))
                failures.push_back({"CHECK FAILED " + c.matrix + "/" +
                                    c.strategy +
                                    ": nonpositive GFLOP/s reported"});
        }
    }

    table.print(std::cout);
    writeJson(out_path, cells, bench::smokeMode());
    std::printf("wrote %zu cells to %s\n", cells.size(), out_path.c_str());

    if (check) {
        for (const CheckFailure& f : failures)
            std::printf("%s\n", f.what.c_str());
        if (failures.empty())
            std::printf("native exec check OK: every strategy verified "
                        "against the reference executor\n");
        return failures.empty() ? 0 : 1;
    }
    return 0;
}
