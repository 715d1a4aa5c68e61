/**
 * @file
 * Host-kernel throughput harness for the vectorized kernel library
 * (docs/KERNELS.md): GFLOP/s per (matrix, kernel, dispatch tier, K)
 * over the raw per-tier function tables, single-threaded so the numbers
 * measure the micro-kernels and not the pool.  Emits machine-readable
 * BENCH_kernels.json so the repo tracks the SIMD speedups across PRs.
 *
 * The regression gate is machine-independent: absolute GFLOP/s differ
 * per host, but the *ratio* of a vector tier to the genuinely-scalar
 * tier (tier_scalar.cpp is compiled with auto-vectorization off) is a
 * property of the kernels.  --check compares those ratios against a
 * checked-in baseline, and additionally enforces a hard floor: the
 * best vector tier must run fast-policy CSR SpMM at K=32 at a
 * >= --min-spmm-speedup (default 3.0) geomean over the bench matrices.
 * On a scalar-only build/CPU both gates are skipped with a notice.  The
 * tiers of one (matrix, kernel, K) are interleaved by the bench runner,
 * and a ratio is the median of the per-round ratios.
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE             JSON output path (default BENCH_kernels.json,
 *                          or BENCH_kernels.smoke.json under --smoke)
 *   --check FILE           compare tier-vs-scalar GFLOP/s ratios against
 *                          a baseline JSON; exit 1 on regression
 *   --tolerance F          allowed relative ratio regression, in [0, 1)
 *                          (default 0.40)
 *   --min-spmm-speedup F   hard floor for fast CSR SpMM @ K=32 (default 3.0)
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "kernels/dispatch.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"

using namespace hottiles;
namespace hk = hottiles::kernels;

namespace {

struct Cell
{
    std::string matrix;
    std::string kernel;
    std::string tier;
    Index k = 0;  //!< 1 for the K-independent SpMV kernels
    double vs_scalar = 0;  //!< median per-round GFLOP/s ratio to scalar
};

/** One bench matrix with its derived forms and dense operands. */
struct Workload
{
    std::string name;
    CooMatrix coo;
    CsrMatrix csr;
    std::vector<Index> ks;  //!< dense widths to sweep
};

std::vector<Workload>
makeWorkloads()
{
    // uniform and rmat are small enough to stay cache-resident (the
    // kernels, not DRAM, are under test), large enough that a call is
    // microseconds not noise.  Full mode adds the del proxy at K = 32:
    // its 16.8 MB Din outgrows L2, so it is the cell where the golden
    // CSR kernels' Din prefetch shows (docs/KERNELS.md).
    std::vector<Workload> out;
    auto add = [&](const std::string& name, CooMatrix m,
                   std::vector<Index> ks) {
        m.sortRowMajor();
        Workload w;
        w.name = name;
        w.csr = CsrMatrix::fromCoo(m);
        w.coo = std::move(m);
        w.ks = std::move(ks);
        out.push_back(std::move(w));
    };
    if (bench::smokeMode()) {
        add("uniform", genUniform(512, 512, 8192, 0xC0FFEE), {8, 32});
        add("rmat", genRmat(512, 8192, 0.57, 0.19, 0.19, 0.05, 0xBEEF),
            {8, 32});
    } else {
        add("uniform", genUniform(4096, 4096, 200000, 0xC0FFEE),
            {8, 32, 128});
        add("rmat", genRmat(4096, 200000, 0.57, 0.19, 0.19, 0.05, 0xBEEF),
            {8, 32, 128});
        add("del", makeSuiteMatrix("del"), {32});
    }
    return out;
}

/** One timed call of a kernel cell: GFLOP/s over a time budget. */
bench::Sample
budgetCall(double flops_per_call, const std::function<void()>& call)
{
    const bench::Budget b =
        bench::smokeMode() ? bench::repeatFor(4.0, 512, call)
                           : bench::repeatFor(25.0, 100000, call);
    return {{"gflops", flops_per_call * b.reps / (b.ms / 1e3) / 1e9},
            {"ms_per_call", b.ms / b.reps},
            {"reps", double(b.reps)}};
}

using CellKey = std::tuple<std::string, std::string, std::string, Index>;

int
checkAgainstBaseline(const std::vector<Cell>& cells,
                     const std::string& path, double tolerance,
                     double min_spmm_speedup,
                     double spmm_fast_k32_speedup)
{
    std::map<CellKey, double> baseline;
    for (const bench::Object& row : bench::readResults(path))
        baseline[{bench::field<std::string>(row, "matrix"),
                  bench::field<std::string>(row, "kernel"),
                  bench::field<std::string>(row, "tier"),
                  Index(bench::field<double>(row, "k"))}] =
            bench::field<double>(row, "gflops");
    // Tiers the baseline run measured at all.  A whole tier absent from
    // the baseline (e.g. AVX-512 locally vs an AVX2 CI runner) is
    // hardware skew and is not gated — but a missing (matrix, kernel,
    // tier, K) key *within* a baseline-covered tier means the baseline
    // is stale relative to the current sweep, and silently skipping it
    // would let a regression on the new cell pass unexamined.
    std::set<std::string> baseline_tiers;
    for (const auto& [key, gflops] : baseline)
        baseline_tiers.insert(std::get<2>(key));
    int failures = 0;
    for (const Cell& c : cells) {
        if (c.tier == "scalar")
            continue;
        auto vec_it = baseline.find({c.matrix, c.kernel, c.tier, c.k});
        auto sc_it = baseline.find({c.matrix, c.kernel, "scalar", c.k});
        if (!baseline_tiers.count(c.tier))
            continue;  // whole tier absent: hardware skew, not gated
        if (vec_it == baseline.end() ||
            (baseline_tiers.count("scalar") && sc_it == baseline.end())) {
            std::printf(
                "BASELINE MISSING %s/%s/%s@K=%u: the baseline JSON covers "
                "tier '%s' but lacks this cell%s — regenerate %s with the "
                "current sweep (run without --check and commit the "
                "output)\n",
                c.matrix.c_str(), c.kernel.c_str(), c.tier.c_str(),
                unsigned(c.k), c.tier.c_str(),
                vec_it == baseline.end() ? "" : "'s scalar reference",
                path.c_str());
            ++failures;
            continue;
        }
        if (c.vs_scalar <= 0 || sc_it == baseline.end() ||
            sc_it->second <= 0)
            continue;
        // Now: the median of the per-round ratios of interleaved trials.
        const double ratio_then = vec_it->second / sc_it->second;
        if (c.vs_scalar < (1.0 - tolerance) * ratio_then) {
            std::printf("REGRESSION %s/%s/%s@K=%u: vs-scalar ratio %.2f "
                        "(baseline %.2f, tolerance %.0f%%)\n",
                        c.matrix.c_str(), c.kernel.c_str(), c.tier.c_str(),
                        unsigned(c.k), c.vs_scalar, ratio_then,
                        tolerance * 100);
            ++failures;
        }
    }
    if (hk::supportedTiers().size() <= 1) {
        std::printf("scalar-only host: SpMM speedup floor not applicable\n");
    } else if (spmm_fast_k32_speedup < min_spmm_speedup) {
        std::printf("FLOOR VIOLATION: fast CSR SpMM @ K=32 geomean "
                    "speedup %.2fx < required %.2fx\n",
                    spmm_fast_k32_speedup, min_spmm_speedup);
        ++failures;
    } else {
        std::printf("SpMM floor OK: fast CSR SpMM @ K=32 is %.2fx "
                    "scalar (>= %.2fx)\n",
                    spmm_fast_k32_speedup, min_spmm_speedup);
    }
    if (failures == 0)
        std::printf("perf check OK: no tier-vs-scalar ratio regressed "
                    ">%.0f%% vs %s\n",
                    tolerance * 100, path.c_str());
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(&argc, argv);
    const char* usage =
        "usage: bench_kernel_throughput [--smoke] [--threads N] "
        "[--out FILE] [--check FILE] [--tolerance F] "
        "[--min-spmm-speedup F]\n"
        "  --out FILE             JSON output path (default "
        "BENCH_kernels.json, BENCH_kernels.smoke.json under --smoke)\n"
        "  --check FILE           exit 1 when a tier-vs-scalar ratio "
        "regresses against this baseline JSON\n"
        "  --tolerance F          allowed relative ratio regression, in "
        "[0, 1) (default 0.40)\n"
        "  --min-spmm-speedup F   floor for fast CSR SpMM @ K=32 vs "
        "scalar (default 3.0)\n";
    std::string out_path = bench::defaultOut("kernels");
    std::string check_path;
    double tolerance = 0.40;
    double min_spmm_speedup = 3.0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out")
            out_path = bench::flagValue(argc, argv, i, usage);
        else if (a == "--check")
            check_path = bench::flagValue(argc, argv, i, usage);
        else if (a == "--tolerance")
            tolerance = bench::parseNumber(
                a, bench::flagValue(argc, argv, i, usage), usage);
        else if (a == "--min-spmm-speedup")
            min_spmm_speedup = bench::parseNumber(
                a, bench::flagValue(argc, argv, i, usage), usage);
        else if (a == "--help" || a == "-h")
            bench::exitUsage(usage);
        else
            bench::exitUsage(usage, "unknown option '" + a + "'");
    }
    // At 1 or more, (1 - tolerance) x baseline <= 0 and no ratio could
    // fail the gate.
    if (tolerance >= 1)
        bench::exitUsage(usage, "--tolerance must be below 1");

    bench::banner("bench_kernel_throughput", "kernel library",
                  "Host-kernel GFLOP/s per dispatch tier "
                  "(docs/KERNELS.md), single-threaded raw tables");

    const std::vector<hk::Tier> tiers = hk::supportedTiers();
    std::printf("tiers:");
    for (hk::Tier t : tiers)
        std::printf(" %s", hk::tierName(t));
    std::printf("  (active: %s%s)\n", hk::tierName(hk::activeTier()),
                hk::scalarForced() ? ", force-scalar" : "");

    std::vector<Cell> cells;
    std::vector<bench::Row> results;
    std::vector<std::string> header = {"Matrix", "Kernel", "K"};
    for (hk::Tier t : tiers)
        header.push_back(std::string(hk::tierName(t)) + " GF/s");
    header.push_back("best/scalar");
    Table table(header);
    table.setAlign(0, Table::Align::Left);
    table.setAlign(1, Table::Align::Left);

    GeoMean spmm_fast_k32;
    std::map<std::string, GeoMean> tier_geo;

    // The accumulating kernels grow their outputs with every call, and
    // a kernel's speed can depend on those values: every sample starts
    // from zeroed outputs.
    std::function<void()> zero_outputs;
    // One (matrix, kernel, K) row: its tiers interleaved by the runner;
    // tiers[0] is the genuinely-scalar tier every ratio divides by.
    auto sweep = [&](const std::string& matrix, const std::string& kernel,
                     Index k, double flops,
                     const std::function<void(const hk::KernelOps&)>& call) {
        bench::Runner runner;
        for (hk::Tier t : tiers)
            runner.add([&, &ops = hk::opsForTier(t)] {
                zero_outputs();
                return budgetCall(flops, [&] { call(ops); });
            });
        runner.run();
        std::vector<std::string> row = {matrix, kernel, std::to_string(k)};
        const std::vector<double> scalar = runner.samples(0, "gflops");
        double best = 0;
        for (size_t i = 0; i < tiers.size(); ++i) {
            const bench::Spread ratio =
                bench::ratioSpread(runner.samples(i, "gflops"), scalar);
            cells.push_back(
                {matrix, kernel, hk::tierName(tiers[i]), k, ratio.median});
            results.push_back(bench::Row()
                                  .put("matrix", matrix)
                                  .put("kernel", kernel)
                                  .put("tier", hk::tierName(tiers[i]))
                                  .put("k", k)
                                  .put(runner, i)
                                  .put("vs_scalar", ratio));
            row.push_back(
                Table::num(runner.spread(i, "gflops").median, 2));
            best = std::max(best, ratio.median);
            if (i > 0 && ratio.median > 0)
                tier_geo[hk::tierName(tiers[i])].add(ratio.median);
        }
        row.push_back(Table::num(best, 2) + "x");
        table.addRow(row);
        if (kernel == "spmm_csr_fast" && k == 32 && best > 0)
            spmm_fast_k32.add(best);
    };

    for (const Workload& w : makeWorkloads()) {
        const hk::CsrView cv{w.csr.rowPtr().data(), w.csr.colIds().data(),
                             w.csr.values().data(), w.csr.rows()};
        const hk::CooView ov{w.coo.rowIds().data(), w.coo.colIds().data(),
                             w.coo.values().data(), w.coo.nnz()};
        const Index rows = w.coo.rows();
        const Index cols = w.coo.cols();
        const size_t nnz = w.coo.nnz();
        Rng rng(0xD15C0 + rows);

        // Exercise the parallel dispatch wrappers once so the kernel.*
        // counters/timers appear in the JSON metrics snapshot.
        {
            DenseMatrix din = DenseMatrix(cols, 32);
            din.fillRandom(rng);
            DenseMatrix dout(rows, 32);
            hk::spmmCsr(cv, 32, din.row(0), dout.row(0),
                        hk::Policy::Golden);
            hk::spmmCsr(cv, 32, din.row(0), dout.row(0), hk::Policy::Fast);
        }

        // K-independent kernels: SpMV (fast CSR + golden COO), k = 1.
        std::vector<Value> x(cols), y(rows);
        for (Value& v : x)
            v = static_cast<Value>(rng.nextDouble(-1.0, 1.0));
        std::vector<double> yacc(rows, 0.0);
        zero_outputs = [&] { std::fill(yacc.begin(), yacc.end(), 0.0); };
        sweep(w.name, "spmv_csr_fast", 1, 2.0 * nnz,
              [&](const hk::KernelOps& ops) {
                  ops.spmv_csr_fast(cv, x.data(), y.data(), 0, rows);
              });
        sweep(w.name, "spmv_coo_golden", 1, 2.0 * nnz,
              [&](const hk::KernelOps& ops) {
                  ops.spmv_coo_golden(ov, x.data(), yacc.data(), 0, nnz);
              });
        for (Index k : w.ks) {
            DenseMatrix din(cols, k);
            DenseMatrix u(rows, k);
            din.fillRandom(rng);
            u.fillRandom(rng);
            DenseMatrix dout(rows, k);
            std::vector<double> acc(size_t(rows) * k, 0.0);
            std::vector<Value> sout(nnz, 0);
            zero_outputs = [&] {
                dout.fill(0);
                std::fill(acc.begin(), acc.end(), 0.0);
            };
            const double mac_flops = 2.0 * double(nnz) * k;
            sweep(w.name, "spmm_csr_golden", k, mac_flops,
                  [&](const hk::KernelOps& ops) {
                      ops.spmm_csr_golden(cv, k, din.row(0), dout.row(0), 0,
                                          rows);
                  });
            sweep(w.name, "spmm_csr_fast", k, mac_flops,
                  [&](const hk::KernelOps& ops) {
                      ops.spmm_csr_fast(cv, k, din.row(0), dout.row(0), 0,
                                        rows);
                  });
            sweep(w.name, "spmm_coo_golden", k, mac_flops,
                  [&](const hk::KernelOps& ops) {
                      ops.spmm_coo_golden(ov, k, din.row(0), acc.data(), 0,
                                          0, nnz);
                  });
            sweep(w.name, "spmm_coo_fast", k, mac_flops,
                  [&](const hk::KernelOps& ops) {
                      ops.spmm_coo_fast(ov, k, din.row(0), dout.row(0), 0,
                                        nnz);
                  });
            sweep(w.name, "sddmm_golden", k, mac_flops,
                  [&](const hk::KernelOps& ops) {
                      ops.sddmm_golden(ov, k, u.row(0), din.row(0),
                                       sout.data(), 0, nnz);
                  });
            sweep(w.name, "sddmm_fast", k, mac_flops,
                  [&](const hk::KernelOps& ops) {
                      ops.sddmm_fast(ov, k, u.row(0), din.row(0),
                                     sout.data(), 0, nnz);
                  });
            sweep(w.name, "gspmm_ai_x4", k, 4.0 * mac_flops,
                  [&](const hk::KernelOps& ops) {
                      ops.gspmm_ai(ov, k, 4, din.row(0), dout.row(0), 0,
                                   nnz);
                  });
        }
    }
    table.print(std::cout);
    std::printf("(medians of %u interleaved rounds; best/scalar is the "
                "median per-round ratio of the fastest tier over the "
                "genuinely-scalar tier table)\n",
                bench::rounds());
    bench::Row tier_geomeans;
    tier_geomeans.put("scalar", 1.0);
    for (auto& [tier, g] : tier_geo) {
        tier_geomeans.put(tier, g.value());
        std::printf("geomean %s vs scalar (all kernels/K): %.2fx\n",
                    tier.c_str(), g.value());
    }
    const double spmm32 =
        spmm_fast_k32.count() ? spmm_fast_k32.value() : 0.0;
    if (hk::supportedTiers().size() > 1)
        std::printf("geomean fast CSR SpMM @ K=32 vs scalar: %.2fx\n",
                    spmm32);

    bench::writeReport(
        out_path, "kernels",
        bench::Row()
            .put("active_tier", hk::tierName(hk::activeTier()))
            .put("spmm_csr_fast_k32_geomean_speedup_vs_scalar", spmm32)
            .put("geomean_gflops_vs_scalar", tier_geomeans),
        results);
    std::printf("wrote %s\n", out_path.c_str());

    if (!check_path.empty())
        return checkAgainstBaseline(cells, check_path, tolerance,
                                    min_spmm_speedup, spmm32);
    return 0;
}
