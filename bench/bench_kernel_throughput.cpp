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
 * checked-in baseline, and additionally enforces the PR's hard floor:
 * the best vector tier must run fast-policy CSR SpMM at K=32 at a
 * >= --min-spmm-speedup (default 3.0) geomean over the bench matrices.
 * On a scalar-only build/CPU both gates are skipped with a notice.
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE             JSON output path (default BENCH_kernels.json)
 *   --check FILE           compare tier-vs-scalar GFLOP/s ratios against
 *                          a baseline JSON; exit 1 on regression
 *   --tolerance F          allowed relative ratio regression (default 0.40)
 *   --min-spmm-speedup F   hard floor for fast CSR SpMM @ K=32 (default 3.0)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
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
    double gflops = 0;
    double ms_per_call = 0;
    int reps = 0;
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

hk::CsrView
csrView(const CsrMatrix& m)
{
    return {m.rowPtr().data(), m.colIds().data(), m.values().data(),
            m.rows()};
}

hk::CooView
cooView(const CooMatrix& m)
{
    return {m.rowIds().data(), m.colIds().data(), m.values().data(),
            m.nnz()};
}

/**
 * Time one kernel call: warm-up, then best-of-N repeat-until-budget
 * trials.  Taking the fastest trial (minimum time) is the standard
 * robust throughput estimator — scheduler interference and frequency
 * dips only ever make a trial slower, so the max GFLOP/s across trials
 * is the least-noisy observation.
 */
template <class F>
Cell
timeKernel(const std::string& matrix, const std::string& kernel,
           const std::string& tier, Index k, double flops_per_call, F&& call)
{
    const double min_ms = bench::smokeMode() ? 4.0 : 25.0;
    const int max_reps = bench::smokeMode() ? 512 : 100000;
    const int trials = bench::smokeMode() ? 3 : 2;
    call();  // warm-up
    Cell c;
    c.matrix = matrix;
    c.kernel = kernel;
    c.tier = tier;
    c.k = k;
    for (int trial = 0; trial < trials; ++trial) {
        int reps = 0;
        double ms = 0;
        const auto t0 = std::chrono::steady_clock::now();
        do {
            call();
            ++reps;
            ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        } while (ms < min_ms && reps < max_reps);
        const double gflops = flops_per_call * reps / (ms / 1e3) / 1e9;
        if (gflops > c.gflops) {
            c.gflops = gflops;
            c.ms_per_call = ms / reps;
            c.reps = reps;
        }
    }
    return c;
}

void
writeJson(const std::string& path, const std::vector<Cell>& cells,
          bool smoke, double spmm_fast_k32_speedup,
          const std::map<std::string, double>& tier_geomeans)
{
    std::ofstream out(path);
    HT_FATAL_IF(!out, "cannot open '", path, "' for writing");
    out << "{\n"
        << "  \"schema\": \"hottiles.bench_kernels.v1\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"active_tier\": \"" << hk::tierName(hk::activeTier())
        << "\",\n"
        << "  \"spmm_csr_fast_k32_geomean_speedup_vs_scalar\": "
        << spmm_fast_k32_speedup << ",\n"
        << "  \"geomean_gflops_vs_scalar\": {";
    bool first = true;
    for (const auto& [tier, g] : tier_geomeans) {
        out << (first ? "" : ", ") << "\"" << tier << "\": " << g;
        first = false;
    }
    out << "},\n  \"metrics\": ";
    MetricsRegistry::global().writeJson(out);
    out << ",\n  \"results\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell& c = cells[i];
        out << "    {\"matrix\": \"" << c.matrix << "\", \"kernel\": \""
            << c.kernel << "\", \"tier\": \"" << c.tier
            << "\", \"k\": " << c.k << ", \"gflops\": " << c.gflops
            << ", \"ms_per_call\": " << c.ms_per_call
            << ", \"reps\": " << c.reps << "}"
            << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

// -- Minimal parser for our own baseline JSON (same approach as
// -- bench_sim_perf: no JSON library in the toolchain).

std::string
extractString(const std::string& obj, const std::string& key)
{
    const std::string pat = "\"" + key + "\": \"";
    const size_t p = obj.find(pat);
    HT_FATAL_IF(p == std::string::npos, "baseline JSON misses key ", key);
    const size_t b = p + pat.size();
    return obj.substr(b, obj.find('"', b) - b);
}

double
extractNumber(const std::string& obj, const std::string& key)
{
    const std::string pat = "\"" + key + "\": ";
    const size_t p = obj.find(pat);
    HT_FATAL_IF(p == std::string::npos, "baseline JSON misses key ", key);
    return std::strtod(obj.c_str() + p + pat.size(), nullptr);
}

using CellKey = std::tuple<std::string, std::string, std::string, Index>;

std::map<CellKey, double>
readBaselineGflops(const std::string& path)
{
    std::ifstream in(path);
    HT_FATAL_IF(!in, "cannot open baseline '", path, "'");
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::map<CellKey, double> out;
    size_t pos = text.find("\"results\"");
    HT_FATAL_IF(pos == std::string::npos, "baseline JSON has no results");
    while ((pos = text.find('{', pos + 1)) != std::string::npos) {
        const size_t end = text.find('}', pos);
        if (end == std::string::npos)
            break;
        const std::string obj = text.substr(pos, end - pos + 1);
        out[{extractString(obj, "matrix"), extractString(obj, "kernel"),
             extractString(obj, "tier"),
             Index(extractNumber(obj, "k"))}] =
            extractNumber(obj, "gflops");
        pos = end;
    }
    return out;
}

double
gflopsOf(const std::vector<Cell>& cells, const std::string& m,
         const std::string& kern, const std::string& tier, Index k)
{
    for (const Cell& c : cells)
        if (c.matrix == m && c.kernel == kern && c.tier == tier && c.k == k)
            return c.gflops;
    return 0;
}

int
checkAgainstBaseline(const std::vector<Cell>& cells,
                     const std::string& path, double tolerance,
                     double min_spmm_speedup,
                     double spmm_fast_k32_speedup)
{
    auto baseline = readBaselineGflops(path);
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
        const double scalar_now =
            gflopsOf(cells, c.matrix, c.kernel, "scalar", c.k);
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
        if (scalar_now <= 0 || sc_it == baseline.end() ||
            sc_it->second <= 0)
            continue;
        const double ratio_now = c.gflops / scalar_now;
        const double ratio_then = vec_it->second / sc_it->second;
        if (ratio_now < (1.0 - tolerance) * ratio_then) {
            std::printf("REGRESSION %s/%s/%s@K=%u: vs-scalar ratio %.2f "
                        "(baseline %.2f, tolerance %.0f%%)\n",
                        c.matrix.c_str(), c.kernel.c_str(), c.tier.c_str(),
                        unsigned(c.k), ratio_now, ratio_then,
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
        "BENCH_kernels.json)\n"
        "  --check FILE           exit 1 when a tier-vs-scalar ratio "
        "regresses against this baseline JSON\n"
        "  --tolerance F          allowed relative ratio regression "
        "(default 0.40)\n"
        "  --min-spmm-speedup F   floor for fast CSR SpMM @ K=32 vs "
        "scalar (default 3.0)\n";
    std::string out_path = "BENCH_kernels.json";
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
    std::vector<std::string> header = {"Matrix", "Kernel", "K"};
    for (hk::Tier t : tiers)
        header.push_back(std::string(hk::tierName(t)) + " GF/s");
    header.push_back("best/scalar");
    Table table(header);
    table.setAlign(0, Table::Align::Left);
    table.setAlign(1, Table::Align::Left);

    GeoMean spmm_fast_k32;
    std::map<std::string, GeoMean> tier_geo;

    for (const Workload& w : makeWorkloads()) {
        const hk::CsrView cv = csrView(w.csr);
        const hk::CooView ov = cooView(w.coo);
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
        struct Row
        {
            std::string kernel;
            Index k;
            std::vector<Cell> per_tier;
        };
        std::vector<Row> rows_out;
        for (hk::Tier t : tiers) {
            const hk::KernelOps& ops = hk::opsForTier(t);
            const std::string tn = hk::tierName(t);
            auto push = [&](const std::string& kern, Index k, Cell c) {
                for (Row& r : rows_out)
                    if (r.kernel == kern && r.k == k) {
                        r.per_tier.push_back(std::move(c));
                        return;
                    }
                rows_out.push_back({kern, k, {std::move(c)}});
            };
            push("spmv_csr_fast", 1,
                 timeKernel(w.name, "spmv_csr_fast", tn, 1, 2.0 * nnz,
                            [&] {
                                ops.spmv_csr_fast(cv, x.data(), y.data(),
                                                  0, rows);
                            }));
            push("spmv_coo_golden", 1,
                 timeKernel(w.name, "spmv_coo_golden", tn, 1, 2.0 * nnz,
                            [&] {
                                ops.spmv_coo_golden(ov, x.data(),
                                                    yacc.data(), 0, nnz);
                            }));
            for (Index k : w.ks) {
                DenseMatrix din(cols, k);
                DenseMatrix u(rows, k);
                din.fillRandom(rng);
                u.fillRandom(rng);
                DenseMatrix dout(rows, k);
                dout.fill(0);
                std::vector<double> acc(size_t(rows) * k, 0.0);
                std::vector<Value> sout(nnz, 0);
                const double mac_flops = 2.0 * double(nnz) * k;
                push("spmm_csr_golden", k,
                     timeKernel(w.name, "spmm_csr_golden", tn, k,
                                mac_flops, [&] {
                                    ops.spmm_csr_golden(cv, k, din.row(0),
                                                        dout.row(0), 0,
                                                        rows);
                                }));
                push("spmm_csr_fast", k,
                     timeKernel(w.name, "spmm_csr_fast", tn, k, mac_flops,
                                [&] {
                                    ops.spmm_csr_fast(cv, k, din.row(0),
                                                      dout.row(0), 0,
                                                      rows);
                                }));
                push("spmm_coo_golden", k,
                     timeKernel(w.name, "spmm_coo_golden", tn, k,
                                mac_flops, [&] {
                                    ops.spmm_coo_golden(ov, k, din.row(0),
                                                        acc.data(), 0, 0,
                                                        nnz);
                                }));
                push("spmm_coo_fast", k,
                     timeKernel(w.name, "spmm_coo_fast", tn, k, mac_flops,
                                [&] {
                                    ops.spmm_coo_fast(ov, k, din.row(0),
                                                      dout.row(0), 0,
                                                      nnz);
                                }));
                push("sddmm_golden", k,
                     timeKernel(w.name, "sddmm_golden", tn, k, mac_flops,
                                [&] {
                                    ops.sddmm_golden(ov, k, u.row(0),
                                                     din.row(0),
                                                     sout.data(), 0, nnz);
                                }));
                push("sddmm_fast", k,
                     timeKernel(w.name, "sddmm_fast", tn, k, mac_flops,
                                [&] {
                                    ops.sddmm_fast(ov, k, u.row(0),
                                                   din.row(0), sout.data(),
                                                   0, nnz);
                                }));
                push("gspmm_ai_x4", k,
                     timeKernel(w.name, "gspmm_ai_x4", tn, k,
                                4.0 * mac_flops, [&] {
                                    ops.gspmm_ai(ov, k, 4, din.row(0),
                                                 dout.row(0), 0, nnz);
                                }));
            }
        }
        for (const Row& r : rows_out) {
            std::vector<std::string> cols_out = {w.name, r.kernel,
                                                 std::to_string(r.k)};
            double scalar_gf = 0, best_gf = 0;
            for (const Cell& c : r.per_tier) {
                cols_out.push_back(Table::num(c.gflops, 2));
                if (c.tier == "scalar")
                    scalar_gf = c.gflops;
                best_gf = std::max(best_gf, c.gflops);
                cells.push_back(c);
            }
            const double speedup =
                scalar_gf > 0 ? best_gf / scalar_gf : 0;
            cols_out.push_back(Table::num(speedup, 2) + "x");
            table.addRow(cols_out);
            if (speedup > 0) {
                if (r.kernel == "spmm_csr_fast" && r.k == 32)
                    spmm_fast_k32.add(speedup);
                for (const Cell& c : r.per_tier)
                    if (c.tier != "scalar" && scalar_gf > 0)
                        tier_geo[c.tier].add(c.gflops / scalar_gf);
            }
        }
    }
    table.print(std::cout);
    std::printf("(best/scalar compares the fastest tier against the "
                "genuinely-scalar tier table)\n");
    std::map<std::string, double> tier_geomeans;
    tier_geomeans["scalar"] = 1.0;
    for (auto& [tier, g] : tier_geo) {
        tier_geomeans[tier] = g.value();
        std::printf("geomean %s vs scalar (all kernels/K): %.2fx\n",
                    tier.c_str(), g.value());
    }
    const double spmm32 =
        spmm_fast_k32.count() ? spmm_fast_k32.value() : 0.0;
    if (hk::supportedTiers().size() > 1)
        std::printf("geomean fast CSR SpMM @ K=32 vs scalar: %.2fx\n",
                    spmm32);

    writeJson(out_path, cells, bench::smokeMode(), spmm32, tier_geomeans);
    std::printf("wrote %s\n", out_path.c_str());

    if (!check_path.empty())
        return checkAgainstBaseline(cells, check_path, tolerance,
                                    min_spmm_speedup, spmm32);
    return 0;
}
