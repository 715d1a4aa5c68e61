/**
 * @file
 * Incremental-update harness (docs/INCREMENTAL.md): applies small
 * DeltaBatches to preprocessed RMAT matrices and measures
 * HotTiles::applyDelta against a full from-scratch re-preprocessing of
 * the patched matrix, emitting BENCH_incremental.json.
 *
 * Per configuration the bench runner interleaves the two: each round
 * draws one batch, patches the live state with it (update) and
 * preprocesses the patched matrix from scratch (rebuild).  The warm-up
 * round seeds the partition sweep cache and the format build cache at
 * full price by design; the speedup is the median of the per-round
 * rebuild/update ratios.  Every round checks bit-identity of the full
 * preprocessed state (grid, partition, both formats) against the
 * rebuild, and one round per configuration additionally memcmps the
 * reference SpMM output.
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE   JSON output path (default BENCH_incremental.json, or
 *                BENCH_incremental.smoke.json under --smoke)
 *   --check      self-check gates, exit 1 on violation: every round of
 *                every configuration must be bit-identical, and every
 *                configuration whose delta dirties <= 1% of the tiles
 *                must update >= 5x faster than the full rebuild (at
 *                least one configuration must be in that regime).
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "core/preprocess.hpp"
#include "exec/backend.hpp"
#include "sparse/delta.hpp"
#include "sparse/generators.hpp"

using namespace hottiles;
using namespace hottiles::bench;

namespace {

struct Config
{
    std::string name;
    Index rows = 0;
    size_t nnz = 0;
    size_t inserts = 0;
    size_t deletes = 0;
};

struct Result
{
    Row row;
    double dirty_tile_frac = 0;  //!< worst (max) across measured rounds
    double update_ms = 0;        //!< medians across measured rounds
    double rebuild_ms = 0;
    Spread speedup;
    bool identical = true;
};

Result
runConfig(const Config& c, const Architecture& arch)
{
    HotTilesOptions opts;
    // RMAT skew matching the common graph-benchmark setting.
    CooMatrix m = genRmat(c.rows, c.nnz, 0.57, 0.19, 0.19, 0.05, 7);
    HotTiles ht(arch, m, opts);
    const size_t nnz = m.nnz();
    const size_t tiles = ht.grid().numTiles();

    DenseMatrix din(m.cols(), opts.kernel.k);
    Rng rng(99);
    din.fillRandom(rng);

    Result res;
    DeltaBatch batch;
    CooMatrix next;
    std::unique_ptr<HotTiles> fresh;
    // Bit-identity of the round just run; the first measured round also
    // executes both states once as belt and braces.
    auto verify = [&](unsigned round) {
        bool identical = samePreprocessedState(ht, *fresh);
        if (identical && round == 1) {
            DenseMatrix a = exec::referenceExecute(ht.grid(), ht.partition(),
                                                   opts.kernel, din);
            DenseMatrix b = exec::referenceExecute(
                fresh->grid(), fresh->partition(), opts.kernel, din);
            identical = a.data().size() == b.data().size() &&
                        std::memcmp(a.data().data(), b.data().data(),
                                    a.data().size() * sizeof(Value)) == 0;
        }
        res.identical = res.identical && identical;
    };

    Runner runner;
    runner.add([&] {
        const double t0 = monotonicSeconds();
        const DeltaUpdateStats st = ht.applyDelta(batch);
        return Sample{{"update_ms", (monotonicSeconds() - t0) * 1e3},
                      {"dirty_tiles", double(st.dirty_tiles)},
                      {"migrated", double(st.migrated_tiles)}};
    });
    runner.add([&] {
        const double t0 = monotonicSeconds();
        fresh = std::make_unique<HotTiles>(arch, next, opts);
        return Sample{{"rebuild_ms", (monotonicSeconds() - t0) * 1e3}};
    });
    runner.run([&](unsigned r) {
        if (r > 0) {
            verify(r - 1);
            m = std::move(next);
            fresh.reset();  // not inside the next rebuild's timing
        }
        batch = genDeltaBatch(m, c.inserts, c.deletes, 1000 + r);
        next = applyDeltaToCoo(m, batch);
    });
    verify(rounds());

    for (double d : runner.samples(0, "dirty_tiles"))
        res.dirty_tile_frac = std::max(res.dirty_tile_frac, d / tiles);
    res.update_ms = runner.spread(0, "update_ms").median;
    res.rebuild_ms = runner.spread(1, "rebuild_ms").median;
    res.speedup = ratioSpread(runner.samples(1, "rebuild_ms"),
                              runner.samples(0, "update_ms"));
    res.row.put("matrix", c.name)
        .put("rows", c.rows)
        .put("nnz", nnz)
        .put("tiles", tiles)
        .put("delta_ops", c.inserts + c.deletes)
        .put(runner, 0)
        .put(runner, 1)
        .put("dirty_tile_frac", res.dirty_tile_frac)
        .put("speedup", res.speedup)
        .put("identical", res.identical);
    return res;
}

} // namespace

int
main(int argc, char** argv)
{
    init(&argc, argv);
    const char* usage = "usage: bench_incremental [--smoke] [--threads N] "
                        "[--out FILE] [--check]\n"
                        "  --out FILE    JSON output path (default "
                        "BENCH_incremental.json, "
                        "BENCH_incremental.smoke.json under --smoke)\n"
                        "  --check       exit 1 when an incremental "
                        "gate fails\n";
    std::string out_path = defaultOut("incremental");
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out")
            out_path = flagValue(argc, argv, i, usage);
        else if (a == "--check")
            check = true;
        else if (a == "--help" || a == "-h")
            exitUsage(usage);
        else
            exitUsage(usage, "unknown option '" + a + "'");
    }

    banner("Incremental updates", "docs/INCREMENTAL.md",
           "applyDelta vs full re-preprocessing on an RMAT update "
           "stream (bit-identity enforced every round)");

    // Small deltas on large matrices is the regime the incremental path
    // is built for: a handful of edge updates dirties a few row panels
    // (well under 1% of the tiles) while the rebuild still pays for
    // every nonzero.  The larger-delta rows chart the crossover.
    std::vector<Config> configs;
    if (smokeMode()) {
        configs = {
            {"rmat-15", Index(1) << 15, size_t(16) << 15, 4, 4},
            {"rmat-18", Index(1) << 18, size_t(16) << 18, 1, 1},
        };
    } else {
        configs = {
            {"rmat-15", Index(1) << 15, size_t(16) << 15, 4, 4},
            {"rmat-16", Index(1) << 16, size_t(16) << 16, 1, 1},
            {"rmat-17", Index(1) << 17, size_t(16) << 17, 1, 1},
            {"rmat-17-big", Index(1) << 17, size_t(16) << 17, 16, 16},
            {"rmat-18", Index(1) << 18, size_t(16) << 18, 1, 1},
        };
    }

    Architecture arch = calibrated(makeSpadeSextans(4));
    Table t({"Matrix", "Ops", "Dirty %", "Update ms", "Rebuild ms",
             "Speedup", "q1-q3", "Identical"});
    std::vector<Row> results;
    std::vector<std::string> failures;
    size_t small_delta_rows = 0;
    for (const auto& c : configs) {
        const Result r = runConfig(c, arch);
        t.addRow({c.name, std::to_string(c.inserts + c.deletes),
                  Table::num(100.0 * r.dirty_tile_frac, 2),
                  Table::num(r.update_ms, 3), Table::num(r.rebuild_ms, 3),
                  Table::num(r.speedup.median, 2),
                  Table::num(r.speedup.q1, 2) + "-" +
                      Table::num(r.speedup.q3, 2),
                  r.identical ? "yes" : "NO"});
        results.push_back(r.row);
        if (!r.identical)
            failures.push_back(c.name + ": update diverged from rebuild");
        if (r.dirty_tile_frac <= 0.01) {
            ++small_delta_rows;
            if (r.speedup.median < 5.0)
                failures.push_back(
                    c.name + ": speedup " + Table::num(r.speedup.median, 2) +
                    "x < 5x at dirty fraction " +
                    Table::num(100.0 * r.dirty_tile_frac, 2) + "%");
        }
    }
    if (small_delta_rows == 0)
        failures.push_back("no configuration dirtied <= 1% of tiles; "
                           "the 5x gate was never exercised");
    t.print(std::cout);
    std::cout << "(speedup: median of " << rounds()
              << " interleaved rebuild/update ratios)\n";
    writeReport(out_path, "incremental", {}, results);
    std::cout << "\nwrote " << out_path << "\n";

    if (check) {
        if (!failures.empty()) {
            for (const auto& f : failures)
                std::cerr << "CHECK FAILED: " << f << "\n";
            return 1;
        }
        std::cout << "all checks passed: bit-identical everywhere, >= 5x "
                     "for <= 1%-dirty deltas\n";
    }
    return 0;
}
