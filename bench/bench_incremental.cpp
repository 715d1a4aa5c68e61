/**
 * @file
 * Incremental-update harness (docs/INCREMENTAL.md): applies small
 * DeltaBatches to preprocessed RMAT matrices and measures
 * HotTiles::applyDelta against a full from-scratch re-preprocessing of
 * the patched matrix, emitting BENCH_incremental.json.
 *
 * Per configuration: one warmup update first (the round that seeds the
 * partition sweep cache and the format build cache pays full price by
 * design), then measured rounds; update and rebuild times are medians
 * across rounds.  Every measured round checks bit-identity of the full
 * preprocessed state (grid, partition, both formats) against the
 * rebuild, and one round per configuration additionally memcmps the
 * reference SpMM output.
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE   JSON output path (default BENCH_incremental.json)
 *   --check      self-check gates, exit 1 on violation: every round of
 *                every configuration must be bit-identical, and every
 *                configuration whose delta dirties <= 1% of the tiles
 *                must update >= 5x faster than the full rebuild (at
 *                least one configuration must be in that regime).
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
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

struct Row
{
    std::string matrix;
    Index rows = 0;
    size_t nnz = 0;
    size_t tiles = 0;
    size_t delta_ops = 0;
    size_t dirty_tiles = 0;     //!< median across measured rounds
    double dirty_tile_frac = 0; //!< worst (max) across measured rounds
    size_t migrated = 0;        //!< median across measured rounds
    double update_ms = 0;       //!< median across measured rounds
    double rebuild_ms = 0;      //!< median across measured rounds
    double speedup = 0;
    bool identical = true;
};

double
median(std::vector<double> v)
{
    HT_ASSERT(!v.empty(), "median of nothing");
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** RMAT skew matching the common graph-benchmark setting. */
CooMatrix
benchMatrix(const Config& c, uint64_t seed)
{
    return genRmat(c.rows, c.nnz, 0.57, 0.19, 0.19, 0.05, seed);
}

Row
runConfig(const Config& c, const Architecture& arch, unsigned rounds)
{
    HotTilesOptions opts;
    CooMatrix m = benchMatrix(c, /*seed=*/7);
    HotTiles ht(arch, m, opts);

    DenseMatrix din(m.cols(), opts.kernel.k);
    Rng rng(99);
    din.fillRandom(rng);

    Row r;
    r.matrix = c.name;
    r.rows = c.rows;
    r.nnz = m.nnz();
    r.tiles = ht.grid().numTiles();
    r.delta_ops = c.inserts + c.deletes;

    // Warmup round: seeds the sweep/format caches at full cost; the
    // steady state an update stream actually lives in starts after it.
    uint64_t delta_seed = 1000;
    {
        DeltaBatch warm = genDeltaBatch(m, c.inserts, c.deletes, delta_seed);
        ht.applyDelta(warm);
        m = applyDeltaToCoo(m, warm);
        ++delta_seed;
    }

    std::vector<double> update_ms, rebuild_ms, dirty, migrated;
    for (unsigned round = 0; round < rounds; ++round, ++delta_seed) {
        DeltaBatch batch =
            genDeltaBatch(m, c.inserts, c.deletes, delta_seed);
        double t0 = monotonicSeconds();
        DeltaUpdateStats st = ht.applyDelta(batch);
        update_ms.push_back((monotonicSeconds() - t0) * 1e3);

        m = applyDeltaToCoo(m, batch);
        t0 = monotonicSeconds();
        HotTiles fresh(arch, m, opts);
        rebuild_ms.push_back((monotonicSeconds() - t0) * 1e3);

        dirty.push_back(double(st.dirty_tiles));
        migrated.push_back(double(st.migrated_tiles));
        r.dirty_tile_frac =
            std::max(r.dirty_tile_frac,
                     double(st.dirty_tiles) / double(ht.grid().numTiles()));

        bool identical = samePreprocessedState(ht, fresh);
        if (identical && round == 0) {
            // State bit-identity already implies identical SpMM output;
            // execute both once per configuration as belt and braces.
            DenseMatrix a = exec::referenceExecute(ht.grid(), ht.partition(),
                                                   opts.kernel, din);
            DenseMatrix b = exec::referenceExecute(
                fresh.grid(), fresh.partition(), opts.kernel, din);
            identical = a.data().size() == b.data().size() &&
                        std::memcmp(a.data().data(), b.data().data(),
                                    a.data().size() * sizeof(Value)) == 0;
        }
        r.identical = r.identical && identical;
    }
    r.dirty_tiles = size_t(median(dirty));
    r.migrated = size_t(median(migrated));
    r.update_ms = median(update_ms);
    r.rebuild_ms = median(rebuild_ms);
    r.speedup = r.update_ms > 0 ? r.rebuild_ms / r.update_ms : 0;
    return r;
}

void
writeJson(const std::string& path, const std::vector<Row>& rows, bool smoke)
{
    std::ofstream out(path);
    HT_FATAL_IF(!out, "cannot open '", path, "' for writing");
    out << "{\n"
        << "  \"schema\": \"hottiles.bench_incremental.v1\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"metrics\": ";
    MetricsRegistry::global().writeJson(out);
    out << ",\n  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << "    {\"matrix\": \"" << r.matrix
            << "\", \"rows\": " << r.rows << ", \"nnz\": " << r.nnz
            << ", \"tiles\": " << r.tiles
            << ", \"delta_ops\": " << r.delta_ops
            << ", \"dirty_tiles\": " << r.dirty_tiles
            << ", \"dirty_tile_frac\": " << r.dirty_tile_frac
            << ", \"migrated\": " << r.migrated
            << ", \"update_ms\": " << r.update_ms
            << ", \"rebuild_ms\": " << r.rebuild_ms
            << ", \"speedup\": " << r.speedup << ", \"identical\": "
            << (r.identical ? "true" : "false") << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    init(&argc, argv);
    const char* usage = "usage: bench_incremental [--smoke] [--threads N] "
                        "[--out FILE] [--check]\n"
                        "  --out FILE    JSON output path (default "
                        "BENCH_incremental.json)\n"
                        "  --check       exit 1 when an incremental "
                        "gate fails\n";
    std::string out_path = "BENCH_incremental.json";
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

    const bool smoke = smokeMode();
    banner("Incremental updates", "docs/INCREMENTAL.md",
           "applyDelta vs full re-preprocessing on an RMAT update "
           "stream (bit-identity enforced every round)");

    // Small deltas on large matrices is the regime the incremental path
    // is built for: a handful of edge updates dirties a few row panels
    // (well under 1% of the tiles) while the rebuild still pays for
    // every nonzero.  The larger-delta rows chart the crossover.
    std::vector<Config> configs;
    if (smoke) {
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
    const unsigned rounds = smoke ? 5 : 9;

    Architecture arch = calibrated(makeSpadeSextans(4));
    Table t({"Matrix", "Tiles", "Ops", "Dirty tiles", "Dirty %", "Migrated",
             "Update ms", "Rebuild ms", "Speedup", "Identical"});
    std::vector<Row> rows;
    for (const auto& c : configs) {
        Row r = runConfig(c, arch, rounds);
        t.addRow({r.matrix, std::to_string(r.tiles),
                  std::to_string(r.delta_ops), std::to_string(r.dirty_tiles),
                  Table::num(100.0 * r.dirty_tile_frac, 2),
                  std::to_string(r.migrated), Table::num(r.update_ms, 3),
                  Table::num(r.rebuild_ms, 3), Table::num(r.speedup, 2),
                  r.identical ? "yes" : "NO"});
        rows.push_back(r);
    }
    t.print(std::cout);
    writeJson(out_path, rows, smoke);
    std::cout << "\nwrote " << out_path << "\n";

    if (check) {
        std::vector<std::string> failures;
        size_t small_delta_rows = 0;
        for (const Row& r : rows) {
            if (!r.identical)
                failures.push_back(r.matrix +
                                   ": update diverged from rebuild");
            if (r.dirty_tile_frac <= 0.01) {
                ++small_delta_rows;
                if (r.speedup < 5.0)
                    failures.push_back(
                        r.matrix + ": speedup " + Table::num(r.speedup, 2) +
                        "x < 5x at dirty fraction " +
                        Table::num(100.0 * r.dirty_tile_frac, 2) + "%");
            }
        }
        if (small_delta_rows == 0)
            failures.push_back("no configuration dirtied <= 1% of tiles; "
                               "the 5x gate was never exercised");
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
