/** @file Tests for the per-worker-type work lists (format generation). */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "common/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/work_cache.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

using namespace hottiles;

namespace {

std::vector<size_t>
allTiles(const TileGrid& g)
{
    std::vector<size_t> ids(g.numTiles());
    std::iota(ids.begin(), ids.end(), size_t(0));
    return ids;
}

/**
 * Each panel of @p w must be its rows' slice of the CSR that
 * CsrMatrix::fromCoo (a comparison sort) builds from the tiles @p ids,
 * rebased to the panel's first nonzero; panels ascend and cover every
 * nonzero once.
 */
void
expectPanelsAreCsr(const TileGrid& g, const std::vector<size_t>& ids,
                   const UntiledWork& w)
{
    CooMatrix sub(g.matrixRows(), g.matrixCols());
    for (size_t id : ids)
        for (size_t i = 0; i < g.tile(id).nnz; ++i)
            sub.push(g.tileRows(id)[i], g.tileCols(id)[i], g.tileVals(id)[i]);
    const CsrMatrix ref = CsrMatrix::fromCoo(sub);
    size_t covered = 0;
    for (size_t p = 0; p < w.panels.size(); ++p) {
        const PanelWork& pw = w.panels[p];
        ASSERT_TRUE(p == 0 || pw.panel > w.panels[p - 1].panel);
        const Index row0 = pw.panel * g.tileHeight();
        ASSERT_EQ(pw.row_ptr.size() - 1,
                  std::min(g.tileHeight(), g.matrixRows() - row0));
        const size_t b = ref.rowBegin(row0);
        for (size_t r = 0; r < pw.row_ptr.size(); ++r)
            EXPECT_EQ(pw.row_ptr[r], ref.rowPtr()[row0 + r] - b);
        EXPECT_TRUE(std::equal(pw.cols.begin(), pw.cols.end(),
                               ref.colIds().begin() + b));
        EXPECT_TRUE(std::equal(pw.vals.begin(), pw.vals.end(),
                               ref.values().begin() + b));
        covered += pw.cols.size();
    }
    EXPECT_EQ(covered, ref.nnz());
    EXPECT_EQ(w.total_nnz, ref.nnz());
}

} // namespace

TEST(Worklist, UntiledCoversAllNonzerosRowMajor)
{
    CooMatrix m = genRmat(256, 3000, 0.57, 0.19, 0.19, 0.05, 31);
    TileGrid g(m, 64, 64);
    UntiledWork w = buildUntiledWork(g, allTiles(g));
    EXPECT_EQ(w.total_nnz, m.nnz());
    expectPanelsAreCsr(g, allTiles(g), w);
}

TEST(Worklist, UntiledMergesTilesOfAPanel)
{
    // Two tiles in the same panel must merge into one sorted panel.
    CooMatrix m(8, 8);
    m.push(1, 6, 1);  // tile (0,1)
    m.push(1, 2, 2);  // tile (0,0)
    m.push(0, 5, 3);  // tile (0,1)
    TileGrid g(m, 4, 4);
    UntiledWork w = buildUntiledWork(g, allTiles(g));
    ASSERT_EQ(w.panels.size(), 1u);
    const PanelWork& pw = w.panels[0];
    // Row 0 holds column 5; row 1 holds columns 2 then 6; rows 2-3 are
    // empty.
    EXPECT_EQ(pw.row_ptr, (std::vector<size_t>{0, 1, 3, 3, 3}));
    EXPECT_EQ(pw.cols, (std::vector<Index>{5, 2, 6}));
    EXPECT_FLOAT_EQ(pw.vals[1], 2.0f);
}

TEST(Worklist, UntiledPanelEdgeCases)
{
    // 8-row panels over 21 rows: the last panel has 5 rows.  Panel 0
    // has empty leading (0-1), middle (3) and trailing (5-7) rows and a
    // 150-nonzero row spanning three tile columns; panel 1 holds one
    // nonzero in its last tile column.
    CooMatrix m(21, 300);
    for (Index c : {5u, 70u, 200u})
        m.push(2, c, Value(c));
    for (Index c = 0; c < 150; ++c)
        m.push(4, c, Value(c) + 0.5f);
    m.push(9, 299, 9);
    m.push(16, 3, 16);
    m.push(20, 10, 20);
    m.push(20, 290, 21);
    TileGrid g(m, 8, 64);
    const std::vector<size_t> ids = allTiles(g);
    UntiledWork w = buildUntiledWork(g, ids);
    expectPanelsAreCsr(g, ids, w);
    ASSERT_EQ(w.panels.size(), 3u);
    EXPECT_EQ(w.panels[0].row_ptr,
              (std::vector<size_t>{0, 0, 0, 3, 3, 153, 153, 153, 153}));
    EXPECT_EQ(w.panels[2].row_ptr, (std::vector<size_t>{0, 1, 1, 1, 1, 3}));

    // A subset that leaves panel 1 out and splits panel 0's long row.
    std::vector<size_t> subset;
    for (size_t id : ids)
        if (g.tile(id).panel != 1 && g.tile(id).tcol != 1)
            subset.push_back(id);
    UntiledWork ws = buildUntiledWork(g, subset);
    expectPanelsAreCsr(g, subset, ws);
    ASSERT_EQ(ws.panels.size(), 2u);
    EXPECT_EQ(ws.panels[1].panel, 2u);
}

TEST(Worklist, UntiledSubsetSelectsOnlyGivenTiles)
{
    CooMatrix m = genUniform(128, 128, 1000, 32);
    TileGrid g(m, 32, 32);
    // Take every other tile.
    std::vector<size_t> subset;
    for (size_t i = 0; i < g.numTiles(); i += 2)
        subset.push_back(i);
    expectPanelsAreCsr(g, subset, buildUntiledWork(g, subset));
}

TEST(Worklist, TiledGroupsByPanelInOrder)
{
    CooMatrix m = genRmat(256, 3000, 0.57, 0.19, 0.19, 0.05, 33);
    TileGrid g(m, 64, 64);
    TiledWork w = buildTiledWork(g, allTiles(g));
    EXPECT_EQ(w.total_nnz, m.nnz());
    ASSERT_EQ(w.panel_ids.size(), w.panel_tiles.size());
    for (size_t p = 0; p < w.panel_tiles.size(); ++p) {
        ASSERT_FALSE(w.panel_tiles[p].empty());
        if (p > 0) {
            ASSERT_GT(w.panel_ids[p], w.panel_ids[p - 1]);
        }
        for (size_t k = 0; k < w.panel_tiles[p].size(); ++k) {
            const Tile& t = g.tile(w.panel_tiles[p][k]);
            ASSERT_EQ(t.panel, w.panel_ids[p]);
            if (k > 0) {
                ASSERT_GT(t.tcol,
                          g.tile(w.panel_tiles[p][k - 1]).tcol);
            }
        }
    }
}

TEST(Worklist, EmptySelection)
{
    CooMatrix m = genUniform(64, 64, 200, 34);
    TileGrid g(m, 32, 32);
    UntiledWork u = buildUntiledWork(g, {});
    TiledWork t = buildTiledWork(g, {});
    EXPECT_TRUE(u.panels.empty());
    EXPECT_EQ(u.total_nnz, 0u);
    EXPECT_TRUE(t.panel_tiles.empty());
}

TEST(Worklist, DisjointSubsetsPartitionNnz)
{
    CooMatrix m = genCommunity(512, 20.0, 32, 64, 0.7, 35);
    TileGrid g(m, 64, 64);
    std::vector<size_t> odd;
    std::vector<size_t> even;
    for (size_t i = 0; i < g.numTiles(); ++i)
        (i % 2 ? odd : even).push_back(i);
    UntiledWork wo = buildUntiledWork(g, odd);
    TiledWork we = buildTiledWork(g, even);
    EXPECT_EQ(wo.total_nnz + we.total_nnz, m.nnz());
}

namespace {

/** The O(n * count) reference version of the LPT assignment the
 *  min-heap implementation must reproduce exactly (lowest-index worker
 *  wins ties). */
std::vector<std::vector<size_t>>
balancedSharesReference(const std::vector<uint64_t>& loads, uint32_t count)
{
    std::vector<size_t> order(loads.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return loads[a] > loads[b];
    });
    std::vector<uint64_t> totals(count, 0);
    std::vector<std::vector<size_t>> shares(count);
    for (size_t pos : order) {
        size_t best = 0;
        for (size_t w = 1; w < count; ++w)
            if (totals[w] < totals[best])
                best = w;
        totals[best] += loads[pos];
        shares[best].push_back(pos);
    }
    for (auto& s : shares)
        std::sort(s.begin(), s.end());
    return shares;
}

} // namespace

TEST(BalancedShares, MatchesLinearScanReference)
{
    uint64_t lcg = 99;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    for (uint32_t count : {1u, 2u, 3u, 7u, 16u, 64u}) {
        for (size_t n : {size_t(0), size_t(1), size_t(5), size_t(200)}) {
            std::vector<uint64_t> loads(n);
            for (auto& l : loads)
                l = next() % 50;  // small range forces many ties
            EXPECT_EQ(balancedShares(loads, count),
                      balancedSharesReference(loads, count))
                << "count=" << count << " n=" << n;
        }
    }
}

TEST(BalancedShares, CoversEveryItemOnce)
{
    std::vector<uint64_t> loads{9, 1, 1, 1, 9, 4, 4};
    auto shares = balancedShares(loads, 3);
    ASSERT_EQ(shares.size(), 3u);
    std::vector<int> seen(loads.size(), 0);
    for (const auto& s : shares)
        for (size_t pos : s) {
            ASSERT_LT(pos, loads.size());
            ++seen[pos];
        }
    for (int c : seen)
        EXPECT_EQ(c, 1);
}

TEST(WorkListCache, BuildsOnceAndCountsHits)
{
    CooMatrix m = genUniform(128, 128, 1000, 36);
    Architecture arch = makeSpadeSextans(4);
    TileGrid g(m, 32, 32);
    KernelConfig kernel;
    std::vector<size_t> ids = allTiles(g);

    WorkListCache cache;
    const ColdClassBuild& a = cache.cold(arch, g, kernel, ids);
    const ColdClassBuild& b = cache.cold(arch, g, kernel, ids);
    EXPECT_EQ(&a, &b);  // same published instance, not a rebuild
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(a.work.total_nnz, m.nnz());
    ASSERT_EQ(a.shares.size(), arch.cold.count);
    uint64_t seg_nnz = 0;
    for (const DemandBuild& d : a.builds)
        seg_nnz += d.nnz;
    EXPECT_EQ(seg_nnz, m.nnz());  // the entry holds the segment builds

    // The other class or another tile set -> separate entries; an empty
    // tile set has no shares.
    const HotClassBuild& t = cache.hot(arch, g, kernel, ids);
    EXPECT_EQ(t.work.total_nnz, m.nnz());
    ASSERT_EQ(t.shares.size(), arch.hot.count);
    EXPECT_TRUE(cache.cold(arch, g, kernel, {}).shares.empty());
    std::vector<size_t> subset(ids.begin(), ids.begin() + ids.size() / 2);
    const ColdClassBuild& c = cache.cold(arch, g, kernel, subset);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(cache.hits(), 1u);

    // Cached results are bit-identical to a direct build.
    UntiledWork direct = buildUntiledWork(g, subset);
    ASSERT_EQ(c.work.panels.size(), direct.panels.size());
    for (size_t p = 0; p < c.work.panels.size(); ++p) {
        EXPECT_EQ(c.work.panels[p].row_ptr, direct.panels[p].row_ptr);
        EXPECT_EQ(c.work.panels[p].cols, direct.panels[p].cols);
        EXPECT_EQ(c.work.panels[p].vals, direct.panels[p].vals);
    }
}

TEST(WorkListCache, ConcurrentRequestsBuildOnce)
{
    CooMatrix m = genRmat(512, 8000, 0.57, 0.19, 0.19, 0.05, 78);
    Architecture arch = makeSpadeSextans(4);
    TileGrid g(m, 64, 64);
    KernelConfig kernel;
    const std::vector<size_t> ids = allTiles(g);
    const TimerMetric& untiled =
        MetricsRegistry::global().timer("format.untiled_build");
    const uint64_t builds0 = untiled.snapshot().count();

    WorkListCache cache;
    constexpr size_t kThreads = 8;
    std::vector<const ColdClassBuild*> got(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { got[t] = &cache.cold(arch, g, kernel, ids); });
    for (std::thread& th : threads)
        th.join();
    EXPECT_EQ(untiled.snapshot().count() - builds0, 1u);
    for (const ColdClassBuild* p : got)
        EXPECT_EQ(p, got[0]);  // one published entry
    EXPECT_EQ(cache.hits(), kThreads - 1);
    EXPECT_EQ(got[0]->work.total_nnz, m.nnz());
}

namespace {

void
expectSameStats(const SimStats& a, const SimStats& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cold_finish, b.cold_finish);
    EXPECT_EQ(a.hot_finish, b.hot_finish);
    EXPECT_EQ(a.cold_cache_hits, b.cold_cache_hits);
    EXPECT_EQ(a.cold_cache_misses, b.cold_cache_misses);
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.batched_events, b.batched_events);
}

} // namespace

TEST(WorkListCache, OneTileSetBuildsOnceAcrossSimulations)
{
    // An all-cold HotTiles plan (del's is MinTime Serial with 0% hot
    // tiles) and ColdOnly ask one memo for the same classes: the second
    // simulation builds neither work list nor segments.
    CooMatrix m = genRmat(256, 4000, 0.57, 0.19, 0.19, 0.05, 79);
    Architecture arch = makeSpadeSextans(4);
    TileGrid g(m, arch.tile_height, arch.tile_width);
    KernelConfig kernel;
    MetricsRegistry& reg = MetricsRegistry::global();
    auto builds = [&] {
        return reg.timer("format.untiled_build").snapshot().count() +
               reg.timer("format.tiled_build").snapshot().count();
    };
    const uint64_t builds0 = builds();

    WorkListCache cache;
    SimConfig cfg;
    cfg.work_cache = &cache;
    const std::vector<uint8_t> all_cold(g.numTiles(), 0);
    const SimStats plan =
        simulateExecution(arch, g, all_cold, /*serial=*/true, kernel, cfg)
            .stats;
    EXPECT_EQ(builds() - builds0, 2u);  // the cold and the empty hot class
    EXPECT_EQ(cache.hits(), 0u);
    const SimStats cold_only =
        simulateHomogeneous(arch, g, /*hot=*/false, kernel, cfg).stats;
    EXPECT_EQ(builds() - builds0, 2u);
    EXPECT_EQ(cache.hits(), 2u);

    expectSameStats(plan, cold_only);
    expectSameStats(cold_only,
                    simulateHomogeneous(arch, g, /*hot=*/false, kernel).stats);
}

TEST(WorkListCache, SimulationStatsMatchPrivateMemo)
{
    // Builds served from a shared memo must produce the exact
    // simulation that a private memo produces, for every strategy shape
    // (all-cold, all-hot, mixed) sharing one memo.
    CooMatrix m = genRmat(256, 4000, 0.57, 0.19, 0.19, 0.05, 77);
    Architecture arch = makeSpadeSextans(4);
    TileGrid g(m, arch.tile_height, arch.tile_width);
    KernelConfig kernel;

    std::vector<std::vector<uint8_t>> plans;
    plans.emplace_back(g.numTiles(), uint8_t(0));
    plans.emplace_back(g.numTiles(), uint8_t(1));
    std::vector<uint8_t> mixed(g.numTiles(), 0);
    for (size_t i = 0; i < mixed.size(); i += 2)
        mixed[i] = 1;
    plans.push_back(std::move(mixed));

    WorkListCache cache;
    for (const auto& is_hot : plans) {
        SimConfig shared_cfg;
        shared_cfg.work_cache = &cache;
        SimStats shared = simulateExecution(arch, g, is_hot, false, kernel,
                                            shared_cfg)
                              .stats;
        // Run the shared config twice so the second run is served
        // entirely from published builds.
        SimStats warm = simulateExecution(arch, g, is_hot, false, kernel,
                                          shared_cfg)
                            .stats;
        SimStats own =
            simulateExecution(arch, g, is_hot, false, kernel).stats;
        expectSameStats(shared, own);
        expectSameStats(warm, own);
    }
    EXPECT_GT(cache.hits(), 0u);
}
