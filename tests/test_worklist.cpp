/** @file Tests for the per-worker-type work lists (format generation). */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "sim/segment_cache.hpp"
#include "sim/simulator.hpp"
#include "sim/worklist.hpp"
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
    TileGrid g(m, 32, 32);
    std::vector<size_t> ids = allTiles(g);

    WorkListCache cache;
    const UntiledWork& a = cache.untiled(g, ids);
    const UntiledWork& b = cache.untiled(g, ids);
    EXPECT_EQ(&a, &b);  // same published instance, not a rebuild
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(a.total_nnz, m.nnz());

    // Different kind or different tile set -> separate entries.
    const TiledWork& t = cache.tiled(g, ids);
    EXPECT_EQ(t.total_nnz, m.nnz());
    std::vector<size_t> subset(ids.begin(), ids.begin() + ids.size() / 2);
    const UntiledWork& c = cache.untiled(g, subset);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(cache.hits(), 1u);

    // Cached results are bit-identical to a direct build.
    UntiledWork direct = buildUntiledWork(g, subset);
    ASSERT_EQ(c.panels.size(), direct.panels.size());
    for (size_t p = 0; p < c.panels.size(); ++p) {
        EXPECT_EQ(c.panels[p].row_ptr, direct.panels[p].row_ptr);
        EXPECT_EQ(c.panels[p].cols, direct.panels[p].cols);
        EXPECT_EQ(c.panels[p].vals, direct.panels[p].vals);
    }
}

TEST(SegmentBuildCache, BuildsOncePerTileSet)
{
    WorkListCache cache;
    SegmentBuildCache& segs = cache.segments();
    int cold_builds = 0;
    std::vector<size_t> ids{0, 1, 2};

    auto build = [&] {
        ++cold_builds;
        ColdClassBuild cb;
        cb.shares = {{0, 1}, {2}};
        cb.builds.resize(2);
        cb.builds[0].nnz = 7;
        return cb;
    };
    const ColdClassBuild& a = segs.cold(ids, build);
    const ColdClassBuild& b = segs.cold(ids, build);
    EXPECT_EQ(&a, &b);  // same published instance, not a rebuild
    EXPECT_EQ(cold_builds, 1);
    EXPECT_EQ(segs.hits(), 1u);
    EXPECT_EQ(a.builds[0].nnz, 7u);

    // A different tile set (and the hot-class map) are separate entries.
    const ColdClassBuild& c = segs.cold({0, 1}, build);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(cold_builds, 2);
    segs.hot(ids, [] {
        HotClassBuild hb;
        hb.shares = {{0}};
        hb.builds.resize(1);
        return hb;
    });
    EXPECT_EQ(segs.hits(), 1u);
}

TEST(SegmentBuildCache, SimulationStatsMatchUncachedRun)
{
    // The segment builds served from the cache must produce the exact
    // simulation the per-run local builds produce, for every strategy
    // shape (all-cold, all-hot, mixed) sharing one cache.
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
        SimConfig cached_cfg;
        cached_cfg.work_cache = &cache;
        SimStats cached = simulateExecution(arch, g, is_hot, false, kernel,
                                            cached_cfg)
                              .stats;
        // Run the cached config twice so the second run is served
        // entirely from published builds.
        SimStats warm = simulateExecution(arch, g, is_hot, false, kernel,
                                          cached_cfg)
                            .stats;
        SimStats local = simulateExecution(arch, g, is_hot, false, kernel,
                                           SimConfig{})
                             .stats;
        for (const SimStats* s : {&cached, &warm}) {
            EXPECT_EQ(s->cycles, local.cycles);
            EXPECT_EQ(s->cold_finish, local.cold_finish);
            EXPECT_EQ(s->hot_finish, local.hot_finish);
            EXPECT_EQ(s->cold_cache_hits, local.cold_cache_hits);
            EXPECT_EQ(s->cold_cache_misses, local.cold_cache_misses);
            EXPECT_EQ(s->events_processed, local.events_processed);
            EXPECT_EQ(s->batched_events, local.batched_events);
        }
    }
    EXPECT_GT(cache.segments().hits(), 0u);
}
