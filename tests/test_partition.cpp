/** @file Tests for the partition context, assignment totals, the §IV-C
 *  readjustment, and the Fig 8 predicted-runtime formulas. */

#include <gtest/gtest.h>

#include <set>

#include "model/time_model.hpp"
#include "partition/partition.hpp"
#include "partition/predicted_runtime.hpp"
#include "sparse/generators.hpp"

using namespace hottiles;

namespace {

WorkerTraits
hotTraits()
{
    WorkerTraits w;
    w.name = "hot";
    w.role = WorkerRole::Hot;
    w.count = 2;
    w.macs_per_cycle = 8.0;
    w.din_reuse = ReuseType::IntraTileStream;
    w.dout_reuse = ReuseType::IntraTileDemand;
    w.traversal = TraversalOrder::TiledRowMajor;
    w.vis_lat = 0.01;
    return w;
}

WorkerTraits
coldTraits()
{
    WorkerTraits w;
    w.name = "cold";
    w.role = WorkerRole::Cold;
    w.count = 4;
    w.macs_per_cycle = 1.0;
    w.din_reuse = ReuseType::None;
    w.dout_reuse = ReuseType::IntraTileDemand;
    w.traversal = TraversalOrder::UntiledRowMajor;
    w.vis_lat = 0.05;
    return w;
}

struct Fixture
{
    CooMatrix m = genRmat(512, 8000, 0.57, 0.19, 0.19, 0.05, 77);
    TileGrid grid{m, 64, 64};
    WorkerTraits hot = hotTraits();
    WorkerTraits cold = coldTraits();
    KernelConfig kernel;
    PartitionContext ctx = makePartitionContext(grid, hot, cold, kernel,
                                                256.0, 1000.0, false);
};

} // namespace

TEST(PartitionContext, EstimatesMatchModel)
{
    Fixture f;
    ASSERT_EQ(f.ctx.estimates.size(), f.grid.numTiles());
    for (size_t i = 0; i < f.grid.numTiles(); ++i) {
        const Tile& t = f.grid.tile(i);
        const TileEstimate& e = f.ctx.estimates[i];
        EXPECT_DOUBLE_EQ(e.bh, tileTotalBytes(t, f.hot, f.kernel));
        EXPECT_DOUBLE_EQ(e.bc, tileTotalBytes(t, f.cold, f.kernel));
        EXPECT_DOUBLE_EQ(e.th, tileTime(t, f.hot, f.kernel).total);
        EXPECT_DOUBLE_EQ(e.tc, tileTime(t, f.cold, f.kernel).total);
        EXPECT_GT(e.th, 0.0);
        EXPECT_GT(e.tc, 0.0);
    }
}

TEST(PartitionContext, AtomicForcesZeroMerge)
{
    Fixture f;
    PartitionContext ctx = makePartitionContext(
        f.grid, f.hot, f.cold, f.kernel, 256.0, 1234.0, /*atomic=*/true);
    EXPECT_DOUBLE_EQ(ctx.t_merge_cycles, 0.0);
    EXPECT_TRUE(ctx.atomic_rmw);
}

TEST(PartitionContext, MisroledTraitsDie)
{
    Fixture f;
    EXPECT_DEATH(makePartitionContext(f.grid, f.cold, f.cold, f.kernel,
                                      256.0, 0.0, false),
                 "hot");
}

TEST(Partition, HelpersPartitionTiles)
{
    Fixture f;
    Partition p;
    p.is_hot.assign(f.grid.numTiles(), 0);
    for (size_t i = 0; i < p.is_hot.size(); i += 3)
        p.is_hot[i] = 1;
    auto hot = p.hotTiles();
    auto cold = p.coldTiles();
    EXPECT_EQ(hot.size() + cold.size(), f.grid.numTiles());
    for (size_t id : hot)
        EXPECT_TRUE(p.is_hot[id]);
    for (size_t id : cold)
        EXPECT_FALSE(p.is_hot[id]);
    EXPECT_NEAR(p.hotTileFraction(),
                double(hot.size()) / f.grid.numTiles(), 1e-12);
    double frac = p.hotNnzFraction(f.grid);
    EXPECT_GT(frac, 0.0);
    EXPECT_LT(frac, 1.0);
}

TEST(Totals, RawTotalsAreSimpleSums)
{
    Fixture f;
    std::vector<uint8_t> all_hot(f.grid.numTiles(), 1);
    AssignmentTotals t = assignmentTotals(f.ctx, all_hot, /*readjust=*/false);
    double sum_th = 0;
    double sum_bh = 0;
    for (const auto& e : f.ctx.estimates) {
        sum_th += e.th;
        sum_bh += e.bh;
    }
    EXPECT_NEAR(t.th_total, sum_th / f.hot.count, 1e-6);
    EXPECT_NEAR(t.bh_total, sum_bh, 1e-6);
    EXPECT_DOUBLE_EQ(t.tc_total, 0.0);
    EXPECT_DOUBLE_EQ(t.bc_total, 0.0);
}

TEST(Totals, HotShareSplitsPredictedTime)
{
    AssignmentTotals t;
    EXPECT_EQ(t.hotShare(), 0.0);  // no work, no share (never NaN)
    t.th_total = 3;
    t.tc_total = 1;
    EXPECT_DOUBLE_EQ(t.hotShare(), 0.75);
    t.tc_total = 0;
    EXPECT_DOUBLE_EQ(t.hotShare(), 1.0);
}

TEST(Totals, DemandDoutNeedsNoReadjustment)
{
    // Both fixture workers use demand Dout: readjusted == raw.
    Fixture f;
    std::vector<uint8_t> mixed(f.grid.numTiles(), 0);
    for (size_t i = 0; i < mixed.size(); i += 2)
        mixed[i] = 1;
    AssignmentTotals raw = assignmentTotals(f.ctx, mixed, false);
    AssignmentTotals adj = assignmentTotals(f.ctx, mixed, true);
    EXPECT_DOUBLE_EQ(raw.bh_total, adj.bh_total);
    EXPECT_DOUBLE_EQ(raw.bc_total, adj.bc_total);
}

TEST(Totals, InterTileReadjustmentChargesPanels)
{
    // A tiled-traversal hot worker with Dout inter-tile reuse: the first
    // hot tile of each panel is charged a full panel stream (2 x height
    // x row bytes).
    Fixture f;
    WorkerTraits hot = f.hot;
    hot.dout_reuse = ReuseType::InterTile;
    PartitionContext ctx = makePartitionContext(f.grid, hot, f.cold,
                                                f.kernel, 256.0, 0.0, false);
    std::vector<uint8_t> all_hot(f.grid.numTiles(), 1);
    AssignmentTotals raw = assignmentTotals(ctx, all_hot, false);
    AssignmentTotals adj = assignmentTotals(ctx, all_hot, true);

    double row_bytes = denseRowBytes(hot, f.kernel);
    double expected_extra = 0;
    for (Index p = 0; p < f.grid.numPanels(); ++p) {
        auto [first, last] = f.grid.panelTiles(p);
        if (first < last)
            expected_extra += 2.0 * row_bytes * f.grid.tile(first).height;
    }
    EXPECT_NEAR(adj.bh_total - raw.bh_total, expected_extra, 1e-6);
    // Time can only grow (for fully-overlapped workers the Dout task may
    // stay under the dominating stream task, leaving it unchanged).
    EXPECT_GE(adj.th_total, raw.th_total);
}

TEST(Totals, UntiledReadjustmentCountsUniquePanelRows)
{
    // An untiled cold worker with inter-tile Dout reuse: the panel's
    // unique row ids are charged exactly once across its tiles.
    Fixture f;
    WorkerTraits cold = f.cold;
    cold.dout_reuse = ReuseType::InterTile;
    PartitionContext ctx = makePartitionContext(f.grid, f.hot, cold,
                                                f.kernel, 256.0, 0.0, false);
    std::vector<uint8_t> all_cold(f.grid.numTiles(), 0);
    AssignmentTotals raw = assignmentTotals(ctx, all_cold, false);
    AssignmentTotals adj = assignmentTotals(ctx, all_cold, true);

    // Count unique (panel, row) pairs by brute force.
    double uniq = 0;
    for (Index p = 0; p < f.grid.numPanels(); ++p) {
        auto [first, last] = f.grid.panelTiles(p);
        std::set<Index> rows;
        for (size_t t = first; t < last; ++t)
            for (Index r : f.grid.tileRows(t))
                rows.insert(r);
        uniq += double(rows.size());
    }
    double row_bytes = denseRowBytes(cold, f.kernel);
    EXPECT_NEAR(adj.bc_total - raw.bc_total, 2.0 * row_bytes * uniq, 1e-6);
}

TEST(Predicted, ParallelFormula)
{
    Fixture f;
    AssignmentTotals t;
    t.th_total = 100;
    t.tc_total = 300;
    t.bh_total = 1000;
    t.bc_total = 2000;
    // max(max(100, 300), 3000/256) + 1000 = 300 + 1000.
    EXPECT_DOUBLE_EQ(predictedParallelCycles(f.ctx, t), 1300.0);
    // Bandwidth-bound case.
    t.bh_total = 500000;
    EXPECT_DOUBLE_EQ(predictedParallelCycles(f.ctx, t),
                     502000.0 / 256.0 + 1000.0);
}

TEST(Predicted, SerialFormula)
{
    Fixture f;
    AssignmentTotals t;
    t.th_total = 100;
    t.tc_total = 300;
    t.bh_total = 1000;
    t.bc_total = 200000;
    // max(100, 1000/256) + max(300, 200000/256) = 100 + 781.25.
    EXPECT_DOUBLE_EQ(predictedSerialCycles(f.ctx, t), 100.0 + 781.25);
}

TEST(Predicted, HomogeneousHasNoMergeCost)
{
    Fixture f;
    std::vector<uint8_t> all_cold(f.grid.numTiles(), 0);
    AssignmentTotals t = assignmentTotals(f.ctx, all_cold);
    double expected = std::max(t.tc_total, t.bc_total / 256.0);
    EXPECT_DOUBLE_EQ(predictedHomogeneousCycles(f.ctx, false), expected);
}

TEST(Predicted, SizeMismatchDies)
{
    Fixture f;
    std::vector<uint8_t> wrong(3, 0);
    EXPECT_DEATH(assignmentTotals(f.ctx, wrong), "mismatch");
}
