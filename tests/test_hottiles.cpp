/** @file Tests for the HotTiles pipeline front end (Fig 7) and the
 *  architecture calibration glue. */

#include <gtest/gtest.h>

#include <thread>
#include <utility>

#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "sparse/generators.hpp"

using namespace hottiles;

TEST(Calibrate, SetsPositiveVisLatAndCaches)
{
    Architecture arch = makeSpadeSextans(4);
    ArchCalibration c1 = calibrateArchitecture(arch);
    EXPECT_GT(arch.hot.vis_lat, 0.0);
    EXPECT_GT(arch.cold.vis_lat, 0.0);
    EXPECT_LT(c1.hot_error, 0.5);
    // ColdOnly carries the larger model error because the simulator's L1
    // reuse is deliberately absent from the model (§IV-C / Fig 17).
    EXPECT_LT(c1.cold_error, 0.8);
    // Second call is served from the cache with identical values.
    Architecture again = makeSpadeSextans(4);
    ArchCalibration c2 = calibrateArchitecture(again);
    EXPECT_DOUBLE_EQ(c1.hot_vis_lat, c2.hot_vis_lat);
    EXPECT_DOUBLE_EQ(c1.cold_vis_lat, c2.cold_vis_lat);
    EXPECT_DOUBLE_EQ(again.hot.vis_lat, arch.hot.vis_lat);
}

TEST(Calibrate, ConcurrentFirstUseSharesOneCalibration)
{
    // Two first users at once, as two requests of a fresh plan service
    // make them: the memo must neither race nor change the result.
    auto named = [](Architecture a, const char* name) {
        a.name = name;
        return a;
    };
    Architecture a = named(makePiuma(), "piuma (concurrent)");
    Architecture b = named(makeSpadeSextans(2), "spade:2 (concurrent)");
    ArchCalibration ca;
    ArchCalibration cb;
    std::thread ta([&] { ca = calibrateArchitecture(a); });
    std::thread tb([&] { cb = calibrateArchitecture(b); });
    ta.join();
    tb.join();

    Architecture sa = named(makePiuma(), "piuma (serial)");
    Architecture sb = named(makeSpadeSextans(2), "spade:2 (serial)");
    const ArchCalibration ra = calibrateArchitecture(sa);
    const ArchCalibration rb = calibrateArchitecture(sb);
    for (auto [got, want] : {std::pair{&ca, &ra}, std::pair{&cb, &rb}}) {
        EXPECT_EQ(got->hot_vis_lat, want->hot_vis_lat);
        EXPECT_EQ(got->cold_vis_lat, want->cold_vis_lat);
        EXPECT_EQ(got->hot_error, want->hot_error);
        EXPECT_EQ(got->cold_error, want->cold_error);
    }
    EXPECT_EQ(a.hot.vis_lat, sa.hot.vis_lat);
    EXPECT_EQ(b.cold.vis_lat, sb.cold.vis_lat);
}

TEST(Calibrate, ColdSlowerPortMeansHigherVisLat)
{
    // The cold SPADE PE port (16 B/cyc) is narrower than the Sextans
    // stream engine (128 B/cyc at scale 4), so its visible latency per
    // byte must calibrate higher.
    Architecture arch = calibrated(makeSpadeSextans(4));
    EXPECT_GT(arch.cold.vis_lat, arch.hot.vis_lat);
}

namespace {

HotTiles
makePipeline()
{
    Architecture arch = calibrated(makeSpadeSextans(4));
    CooMatrix m = genCommunity(4096, 40.0, 64, 256, 0.8, 91);
    return HotTiles(arch, m);
}

} // namespace

TEST(HotTilesPipeline, ProducesConsistentPartition)
{
    HotTiles ht = makePipeline();
    const Partition& p = ht.partition();
    EXPECT_EQ(p.is_hot.size(), ht.grid().numTiles());
    EXPECT_GT(p.predicted_cycles, 0.0);
    EXPECT_FALSE(p.heuristic.empty());
    // The chosen partition is the argmin over the heuristics.
    for (const Partition& cand : ht.allHeuristics())
        EXPECT_LE(p.predicted_cycles, cand.predicted_cycles + 1e-9);
}

TEST(HotTilesPipeline, CommunityMatrixSendsDenseTilesHot)
{
    // The Fig 5 signature: HotTiles routes a larger share of nonzeros
    // than of tiles to the hot workers.
    HotTiles ht = makePipeline();
    const Partition& p = ht.partition();
    double tile_frac = p.hotTileFraction();
    double nnz_frac = p.hotNnzFraction(ht.grid());
    if (tile_frac > 0.0 && tile_frac < 1.0) {
        EXPECT_GT(nnz_frac, tile_frac);
    }
}

TEST(HotTilesPipeline, FormatsPartitionTheMatrix)
{
    HotTiles ht = makePipeline();
    const CompiledPlan& plan = ht.plan();
    size_t total = plan.cold().total_nnz + plan.hot().total_nnz;
    EXPECT_EQ(total, ht.grid().matrixNnz());
    EXPECT_EQ(plan.isHot(), ht.partition().is_hot);
    EXPECT_TRUE(plan.compiledFor(ht.grid()));
}

TEST(HotTilesPipeline, TimingStagesRecorded)
{
    HotTiles ht = makePipeline();
    const PreprocessTiming& t = ht.timing();
    EXPECT_GT(t.scan_s, 0.0);
    EXPECT_GT(t.model_s, 0.0);
    EXPECT_GT(t.partition_s, 0.0);
    EXPECT_GT(t.total(), 0.0);
    EXPECT_GE(t.overheadFraction(), 0.0);
    EXPECT_LE(t.overheadFraction(), 1.0);
}

TEST(HotTilesPipeline, SkipFormatsOption)
{
    Architecture arch = calibrated(makeSpadeSextans(4));
    CooMatrix m = genUniform(512, 512, 5000, 92);
    HotTilesOptions opts;
    opts.build_formats = false;
    HotTiles ht(arch, m, opts);
    EXPECT_DEATH(ht.plan(), "formats");
    EXPECT_DOUBLE_EQ(ht.timing().format_base_s, 0.0);
}

TEST(HotTilesPipeline, PredictionsPositiveAndOrdered)
{
    HotTiles ht = makePipeline();
    double hot = ht.predictedHotOnlyCycles();
    double cold = ht.predictedColdOnlyCycles();
    EXPECT_GT(hot, 0.0);
    EXPECT_GT(cold, 0.0);
    // HotTiles never predicts worse than the better homogeneous run.
    EXPECT_LE(ht.partition().predicted_cycles,
              std::min(hot, cold) * 1.001);
}

TEST(HotTilesPipeline, IUnawareSeedControlsAssignment)
{
    HotTiles ht = makePipeline();
    Partition a = ht.iunaware(1);
    Partition b = ht.iunaware(2);
    EXPECT_EQ(a.hotTiles().size(), b.hotTiles().size());
    EXPECT_NE(a.is_hot, b.is_hot);
}

TEST(HotTilesPipeline, RejectsSingleTypeArchitecture)
{
    Architecture arch = makeSpadeSextansSkewed(0, 8);
    CooMatrix m = genUniform(256, 256, 1000, 93);
    EXPECT_DEATH(HotTiles(arch, m), "both worker types");
}

TEST(HotTilesPipeline, PiumaUsesParallelHeuristicsOnly)
{
    Architecture piuma = calibrated(makePiuma());
    CooMatrix m = genRmat(2048, 30000, 0.57, 0.19, 0.19, 0.05, 94);
    HotTiles ht(piuma, m);
    EXPECT_FALSE(ht.partition().serial);
    EXPECT_EQ(ht.allHeuristics().size(), 2u);
    EXPECT_DOUBLE_EQ(ht.context().t_merge_cycles, 0.0);
}
