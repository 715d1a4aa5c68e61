/** @file Tests for smart tile sizing (§IV free-dimension search) and
 *  the cache-aware model extension (§X). */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/calibrate.hpp"
#include "core/tile_search.hpp"
#include "model/memory_model.hpp"
#include "sparse/generators.hpp"

using namespace hottiles;

TEST(TileSearch, MaxWidthBoundedByScratchpad)
{
    Architecture arch = makeSpadeSextans(4);
    // 128 KiB scratchpad, K=32 fp32 double-buffered: 128K/(32*4*2) = 512.
    EXPECT_EQ(maxTileWidth(arch, KernelConfig{}), 512u);
    // SpMV rows are tiny: the cap hits the free-cap clamp.
    EXPECT_EQ(maxTileWidth(arch, spmvKernel()), 4096u);
    // A worker without a Din scratchpad leaves the width free.
    Architecture free = arch;
    free.hot.din_reuse = ReuseType::IntraTileDemand;
    EXPECT_EQ(maxTileWidth(free, KernelConfig{}), 4096u);
}

TEST(TileSearch, FiltersIllegalCandidates)
{
    Architecture arch = calibrated(makeSpadeSextans(4));
    CooMatrix m = genUniform(1024, 1024, 10000, 401);
    TileSizeSearchResult r =
        searchTileSize(arch, m, KernelConfig{}, {256, 512, 1024, 2048});
    // 1024 and 2048 exceed the 512 scratchpad cap.
    EXPECT_EQ(r.candidates.size(), 2u);
    for (const auto& c : r.candidates)
        EXPECT_LE(c.tile_width, 512u);
}

TEST(TileSearch, BestIsMinimumPrediction)
{
    Architecture arch = calibrated(makeSpadeSextans(4));
    CooMatrix m = genCommunity(2048, 24.0, 32, 128, 0.8, 402);
    TileSizeSearchResult r = searchTileSize(arch, m, KernelConfig{});
    ASSERT_FALSE(r.candidates.empty());
    for (const auto& c : r.candidates)
        EXPECT_LE(r.best.predicted_cycles, c.predicted_cycles);
    EXPECT_GT(r.best.tile_height, 0u);
}

TEST(TileSearch, NoLegalCandidateDies)
{
    // A K from the command line can leave no legal candidate: a typed
    // error that names K and the scratchpad, not an abort.
    Architecture arch = calibrated(makeSpadeSextans(4));
    CooMatrix m = genUniform(256, 256, 1000, 403);
    try {
        searchTileSize(arch, m, KernelConfig{}, {1024, 2048});
        FAIL() << "should have thrown";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("candidate"), std::string::npos);
        EXPECT_NE(what.find("K = 32"), std::string::npos);
        EXPECT_NE(what.find("bytes"), std::string::npos);
    }
}

TEST(CacheAwareModel, OffByDefaultMatchesPaperFormula)
{
    Tile t{};
    t.height = 100;
    t.width = 200;
    t.nnz = 500;
    t.uniq_rids = 60;
    t.uniq_cids = 80;
    WorkerTraits w;
    w.din_reuse = ReuseType::None;
    KernelConfig kc;
    // Off: Table I "None" row, one row per nonzero.
    EXPECT_DOUBLE_EQ(tileBytes(t, w, kc).din, 500 * 128.0);
}

TEST(CacheAwareModel, FittingWorkingSetBecomesDemand)
{
    Tile t{};
    t.height = 100;
    t.width = 200;
    t.nnz = 500;
    t.uniq_rids = 60;
    t.uniq_cids = 80;
    WorkerTraits w;
    w.din_reuse = ReuseType::None;
    KernelConfig kc;
    // 80 unique rows x 128 B = 10 KiB working set fits a 16 KiB cache:
    // full demand reuse (uniq_cids rows).
    w.model_cache_bytes = 16 * 1024;
    EXPECT_DOUBLE_EQ(tileBytes(t, w, kc).din, 80 * 128.0);
}

TEST(CacheAwareModel, OverflowInterpolatesTowardNone)
{
    Tile t{};
    t.height = 100;
    t.width = 200;
    t.nnz = 500;
    t.uniq_rids = 60;
    t.uniq_cids = 80;
    WorkerTraits w;
    w.din_reuse = ReuseType::None;
    KernelConfig kc;
    // Working set = 2x capacity: halfway between demand and none.
    w.model_cache_bytes = 80 * 128 / 2;
    double din = tileBytes(t, w, kc).din;
    EXPECT_GT(din, 80 * 128.0);
    EXPECT_LT(din, 500 * 128.0);
    // Tiny cache: approaches (but never exceeds) the no-reuse bound.
    w.model_cache_bytes = 64;
    double tiny = tileBytes(t, w, kc).din;
    EXPECT_NEAR(tiny, 500 * 128.0, 0.01 * 500 * 128.0);
    EXPECT_LE(tiny, 500 * 128.0);
}

TEST(CacheAwareModel, DoesNotAffectOtherReuseTypes)
{
    Tile t{};
    t.height = 100;
    t.width = 200;
    t.nnz = 500;
    t.uniq_rids = 60;
    t.uniq_cids = 80;
    WorkerTraits w;
    w.din_reuse = ReuseType::IntraTileStream;
    w.model_cache_bytes = 16 * 1024;
    KernelConfig kc;
    EXPECT_DOUBLE_EQ(tileBytes(t, w, kc).din, 200 * 128.0);  // stream
}
