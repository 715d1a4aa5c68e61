/** @file Tests for the architecture configurations (Table IV, Fig 9). */

#include <gtest/gtest.h>

#include "arch/arch_config.hpp"
#include "common/error.hpp"

using namespace hottiles;

TEST(Arch, TableIvScalesMatchPaper)
{
    // Table IV: scale s has 4s SPADE PEs and a Sextans with 5s MACs/cyc.
    for (int s : spadeSextansScales()) {
        Architecture a = makeSpadeSextans(s);
        EXPECT_EQ(a.cold.count, 4u * s) << s;
        EXPECT_EQ(a.hot.count, 1u) << s;
        EXPECT_DOUBLE_EQ(a.cold.macs_per_cycle, 1.0);
        EXPECT_DOUBLE_EQ(a.hot.macs_per_cycle, 5.0 * s);
        EXPECT_DOUBLE_EQ(a.mem_gbps, 205.0);
        EXPECT_DOUBLE_EQ(a.freq_ghz, 0.8);
        EXPECT_EQ(a.line_bytes, 64u);
        EXPECT_FALSE(a.atomic_rmw);
        EXPECT_EQ(a.pcie_gbps, 0.0);
        // Scratchpads grow with the scale.
        EXPECT_EQ(a.hot.scratchpad_bytes, uint64_t(32) * 1024 * s);
    }
    EXPECT_DEATH(makeSpadeSextans(3), "scales");
}

TEST(Arch, SpecNamesOneArchitecture)
{
    EXPECT_EQ(architectureFromSpec("spade-sextans").name,
              makeSpadeSextans(4).name);
    EXPECT_EQ(architectureFromSpec("SPADE-Sextans:2").name,
              makeSpadeSextans(2).name);
    EXPECT_EQ(architectureFromSpec("pcie").name, makeSpadeSextansPcie().name);
    EXPECT_EQ(architectureFromSpec("piuma").name, makePiuma().name);
    // Junk is an error, never a silent default; a scale that Table IV
    // lacks is an error, never the factory's abort.
    for (const char* bad :
         {"spade-sextans:4x", "spade-sextans:4:junk", "spade-sextans:",
          "spade-sextans:0", "spade-sextans:3", "spade-sextans:16",
          "spade-sextans:257", "spade-sextans:-4", "spade-sextans: 4",
          "piuma:2", "pcie:", "warp-drive", ""})
        EXPECT_THROW(architectureFromSpec(bad), FatalError) << bad;
}

TEST(Arch, WorkerRolesAndReuse)
{
    Architecture a = makeSpadeSextans(4);
    // Table III rows for SPADE PE and Sextans.
    EXPECT_EQ(a.cold.role, WorkerRole::Cold);
    EXPECT_EQ(a.cold.format, SparseFormat::CooLike);
    EXPECT_EQ(a.cold.din_reuse, ReuseType::None);
    EXPECT_EQ(a.cold.dout_reuse, ReuseType::InterTile);
    EXPECT_EQ(a.cold.traversal, TraversalOrder::UntiledRowMajor);
    EXPECT_EQ(a.hot.role, WorkerRole::Hot);
    EXPECT_EQ(a.hot.format, SparseFormat::CooLike);
    EXPECT_EQ(a.hot.din_reuse, ReuseType::IntraTileStream);
    EXPECT_EQ(a.hot.dout_reuse, ReuseType::InterTile);
    EXPECT_EQ(a.hot.traversal, TraversalOrder::TiledRowMajor);
}

TEST(Arch, BandwidthConversion)
{
    Architecture a = makeSpadeSextans(4);
    EXPECT_NEAR(a.bwBytesPerCycle(), 205.0 / 0.8, 1e-9);
}

TEST(Arch, PeakGflops)
{
    Architecture a = makeSpadeSextans(4);
    // 16 SPADE PEs x 1 MAC/cyc x 64 FLOP x 0.8 GHz = 819.2 GFLOP/s.
    EXPECT_NEAR(a.peakGflops(false, 32), 819.2, 1e-6);
    // Sextans: 20 x 64 x 0.8 = 1024.
    EXPECT_NEAR(a.peakGflops(true, 32), 1024.0, 1e-6);
}

TEST(Arch, SkewedScalesCompose)
{
    Architecture a = makeSpadeSextansSkewed(3, 5);
    EXPECT_EQ(a.cold.count, 12u);
    EXPECT_DOUBLE_EQ(a.hot.macs_per_cycle, 25.0);
    EXPECT_EQ(a.name, "SPADE-Sextans 3-5");
    Architecture none = makeSpadeSextansSkewed(0, 8);
    EXPECT_EQ(none.cold.count, 0u);
    EXPECT_DOUBLE_EQ(none.hot.macs_per_cycle, 40.0);
}

TEST(Arch, PcieVariant)
{
    Architecture a = makeSpadeSextansPcie();
    EXPECT_DOUBLE_EQ(a.pcie_gbps, 32.0);
    EXPECT_FALSE(a.hot.compute_scales_with_ai);  // enhanced Sextans
    EXPECT_DOUBLE_EQ(a.hot.macs_per_cycle, 20.0);
    EXPECT_TRUE(a.cold.compute_scales_with_ai);
}

TEST(Arch, PiumaConfiguration)
{
    Architecture p = makePiuma();
    EXPECT_TRUE(p.atomic_rmw);
    EXPECT_EQ(p.cold.count, 4u);   // 4 MTPs
    EXPECT_EQ(p.hot.count, 2u);    // 2 STPs
    EXPECT_EQ(p.cold.format, SparseFormat::CsrLike);
    EXPECT_EQ(p.hot.format, SparseFormat::CsrLike);
    EXPECT_EQ(p.cold.value_bytes, 8u);  // double precision
    EXPECT_EQ(p.hot.value_bytes, 8u);
    EXPECT_EQ(p.hot.dout_reuse, ReuseType::IntraTileDemand);
    // Hot:cold per-type compute ratio is much smaller than in
    // SPADE-Sextans (§VIII-A explains myc via this).
    double piuma_ratio = p.hot.macs_per_cycle / p.cold.macs_per_cycle;
    Architecture ss = makeSpadeSextans(4);
    double ss_ratio = ss.hot.macs_per_cycle / ss.cold.macs_per_cycle;
    EXPECT_LT(piuma_ratio, ss_ratio);
    // STP overlap: sparse reads serialize with the rest (in-order core).
    EXPECT_NE(p.hot.overlap_group[0], p.hot.overlap_group[1]);
}

TEST(Arch, ScratchpadFitsTile)
{
    // The tile sizing rule: a double-buffered Din tile must fit the hot
    // scratchpad on every architecture.
    for (Architecture a :
         {makeSpadeSextans(1), makeSpadeSextans(4), makePiuma()}) {
        uint64_t tile_bytes =
            uint64_t(a.tile_width) * 32 * a.hot.value_bytes;
        EXPECT_LE(tile_bytes, a.hot.scratchpad_bytes) << a.name;
    }
}
