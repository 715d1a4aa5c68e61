/** @file Simulator integration tests: functional correctness of every
 *  execution mode against the reference SpMM, determinism, and the
 *  plausibility of the reported statistics. */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "core/hottiles.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "sparse/dense.hpp"
#include "sparse/generators.hpp"

using namespace hottiles;

namespace {

Architecture
testArch()
{
    Architecture a = makeSpadeSextans(4);
    return a;
}

struct SimFixture
{
    Architecture arch = testArch();
    CooMatrix m;
    TileGrid grid;
    DenseMatrix din;
    KernelConfig kernel;

    explicit SimFixture(CooMatrix matrix)
        : m(std::move(matrix)), grid(m, testArch().tile_height,
                                     testArch().tile_width),
          din(m.cols(), 32)
    {
        Rng rng(123);
        din.fillRandom(rng);
    }

    SimConfig
    cfg()
    {
        SimConfig c;
        c.compute_values = true;
        c.din = &din;
        return c;
    }
};

std::vector<uint8_t>
alternating(const TileGrid& g)
{
    std::vector<uint8_t> is_hot(g.numTiles(), 0);
    for (size_t i = 0; i < is_hot.size(); i += 2)
        is_hot[i] = 1;
    return is_hot;
}

} // namespace

TEST(Simulator, HomogeneousColdMatchesReference)
{
    SimFixture s(genRmat(1024, 12000, 0.57, 0.19, 0.19, 0.05, 61));
    SimOutput out = simulateHomogeneous(s.arch, s.grid, false, s.kernel,
                                        s.cfg());
    DenseMatrix ref = referenceSpmm(s.m, s.din);
    EXPECT_TRUE(out.dout.approxEqual(ref, 1e-3));
    EXPECT_EQ(out.stats.cold_nnz, s.m.nnz());
    EXPECT_EQ(out.stats.hot_nnz, 0u);
}

TEST(Simulator, HomogeneousHotMatchesReference)
{
    SimFixture s(genCommunity(1024, 20.0, 32, 128, 0.8, 62));
    SimOutput out = simulateHomogeneous(s.arch, s.grid, true, s.kernel,
                                        s.cfg());
    DenseMatrix ref = referenceSpmm(s.m, s.din);
    EXPECT_TRUE(out.dout.approxEqual(ref, 1e-3));
    EXPECT_EQ(out.stats.hot_nnz, s.m.nnz());
}

TEST(Simulator, HeterogeneousParallelMatchesReference)
{
    SimFixture s(genMesh(1024, 8.0, 100.0, 63));
    SimOutput out = simulateExecution(s.arch, s.grid, alternating(s.grid),
                                      /*serial=*/false, s.kernel, s.cfg());
    DenseMatrix ref = referenceSpmm(s.m, s.din);
    EXPECT_TRUE(out.dout.approxEqual(ref, 1e-3));
    EXPECT_GT(out.stats.hot_nnz, 0u);
    EXPECT_GT(out.stats.cold_nnz, 0u);
    EXPECT_EQ(out.stats.hot_nnz + out.stats.cold_nnz, s.m.nnz());
}

TEST(Simulator, HeterogeneousSerialMatchesReference)
{
    SimFixture s(genUniform(512, 512, 6000, 64));
    SimOutput out = simulateExecution(s.arch, s.grid, alternating(s.grid),
                                      /*serial=*/true, s.kernel, s.cfg());
    EXPECT_TRUE(out.dout.approxEqual(referenceSpmm(s.m, s.din), 1e-3));
    EXPECT_EQ(out.stats.merge_cycles, 0u);  // serial mode never merges
}

TEST(Simulator, ParallelWithBothTypesPaysMerge)
{
    SimFixture s(genUniform(512, 512, 6000, 65));
    SimOutput out = simulateExecution(s.arch, s.grid, alternating(s.grid),
                                      false, s.kernel);
    EXPECT_GT(out.stats.merge_cycles, 0u);
    // Homogeneous runs do not merge.
    SimOutput cold = simulateHomogeneous(s.arch, s.grid, false, s.kernel);
    EXPECT_EQ(cold.stats.merge_cycles, 0u);
}

TEST(Simulator, AtomicRmwSkipsMerge)
{
    Architecture piuma = makePiuma();
    CooMatrix m = genUniform(512, 512, 6000, 66);
    TileGrid grid(m, piuma.tile_height, piuma.tile_width);
    std::vector<uint8_t> is_hot = alternating(grid);
    SimOutput out = simulateExecution(piuma, grid, is_hot, false,
                                      KernelConfig{});
    EXPECT_EQ(out.stats.merge_cycles, 0u);
}

TEST(Simulator, Deterministic)
{
    SimFixture s(genRmat(512, 8000, 0.57, 0.19, 0.19, 0.05, 67));
    SimOutput a = simulateExecution(s.arch, s.grid, alternating(s.grid),
                                    false, s.kernel);
    SimOutput b = simulateExecution(s.arch, s.grid, alternating(s.grid),
                                    false, s.kernel);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.mem_bytes, b.stats.mem_bytes);
}

TEST(Simulator, BandwidthNeverExceedsPeak)
{
    SimFixture s(genCommunity(2048, 40.0, 64, 256, 0.8, 68));
    for (bool hot : {false, true}) {
        SimOutput out = simulateHomogeneous(s.arch, s.grid, hot, s.kernel);
        EXPECT_LE(out.stats.avg_bw_gbps, s.arch.mem_gbps * 1.001)
            << (hot ? "hot" : "cold");
        EXPECT_GT(out.stats.avg_bw_gbps, 0.0);
    }
}

TEST(Simulator, PcieThrottlesHotWorkers)
{
    CooMatrix m = genUniform(1024, 1024, 20000, 69);
    Architecture on_die = makeSpadeSextans(4);
    Architecture pcie = makeSpadeSextansPcie();
    // Same hot compute, but the PCIe Sextans streams through 32 GB/s.
    TileGrid g1(m, on_die.tile_height, on_die.tile_width);
    TileGrid g2(m, pcie.tile_height, pcie.tile_width);
    SimOutput fast = simulateHomogeneous(on_die, g1, true, KernelConfig{});
    SimOutput slow = simulateHomogeneous(pcie, g2, true, KernelConfig{});
    EXPECT_GT(double(slow.stats.cycles), 1.5 * double(fast.stats.cycles));
}

TEST(Simulator, StatsPlausibility)
{
    SimFixture s(genRmat(1024, 15000, 0.57, 0.19, 0.19, 0.05, 70));
    SimOutput out = simulateExecution(s.arch, s.grid, alternating(s.grid),
                                      false, s.kernel);
    const SimStats& st = out.stats;
    EXPECT_GT(st.cycles, 0u);
    EXPECT_GT(st.ms, 0.0);
    EXPECT_GT(st.lines_per_nnz, 0.5);
    EXPECT_LT(st.lines_per_nnz, 600.0);
    EXPECT_GT(st.hot_gflops, 0.0);
    EXPECT_GT(st.cold_gflops, 0.0);
    EXPECT_LE(st.hot_finish, st.cycles);
    EXPECT_LE(st.cold_finish, st.cycles);
    EXPECT_GT(st.hot_stream_lines, 0u);
    EXPECT_GT(st.cold_cache_hits + st.cold_cache_misses, 0u);
}

TEST(Simulator, EmptyMatrixRunsToCompletion)
{
    CooMatrix m(256, 256);
    Architecture arch = testArch();
    TileGrid grid(m, arch.tile_height, arch.tile_width);
    std::vector<uint8_t> none;
    SimOutput out = simulateExecution(arch, grid, none, false,
                                      KernelConfig{});
    EXPECT_EQ(out.stats.total_nnz, 0u);
    EXPECT_EQ(out.stats.cycles, 0u);
}

TEST(Simulator, SerialAtLeastAsSlowAsPhases)
{
    SimFixture s(genMesh(1024, 10.0, 200.0, 71));
    auto is_hot = alternating(s.grid);
    SimOutput serial = simulateExecution(s.arch, s.grid, is_hot, true,
                                         s.kernel);
    // Serial time >= each phase alone on its own tiles.
    std::vector<uint8_t> only_cold = is_hot;
    for (auto& h : only_cold)
        h = 0;
    EXPECT_GE(serial.stats.hot_finish, serial.stats.cold_finish);
    // End time covers the hot phase plus any posted-write drain.
    EXPECT_GE(serial.stats.cycles, serial.stats.hot_finish);
}

TEST(Simulator, GspmmAiSlowsColdCompute)
{
    SimFixture s(genUniform(512, 512, 20000, 72));
    KernelConfig heavy;
    heavy.ai_factor = 16;
    SimOutput base = simulateHomogeneous(s.arch, s.grid, false, s.kernel);
    SimOutput ai = simulateHomogeneous(s.arch, s.grid, false, heavy);
    EXPECT_GT(double(ai.stats.cycles), 1.2 * double(base.stats.cycles));
}

/** Dense-width sweep: functional correctness and monotone traffic. */
class KSweep : public testing::TestWithParam<Index>
{
};

TEST_P(KSweep, FunctionalAndTrafficScaleWithK)
{
    const Index k = GetParam();
    CooMatrix m = genRmat(512, 8000, 0.57, 0.19, 0.19, 0.05, 73);
    Architecture arch = testArch();
    TileGrid grid(m, arch.tile_height, arch.tile_width);
    DenseMatrix din(m.cols(), k);
    Rng rng(9);
    din.fillRandom(rng);
    KernelConfig kc;
    kc.k = k;
    SimConfig cfg;
    cfg.compute_values = true;
    cfg.din = &din;
    SimOutput out = simulateHomogeneous(arch, grid, false, kc, cfg);
    EXPECT_TRUE(out.dout.approxEqual(referenceSpmm(m, din), 1e-3)) << k;

    // Wider K moves at least as many bytes.
    if (k > 8) {
        KernelConfig kc8;
        kc8.k = 8;
        SimOutput narrow = simulateHomogeneous(arch, grid, false, kc8);
        EXPECT_GE(out.stats.mem_bytes, narrow.stats.mem_bytes);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, KSweep,
                         testing::Values<Index>(8, 16, 32, 64, 128));

namespace {

/** The SimStats fields that the cold PEs' Din L1 replay decides, for
 *  one simulated run. */
struct PinnedStats
{
    Tick cycles;
    uint64_t events;
    uint64_t hits;
    uint64_t misses;
    double mem_bytes;
};

PinnedStats
pinned(const SimStats& s)
{
    return {s.cycles, s.events_processed, s.cold_cache_hits,
            s.cold_cache_misses, s.mem_bytes};
}

void
expectPinned(const PinnedStats& got, const PinnedStats& want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.mem_bytes, want.mem_bytes);
}

} // namespace

/**
 * ColdOnly and the HotTiles partition on two generator matrices under
 * both architectures, at K = 1, 19, 32 and 40, plus one fail-stop run
 * (whose executor builds the cold segments tile by tile).  The L1
 * replays one access per Din row at K = 32 on both architectures, per
 * line at K = 40 on both, and at K = 19 per row on SPADE only.  The
 * constants come from a line-by-line replay through ways kept in
 * shifted recency order, the reference that every replay path must
 * reproduce exactly.
 */
TEST(Simulator, StatsPinnedAcrossL1ReplayPaths)
{
    static const PinnedStats kWant[] = {
        // spade-sextans:4, rmat: ColdOnly then HotTiles at each K
        {41436, 3860, 5237, 53979, 4556864},
        {15310, 3130, 3882, 35604, 3748416},
        {77558, 3864, 5360, 113072, 8730880},
        {30416, 2993, 4210, 68766, 7589888},
        {77558, 3864, 5360, 113072, 8730880},
        {32910, 2993, 4210, 68766, 8228864},
        {113339, 3868, 7015, 170633, 12806848},
        {46110, 2970, 5880, 101373, 11528896},
        // spade-sextans:4, community: ColdOnly then HotTiles at each K
        {16825, 6409, 26664, 36128, 3589504},
        {13597, 4420, 15341, 26229, 3385728},
        {36197, 6485, 30554, 95030, 7883520},
        {28854, 3743, 14094, 54546, 7278656},
        {36197, 6485, 30554, 95030, 7883520},
        {31348, 3743, 14094, 54546, 7917632},
        {57285, 6534, 30037, 158339, 12459584},
        {44572, 3535, 13854, 82164, 11275712},
        // piuma, rmat: ColdOnly then HotTiles at each K
        {102368, 10507, 492, 58724, 4873088},
        {60188, 5313, 288, 20483, 3790656},
        {278369, 10980, 403, 177245, 13242560},
        {158442, 5336, 278, 62035, 9889088},
        {366380, 11067, 388, 236476, 17425408},
        {206761, 5328, 260, 82824, 12939136},
        {454339, 11097, 330, 295750, 21611008},
        {255418, 5327, 225, 103630, 15990272},
        // piuma, community: ColdOnly then HotTiles at each K
        {111136, 17474, 2450, 60342, 5155904},
        {55078, 6485, 827, 15393, 3447872},
        {309277, 18790, 36, 188340, 14396352},
        {145810, 6607, 438, 48222, 8877440},
        {406872, 19117, 0, 251168, 18941632},
        {190821, 6648, 288, 64592, 11589376},
        {504420, 19277, 0, 313960, 23484608},
        {235517, 6673, 217, 80883, 14296256},
        // fail-stop, spade-sextans:4, community, K = 32
        {96331, 6842, 29882, 43378, 9567168},
    };
    const std::pair<const char*, Architecture> archs[] = {
        {"spade-sextans:4", makeSpadeSextans(4)}, {"piuma", makePiuma()}};
    const std::pair<const char*, CooMatrix> matrices[] = {
        {"rmat", genRmat(4096, 60000, 0.57, 0.19, 0.19, 0.05, 81)},
        {"community", genCommunity(4096, 16.0, 32, 256, 0.8, 82)}};
    size_t next = 0;
    auto check = [&](const SimStats& s) {
        ASSERT_LT(next, std::size(kWant));
        expectPinned(pinned(s), kWant[next++]);
    };
    for (const auto& [arch_name, arch] : archs) {
        for (const auto& [matrix_name, m] : matrices) {
            for (uint32_t k : {1u, 19u, 32u, 40u}) {
                SCOPED_TRACE(testing::Message() << arch_name << ", "
                                                << matrix_name << ", K = "
                                                << k);
                HotTilesOptions o;
                o.kernel.k = k;
                o.build_formats = false;
                HotTiles ht(arch, m, o);
                {
                    SCOPED_TRACE("ColdOnly");
                    check(simulateHomogeneous(arch, ht.grid(), false,
                                              o.kernel)
                              .stats);
                }
                const Partition& p = ht.partition();
                SCOPED_TRACE("HotTiles");
                check(simulateExecution(arch, ht.grid(), p.is_hot, p.serial,
                                        o.kernel)
                          .stats);
            }
        }
    }

    SCOPED_TRACE("fail-stop, spade-sextans:4, community, K = 32");
    const Architecture& arch = archs[0].second;
    HotTilesOptions o;
    o.kernel.k = 32;
    o.build_formats = false;
    HotTiles ht(arch, matrices[1].second, o);
    FaultEvent stop;
    stop.kind = FaultKind::PeFailStop;
    stop.pe = 1;  // a cold PE
    stop.at = 5000;
    FaultPlan plan;
    plan.events = {stop};
    SimConfig cfg;
    cfg.faults = &plan;
    const SimStats s = simulateExecution(arch, ht.grid(), ht.partition().is_hot,
                                         false, o.kernel, cfg)
                           .stats;
    EXPECT_GT(s.faults.tiles_migrated, 0u);
    check(s);
    EXPECT_EQ(next, std::size(kWant));
}
