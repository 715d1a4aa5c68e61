/** @file Tests for the demand-PE and stream-PE segment builders: line
 *  accounting against hand-computed traffic. */

#include <gtest/gtest.h>

#include <numeric>

#include "sim/demand_pe.hpp"
#include "sim/stream_pe.hpp"
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

WorkerTraits
coldCoo()
{
    WorkerTraits w;
    w.role = WorkerRole::Cold;
    w.format = SparseFormat::CooLike;
    w.macs_per_cycle = 1.0;
    return w;
}

WorkerTraits
hotStream(ReuseType dout)
{
    WorkerTraits w;
    w.role = WorkerRole::Hot;
    w.macs_per_cycle = 20.0;
    w.din_reuse = ReuseType::IntraTileStream;
    w.dout_reuse = dout;
    return w;
}

uint64_t
totalReadLines(const std::vector<SegSpec>& segs)
{
    uint64_t n = 0;
    for (const auto& s : segs)
        n += s.read_lines;
    return n;
}

uint64_t
totalWriteLines(const std::vector<SegSpec>& segs)
{
    uint64_t n = 0;
    for (const auto& s : segs)
        n += s.write_lines;
    return n;
}

/**
 * @p slices must walk every panel of @p w in order: each slice starts
 * at a non-empty row and spans @p chunk rows (fewer only at the panel
 * end), the rows between slices are empty, and a slice's nnz is its
 * rows' nonzeros.
 */
void
expectRowAlignedSlices(const UntiledWork& w,
                       const std::vector<PanelSlice>& slices, Index chunk)
{
    size_t s = 0;
    for (size_t p = 0; p < w.panels.size(); ++p) {
        const std::vector<size_t>& rp = w.panels[p].row_ptr;
        const Index height = Index(rp.size() - 1);
        Index next = 0;  // first row no slice has covered yet
        for (; s < slices.size() && slices[s].panel == p; ++s) {
            const PanelSlice& sl = slices[s];
            ASSERT_LE(next, sl.row_begin);
            ASSERT_LT(sl.row_begin, height);
            EXPECT_EQ(rp[next], rp[sl.row_begin]);  // skipped rows empty
            EXPECT_LT(rp[sl.row_begin], rp[sl.row_begin + 1]);
            EXPECT_EQ(sl.row_end,
                      sl.row_begin + std::min(chunk, height - sl.row_begin));
            EXPECT_EQ(sl.nnz, rp[sl.row_end] - rp[sl.row_begin]);
            next = sl.row_end;
        }
        EXPECT_EQ(rp[next], rp[height]);  // no nonzero after the last
    }
    EXPECT_EQ(s, slices.size());
}

} // namespace

TEST(SliceUntiled, RowAlignedChunks)
{
    CooMatrix m = genUniform(256, 256, 3000, 41);
    TileGrid g(m, 64, 64);
    UntiledWork w = buildUntiledWork(g, allTiles(g));
    expectRowAlignedSlices(w, sliceUntiledWork(w, 16), 16);
}

TEST(SliceUntiled, EmptyRowsShortPanelAndLongRow)
{
    // 8-row panels over 21 rows (the last panel has 5).  Panel 0 has
    // empty leading, middle and trailing rows around a 150-nonzero row
    // (more than 4 x segment_nnz); panel 2 has empty rows between its
    // first and last row.
    CooMatrix m(21, 300);
    m.push(2, 7, 1);
    for (Index c = 0; c < 150; ++c)
        m.push(4, c, 1);
    m.push(16, 3, 1);
    m.push(20, 10, 1);
    m.push(20, 290, 1);
    TileGrid g(m, 8, 64);
    UntiledWork w = buildUntiledWork(g, allTiles(g));
    for (Index chunk : {1u, 2u, 3u, 8u, 64u})
        expectRowAlignedSlices(w, sliceUntiledWork(w, chunk), chunk);

    // Chunks of 2 rows: panel 0's rows [2, 4) and [4, 6), panel 2's
    // rows [0, 2) and [4, 5).  One Dout read and write per non-empty
    // row; the long row is cut at 4 x segment_nnz.  K = 16 fp32 makes
    // every dense row one line; 154 COO nonzeros are 1848 sparse bytes,
    // 28 whole lines.
    KernelConfig kc;
    kc.k = 16;
    DemandPeParams p;
    p.segment_nnz = 32;
    DemandBuild b =
        buildDemandSegments(w, sliceUntiledWork(w, 2), coldCoo(), kc, p);
    EXPECT_EQ(b.nnz, m.nnz());
    std::vector<uint32_t> nnz, units;
    for (const SegSpec& sg : b.segs) {
        nnz.push_back(sg.nnz);
        units.push_back(sg.unit);
    }
    EXPECT_EQ(nnz, (std::vector<uint32_t>{1, 128, 22, 1, 2}));
    EXPECT_EQ(units, (std::vector<uint32_t>{0, 0, 0, 2, 2}));
    EXPECT_EQ(totalReadLines(b.segs), 154u + 4u + 28u);
    EXPECT_EQ(totalWriteLines(b.segs), 4u);
}

TEST(DemandPe, NoCacheLineCountMatchesHandMath)
{
    // Single row, 4 nonzeros, K=16 fp32 -> dense row = 1 line.
    CooMatrix m(64, 64);
    m.push(0, 3, 1);
    m.push(0, 10, 1);
    m.push(0, 20, 1);
    m.push(0, 33, 1);
    TileGrid g(m, 64, 64);
    UntiledWork w = buildUntiledWork(g, allTiles(g));
    auto slices = sliceUntiledWork(w, 64);

    WorkerTraits traits = coldCoo();
    KernelConfig kc;
    kc.k = 16;
    DemandPeParams p;
    p.depth = 4;
    p.segment_nnz = 32;
    p.l1_bytes = 0;
    DemandBuild b = buildDemandSegments(w, slices, traits, kc, p);
    EXPECT_EQ(b.nnz, 4u);
    // Din: 4 rows x 1 line; Dout read: 1 line (one row); sparse: 4 x 12B
    // = 48 B -> 0 full lines crossed.
    EXPECT_EQ(totalReadLines(b.segs), 4u + 1u);
    // Dout write-back: 1 line.
    EXPECT_EQ(totalWriteLines(b.segs), 1u);
    EXPECT_DOUBLE_EQ(b.flops, 4.0 * 2 * 16);
}

TEST(DemandPe, CacheRemovesRepeatedDinTraffic)
{
    // Many nonzeros hitting the same column: with an L1, only the first
    // access misses.
    CooMatrix m(64, 64);
    for (Index r = 0; r < 32; ++r)
        m.push(r, 7, 1);
    TileGrid g(m, 64, 64);
    UntiledWork w = buildUntiledWork(g, allTiles(g));
    auto slices = sliceUntiledWork(w, 64);
    WorkerTraits traits = coldCoo();
    KernelConfig kc;
    kc.k = 16;
    DemandPeParams with_cache;
    with_cache.l1_bytes = 4096;
    DemandPeParams no_cache;
    no_cache.l1_bytes = 0;
    DemandBuild cached = buildDemandSegments(w, slices, traits, kc,
                                             with_cache);
    DemandBuild raw = buildDemandSegments(w, slices, traits, kc, no_cache);
    EXPECT_EQ(cached.din_misses, 1u);
    EXPECT_EQ(cached.din_hits, 31u);
    // 31 Din lines saved.
    EXPECT_EQ(raw.segs.size() >= 1, true);
    EXPECT_EQ(totalReadLines(raw.segs) - totalReadLines(cached.segs), 31u);
}

TEST(DemandPe, CsrChargesRowOffsets)
{
    CooMatrix m(64, 64);
    for (Index r = 0; r < 60; ++r)
        m.push(r, r, 1);
    TileGrid g(m, 64, 64);
    UntiledWork w = buildUntiledWork(g, allTiles(g));
    auto slices = sliceUntiledWork(w, 64);
    KernelConfig kc;
    kc.k = 16;
    WorkerTraits coo = coldCoo();
    WorkerTraits csr = coldCoo();
    csr.format = SparseFormat::CsrLike;
    DemandPeParams p;
    DemandBuild bcoo = buildDemandSegments(w, slices, coo, kc, p);
    DemandBuild bcsr = buildDemandSegments(w, slices, csr, kc, p);
    // COO: 60 x 12 B = 720 B = 11 lines; CSR: 60 x (8 + 4) B = 720 B
    // too (8 per nnz + 4 per row here) -> equal in this 1-nnz-per-row
    // extreme.
    EXPECT_EQ(totalReadLines(bcoo.segs), totalReadLines(bcsr.segs));
}

TEST(DemandPe, SegmentSizeBoundsRespected)
{
    CooMatrix m = genRmat(512, 6000, 0.57, 0.19, 0.19, 0.05, 42);
    TileGrid g(m, 128, 128);
    UntiledWork w = buildUntiledWork(g, allTiles(g));
    auto slices = sliceUntiledWork(w, 64);
    WorkerTraits traits = coldCoo();
    KernelConfig kc;
    DemandPeParams p;
    p.segment_nnz = 32;
    DemandBuild b = buildDemandSegments(w, slices, traits, kc, p);
    for (const auto& s : b.segs)
        ASSERT_LE(s.nnz, 4 * p.segment_nnz);
    EXPECT_EQ(b.nnz, m.nnz());
}

TEST(StreamPe, DinStreamIsWholeTileWidth)
{
    // One tile, one nonzero: the scratchpad still streams the full tile
    // width (the Fig 3 over-fetch).
    CooMatrix m(64, 64);
    m.push(10, 12, 1);
    TileGrid g(m, 32, 32);
    TiledWork w = buildTiledWork(g, allTiles(g));
    KernelConfig kc;
    kc.k = 16;  // 1 line per row
    StreamPeParams p;
    StreamBuild b = buildStreamSegments(w, {0}, g, hotStream(
        ReuseType::InterTile), kc, p);
    ASSERT_EQ(b.segs.size(), 1u);
    // Din stream: 32 rows; Dout panel read: 32 rows; sparse: 12 B -> 1.
    EXPECT_EQ(b.din_stream_lines, 32u);
    EXPECT_EQ(b.segs[0].read_lines, 32u + 32u + 1u);
    EXPECT_EQ(b.segs[0].write_lines, 32u);  // panel write-back
}

TEST(StreamPe, InterTileDoutChargedOncePerPanel)
{
    // Two tiles in one panel: only the first reads Dout, only the last
    // writes it.
    CooMatrix m(32, 64);
    m.push(0, 0, 1);
    m.push(0, 40, 1);
    TileGrid g(m, 32, 32);
    ASSERT_EQ(g.numTiles(), 2u);
    TiledWork w = buildTiledWork(g, allTiles(g));
    KernelConfig kc;
    kc.k = 16;
    StreamBuild b = buildStreamSegments(w, {0}, g,
                                        hotStream(ReuseType::InterTile), kc,
                                        StreamPeParams{});
    ASSERT_EQ(b.segs.size(), 2u);
    EXPECT_EQ(b.segs[0].read_lines, 32u + 32u + 1u);  // din + dout + sparse
    EXPECT_EQ(b.segs[0].write_lines, 0u);
    EXPECT_EQ(b.segs[1].read_lines, 32u + 1u);        // din + sparse only
    EXPECT_EQ(b.segs[1].write_lines, 32u);
}

TEST(StreamPe, DemandDoutUsesUniqueRows)
{
    CooMatrix m(32, 32);
    m.push(1, 0, 1);
    m.push(1, 5, 1);
    m.push(9, 2, 1);
    TileGrid g(m, 32, 32);
    TiledWork w = buildTiledWork(g, allTiles(g));
    KernelConfig kc;
    kc.k = 16;
    StreamBuild b = buildStreamSegments(
        w, {0}, g, hotStream(ReuseType::IntraTileDemand), kc,
        StreamPeParams{});
    ASSERT_EQ(b.segs.size(), 1u);
    // 2 unique rows gathered and written.
    EXPECT_EQ(b.segs[0].read_lines, 32u + 1u + 2u);
    EXPECT_EQ(b.segs[0].write_lines, 2u);
}

TEST(StreamPe, ComputeCyclesFollowThroughputAndOverhead)
{
    CooMatrix m = genUniform(64, 64, 500, 43);
    TileGrid g(m, 64, 64);
    TiledWork w = buildTiledWork(g, allTiles(g));
    KernelConfig kc;
    StreamPeParams p;
    p.tile_overhead_cycles = 11.0;
    WorkerTraits traits = hotStream(ReuseType::InterTile);
    traits.macs_per_cycle = 10.0;
    StreamBuild b = buildStreamSegments(w, {0}, g, traits, kc, p);
    ASSERT_EQ(b.segs.size(), 1u);
    EXPECT_NEAR(b.segs[0].compute_cycles,
                double(m.nnz()) / 10.0 + 11.0, 0.5);
}

TEST(StreamPe, RejectsNonStreamingTraits)
{
    CooMatrix m(32, 32);
    m.push(0, 0, 1);
    TileGrid g(m, 32, 32);
    TiledWork w = buildTiledWork(g, allTiles(g));
    WorkerTraits bad = coldCoo();
    EXPECT_DEATH(buildStreamSegments(w, {0}, g, bad, KernelConfig{},
                                     StreamPeParams{}),
                 "stream");
}

TEST(DemandPe, SddmmWritesScalarsNotRows)
{
    // 32 nonzeros in one row: SpMM writes one Dout row; SDDMM writes
    // 32 x 4 B = 128 B of output scalars = 2 lines.
    CooMatrix m(64, 64);
    for (Index c = 0; c < 32; ++c)
        m.push(0, c, 1);
    TileGrid g(m, 64, 64);
    UntiledWork w = buildUntiledWork(g, allTiles(g));
    auto slices = sliceUntiledWork(w, 64);
    WorkerTraits traits = coldCoo();
    DemandPeParams p;
    KernelConfig spmm;
    spmm.k = 16;
    KernelConfig sddmm = sddmmKernel(16);
    DemandBuild b_spmm = buildDemandSegments(w, slices, traits, spmm, p);
    DemandBuild b_sddmm = buildDemandSegments(w, slices, traits, sddmm, p);
    EXPECT_EQ(totalWriteLines(b_spmm.segs), 1u);   // one Dout row line
    EXPECT_EQ(totalWriteLines(b_sddmm.segs), 2u);  // 128 B of scalars
    // The U row is still read once at row start in both cases.
    EXPECT_EQ(totalReadLines(b_spmm.segs), totalReadLines(b_sddmm.segs));
}

TEST(StreamPe, SddmmSkipsDenseWriteback)
{
    CooMatrix m(32, 32);
    for (Index i = 0; i < 16; ++i)
        m.push(i, (i * 7) % 32, 1);
    TileGrid g(m, 32, 32);
    TiledWork w = buildTiledWork(g, allTiles(g));
    KernelConfig kc = sddmmKernel(16);
    StreamBuild b = buildStreamSegments(
        w, {0}, g, hotStream(ReuseType::IntraTileDemand), kc,
        StreamPeParams{});
    ASSERT_EQ(b.segs.size(), 1u);
    // Writes: only ceil(16 x 4 / 64) = 1 line of scalars, no row rows.
    EXPECT_EQ(b.segs[0].write_lines, 1u);
}

TEST(DemandPe, SpmvRowsAreSingleLines)
{
    CooMatrix m(64, 64);
    m.push(0, 1, 1);
    m.push(0, 2, 1);
    TileGrid g(m, 64, 64);
    UntiledWork w = buildUntiledWork(g, allTiles(g));
    auto slices = sliceUntiledWork(w, 64);
    WorkerTraits traits = coldCoo();
    DemandBuild b = buildDemandSegments(w, slices, traits, spmvKernel(),
                                        DemandPeParams{});
    // K=1: each dense row is still one 64-B line in the simulator.
    // 2 Din lines + 1 Dout read; 1 Dout write.
    EXPECT_EQ(totalReadLines(b.segs), 3u);
    EXPECT_EQ(totalWriteLines(b.segs), 1u);
}
