/** @file Tests for the set-associative LRU cache and the demand PEs'
 *  Din L1 replay through it. */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/random.hpp"
#include "sim/cache.hpp"
#include "sim/demand_pe.hpp"
#include "sparse/generators.hpp"

using namespace hottiles;

TEST(Cache, ColdMissThenHit)
{
    Cache c(1024, 2, 64);  // 16 lines, 8 sets x 2 ways
    EXPECT_FALSE(c.access(5));
    EXPECT_TRUE(c.access(5));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
}

TEST(Cache, Geometry)
{
    Cache c(32 * 1024, 8, 64);
    EXPECT_EQ(c.ways(), 8u);
    EXPECT_EQ(c.numSets(), 64u);
    Cache tiny(64, 4, 64);  // degenerates to 1 set
    EXPECT_EQ(tiny.numSets(), 1u);
}

TEST(Cache, LruEvictionOrder)
{
    // 1 set, 2 ways: lines mapping to the same set contend directly.
    Cache c(128, 2, 64);
    ASSERT_EQ(c.numSets(), 1u);
    EXPECT_FALSE(c.access(1));
    EXPECT_FALSE(c.access(2));
    EXPECT_TRUE(c.access(1));   // 1 is MRU now
    EXPECT_FALSE(c.access(3));  // evicts 2 (LRU)
    EXPECT_TRUE(c.access(1));
    EXPECT_FALSE(c.access(2));  // 2 was evicted
}

TEST(Cache, SetsIsolateConflicts)
{
    Cache c(256, 1, 64);  // 4 sets, direct mapped
    ASSERT_EQ(c.numSets(), 4u);
    // Lines 0..3 map to distinct sets; all fit simultaneously.
    for (uint64_t l = 0; l < 4; ++l)
        EXPECT_FALSE(c.access(l));
    for (uint64_t l = 0; l < 4; ++l)
        EXPECT_TRUE(c.access(l));
    // Line 4 conflicts with line 0 only.
    EXPECT_FALSE(c.access(4));
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(1));
}

TEST(Cache, CapacityWorkingSet)
{
    Cache c(64 * 64, 8, 64);  // 64 lines total
    // A working set of 32 lines fits: second pass all hits.
    for (uint64_t l = 0; l < 32; ++l)
        c.access(l);
    uint64_t misses_before = c.misses();
    for (uint64_t l = 0; l < 32; ++l)
        EXPECT_TRUE(c.access(l)) << l;
    EXPECT_EQ(c.misses(), misses_before);
    // A streaming scan of 1000 lines mostly misses.
    Cache s(64 * 64, 8, 64);
    for (uint64_t l = 0; l < 1000; ++l)
        s.access(l);
    EXPECT_EQ(s.hits(), 0u);
}

TEST(Cache, ResetClearsContentsAndStats)
{
    Cache c(1024, 4, 64);
    c.access(1);
    c.access(1);
    c.reset();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_FALSE(c.access(1));  // contents gone
}

TEST(Cache, HitRateEmptyIsZero)
{
    Cache c(1024, 4, 64);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.0);
}

namespace {

/**
 * The reference true LRU: each set keeps its ways in recency order
 * (front = most recently used) with a valid flag per way, and every
 * access shifts them.  Cache must give the same hit or miss on every
 * access.
 */
class ShiftLru
{
  public:
    ShiftLru(uint32_t sets, uint32_t ways)
        : sets_(sets), ways_(ways), tags_(size_t(sets) * ways),
          valid_(size_t(sets) * ways)
    {
    }

    bool
    access(uint64_t line)
    {
        uint64_t* tags = tags_.data() + (line % sets_) * ways_;
        uint8_t* valid = valid_.data() + (line % sets_) * ways_;
        uint32_t w = 0;
        while (w < ways_ && !(valid[w] && tags[w] == line))
            ++w;
        const bool hit = w < ways_;
        for (uint32_t k = hit ? w : ways_ - 1; k > 0; --k) {
            tags[k] = tags[k - 1];
            valid[k] = valid[k - 1];
        }
        tags[0] = line;
        valid[0] = 1;
        return hit;
    }

    void reset() { std::fill(valid_.begin(), valid_.end(), 0); }

  private:
    uint32_t sets_;
    uint32_t ways_;
    std::vector<uint64_t> tags_;
    std::vector<uint8_t> valid_;
};

/** Lines drawn from a working set about twice the capacity: heavy
 *  reuse, with both hits and conflict misses in every set. */
uint64_t
reuseLine(Rng& rng, uint32_t capacity)
{
    return rng.nextBounded(2 * uint64_t(capacity) + 1);
}

} // namespace

TEST(Cache, MatchesShiftOrderedLruOracle)
{
    for (uint32_t ways : {1u, 2u, 3u, 4u, 8u, 16u}) {
        for (uint32_t sets : {1u, 3u, 4u, 16u, 24u}) {
            const uint32_t capacity = sets * ways;
            for (int streaming = 0; streaming < 2; ++streaming) {
                SCOPED_TRACE(testing::Message()
                             << ways << " ways, " << sets << " sets, "
                             << (streaming ? "streaming runs" : "reuse"));
                Cache cache(uint64_t(capacity) * 64, ways, 64);
                ASSERT_EQ(cache.numSets(), sets);
                ShiftLru oracle(sets, ways);
                Rng rng(1000 * ways + 10 * sets + uint64_t(streaming));
                const int n = 4000;
                uint64_t next = 0;  // next line of the current run
                int run_left = 0;
                uint64_t hits = 0;
                for (int i = 0; i < n; ++i) {
                    if (i == n / 2) {
                        cache.reset();
                        oracle.reset();
                    }
                    if (streaming && run_left == 0) {
                        // A run of up to 3x the capacity over one of four
                        // regions: a re-streamed region hits while it
                        // fits and thrashes the LRU ways when it does not.
                        next = rng.nextBounded(4) * 4 * uint64_t(capacity);
                        run_left = 1 + int(rng.nextBounded(3 * capacity));
                    }
                    uint64_t line;
                    if (streaming && !rng.nextBool(0.25)) {
                        line = next++;
                        --run_left;
                    } else {
                        line = reuseLine(rng, capacity);
                    }
                    const bool expect = oracle.access(line);
                    ASSERT_EQ(cache.access(line), expect)
                        << "access " << i << ", line " << line;
                    hits += expect;
                }
                // The streams exercise both outcomes.
                EXPECT_GT(hits, 0u);
                EXPECT_LT(hits, uint64_t(n));
                EXPECT_EQ(cache.hits() + cache.misses(), uint64_t(n - n / 2));
            }
        }
    }
}

/**
 * buildDemandSegments decides gcd(row lines, L1 sets) adjacent Din lines
 * per L1 access.  Against a line-by-line replay of the same traversal
 * through the oracle, for (row lines, sets) pairs whose span is 1, a
 * whole row, or in between, with rows narrower and wider than the set
 * count: the L1 hits and misses, and per segment the Din lines saved.
 */
TEST(DemandL1, ReplayMatchesLineByLineOracle)
{
    const CooMatrix m = genRmat(1024, 12000, 0.57, 0.19, 0.19, 0.05, 91);
    const TileGrid g(m, 128, 128);
    std::vector<size_t> tiles(g.numTiles());
    std::iota(tiles.begin(), tiles.end(), size_t(0));
    const UntiledWork w = buildUntiledWork(g, tiles);
    const std::vector<PanelSlice> slices = sliceUntiledWork(w, 64);
    const WorkerTraits traits;  // fp32 COO
    const uint32_t ways = 4;
    const std::pair<uint32_t, uint32_t> shapes[] = {
        {1, 16}, {2, 16}, {3, 16}, {4, 4},  {5, 4},  {6, 4},
        {8, 4},  {2, 1},  {12, 8}, {5, 24}, {6, 24}, {16, 24}};
    for (const auto& [row_lines, sets] : shapes) {
        SCOPED_TRACE(testing::Message() << row_lines << " lines per row, "
                                        << sets << " sets, span "
                                        << std::gcd(row_lines, sets));
        KernelConfig kc;
        kc.k = row_lines * 16;  // 16 fp32 values per 64-byte line
        DemandPeParams p;
        p.l1_bytes = uint64_t(sets) * ways * 64;
        p.l1_ways = ways;
        const DemandBuild b = buildDemandSegments(w, slices, traits, kc, p);
        p.l1_bytes = 0;
        const DemandBuild raw = buildDemandSegments(w, slices, traits, kc, p);

        ShiftLru oracle(sets, ways);
        std::vector<uint32_t> nnz_hits;  // per nonzero, traversal order
        uint64_t hits = 0;
        for (const PanelSlice& sl : slices) {
            const PanelWork& pw = w.panels[sl.panel];
            for (size_t i = pw.row_ptr[sl.row_begin];
                 i < pw.row_ptr[sl.row_end]; ++i) {
                uint32_t h = 0;
                for (uint32_t j = 0; j < row_lines; ++j)
                    h += oracle.access(uint64_t(pw.cols[i]) * row_lines + j);
                nnz_hits.push_back(h);
                hits += h;
            }
        }
        const uint64_t lines = uint64_t(nnz_hits.size()) * row_lines;
        EXPECT_EQ(b.din_hits, hits);
        EXPECT_EQ(b.din_misses, lines - hits);
        EXPECT_GT(hits, 0u);
        EXPECT_LT(hits, lines);

        ASSERT_EQ(b.segs.size(), raw.segs.size());
        size_t next = 0;
        for (size_t s = 0; s < b.segs.size(); ++s) {
            ASSERT_EQ(b.segs[s].nnz, raw.segs[s].nnz);
            ASSERT_LE(next + b.segs[s].nnz, nnz_hits.size());
            uint64_t saved = 0;
            for (uint32_t n = 0; n < b.segs[s].nnz; ++n)
                saved += nnz_hits[next++];
            EXPECT_EQ(raw.segs[s].read_lines - b.segs[s].read_lines, saved)
                << "segment " << s;
        }
        EXPECT_EQ(next, nnz_hits.size());
    }
}
