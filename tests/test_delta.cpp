/**
 * @file
 * The incremental-update path (docs/INCREMENTAL.md), pinned against the
 * from-scratch pipeline at every layer:
 *
 *  - IncrementalDelta: the DeltaBatch contract — applyDeltaToCoo
 *    correctness, genDeltaBatch determinism, and the violation classes
 *    (insert of an existing coordinate, delete of a missing one,
 *    duplicates, out-of-bounds) all raising FatalError without
 *    corrupting state.
 *  - IncrementalTiling: TileGrid::applyDelta is bit-identical to a
 *    fresh TileGrid over the patched matrix, including the in-place
 *    splice fast path and the reallocating growth fallback.
 *  - IncrementalPipeline: the property test — chained randomized
 *    insert/delete batches through HotTiles::applyDelta keep the grid,
 *    partition plan and SpMM output bit-identical to from-scratch
 *    preprocessing across {1, 2, 7} threads, and a native run of the
 *    patched plan equals the reference on the fresh build.
 *  - IncrementalPatchValues: the value-only fast path patches the tiled
 *    arrays and the plan's cold format into the state of a fresh build,
 *    and the patched plan executes like it.
 *  - IncrementalFingerprint: chaining a delta through the
 *    FingerprintAccumulator equals re-fingerprinting the patched
 *    matrix, and structural changes never leave the fingerprint fixed.
 */

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/arch_config.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "exec/backend.hpp"
#include "serve/fingerprint.hpp"
#include "sparse/delta.hpp"
#include "sparse/generators.hpp"
#include "sparse/tiling.hpp"

namespace hottiles {
namespace {

CooMatrix
testMatrix(uint64_t seed)
{
    return genRmat(1 << 11, size_t(12) << 11, 0.57, 0.19, 0.19, 0.05, seed);
}

const Architecture&
testArch()
{
    static Architecture arch = calibrated(makeSpadeSextans(2));
    return arch;
}

bool
sameCoo(const CooMatrix& a, const CooMatrix& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           a.nnz() == b.nnz() && a.rowIds() == b.rowIds() &&
           a.colIds() == b.colIds() &&
           std::memcmp(a.values().data(), b.values().data(),
                       a.nnz() * sizeof(Value)) == 0;
}

bool
sameGrid(const TileGrid& a, const TileGrid& b)
{
    if (a.numTiles() != b.numTiles() || a.matrixNnz() != b.matrixNnz())
        return false;
    for (size_t i = 0; i < a.numTiles(); ++i) {
        if (std::memcmp(&a.tile(i), &b.tile(i), sizeof(Tile)) != 0)
            return false;
        auto ar = a.tileRows(i), br = b.tileRows(i);
        auto ac = a.tileCols(i), bc = b.tileCols(i);
        auto av = a.tileVals(i), bv = b.tileVals(i);
        if (std::memcmp(ar.data(), br.data(), ar.size() * sizeof(Index)) !=
                0 ||
            std::memcmp(ac.data(), bc.data(), ac.size() * sizeof(Index)) !=
                0 ||
            std::memcmp(av.data(), bv.data(), av.size() * sizeof(Value)) != 0)
            return false;
    }
    return true;
}

// ------------------------------------------------- the batch contract

TEST(IncrementalDelta, ApplyToCooMatchesManualEdit)
{
    CooMatrix m(4, 4, {{0, 0, 1.0}, {1, 2, 2.0}, {3, 3, 3.0}});
    DeltaBatch d;
    d.pushInsert(2, 1, 5.0);
    d.pushDelete(1, 2);
    CooMatrix patched = applyDeltaToCoo(m, d);
    CooMatrix want(4, 4, {{0, 0, 1.0}, {2, 1, 5.0}, {3, 3, 3.0}});
    want.sortRowMajor();
    EXPECT_TRUE(sameCoo(patched, want));
    // The input is untouched.
    EXPECT_EQ(m.nnz(), 3u);
}

TEST(IncrementalDelta, GenBatchIsDeterministicAndWellFormed)
{
    CooMatrix m = testMatrix(3);
    DeltaBatch a = genDeltaBatch(m, 16, 16, 99);
    DeltaBatch b = genDeltaBatch(m, 16, 16, 99);
    EXPECT_EQ(a.ins_rows, b.ins_rows);
    EXPECT_EQ(a.ins_cols, b.ins_cols);
    EXPECT_EQ(a.del_rows, b.del_rows);
    EXPECT_EQ(a.del_cols, b.del_cols);
    EXPECT_EQ(a.inserts(), 16u);
    EXPECT_EQ(a.deletes(), 16u);
    // Collision-free by construction: the patched matrix has exactly
    // nnz + inserts - deletes nonzeros (a collision would throw below).
    CooMatrix patched = applyDeltaToCoo(m, a);
    EXPECT_EQ(patched.nnz(), m.nnz());

    DeltaBatch c = genDeltaBatch(m, 16, 16, 100);
    EXPECT_NE(a.ins_rows, c.ins_rows);
}

TEST(IncrementalDelta, ContractViolationsThrow)
{
    CooMatrix m(4, 4, {{0, 0, 1.0}, {1, 2, 2.0}});

    DeltaBatch ins_existing;
    ins_existing.pushInsert(1, 2, 9.0);
    EXPECT_THROW(applyDeltaToCoo(m, ins_existing), FatalError);

    DeltaBatch del_missing;
    del_missing.pushDelete(2, 2);
    EXPECT_THROW(applyDeltaToCoo(m, del_missing), FatalError);

    DeltaBatch dup;
    dup.pushInsert(3, 3, 1.0);
    dup.pushInsert(3, 3, 2.0);
    EXPECT_THROW(applyDeltaToCoo(m, dup), FatalError);

    DeltaBatch oob;
    oob.pushInsert(4, 0, 1.0);
    EXPECT_THROW(applyDeltaToCoo(m, oob), FatalError);
}

TEST(IncrementalDelta, ViolationLeavesGridUnmodified)
{
    CooMatrix m = testMatrix(4);
    const Architecture& arch = testArch();
    TileGrid grid(m, arch.tile_height, arch.tile_width);
    TileGrid before(m, arch.tile_height, arch.tile_width);

    DeltaBatch bad;
    bad.pushDelete(m.rowId(0), m.colId(0));
    bad.pushInsert(m.rowId(0), m.colId(0), 1.0);  // exists -> violation
    EXPECT_THROW(grid.applyDelta(bad), FatalError);
    EXPECT_TRUE(sameGrid(grid, before));
}

// ------------------------------------------------- tiling layer splice

TEST(IncrementalTiling, PatchedGridMatchesFreshBuild)
{
    const Architecture& arch = testArch();
    CooMatrix m = testMatrix(5);
    TileGrid grid(m, arch.tile_height, arch.tile_width);
    for (uint64_t round = 0; round < 4; ++round) {
        DeltaBatch d = genDeltaBatch(m, 24, 24, 500 + round);
        TileGridDelta gd = grid.applyDelta(d);
        m = applyDeltaToCoo(m, d);
        TileGrid fresh(m, arch.tile_height, arch.tile_width);
        ASSERT_TRUE(sameGrid(grid, fresh)) << "round " << round;
        EXPECT_EQ(gd.inserted, 24u);
        EXPECT_EQ(gd.deleted, 24u);
        EXPECT_FALSE(gd.empty());
        EXPECT_EQ(gd.old_panel_begin.size(),
                  size_t(grid.numPanels()) + 1);
    }
}

TEST(IncrementalTiling, GrowthPastCapacityTakesTheFallback)
{
    // Insert far more nonzeros than the tiled arrays' slack can absorb,
    // forcing the reallocating fallback path; identity must still hold.
    const Architecture& arch = testArch();
    CooMatrix m = testMatrix(6);
    TileGrid grid(m, arch.tile_height, arch.tile_width);
    DeltaBatch d = genDeltaBatch(m, m.nnz() / 2, 0, 7);
    grid.applyDelta(d);
    m = applyDeltaToCoo(m, d);
    TileGrid fresh(m, arch.tile_height, arch.tile_width);
    EXPECT_TRUE(sameGrid(grid, fresh));
}

TEST(IncrementalTiling, DeleteOnlyShrinksInPlace)
{
    const Architecture& arch = testArch();
    CooMatrix m = testMatrix(8);
    TileGrid grid(m, arch.tile_height, arch.tile_width);
    DeltaBatch d = genDeltaBatch(m, 0, 64, 11);
    TileGridDelta gd = grid.applyDelta(d);
    m = applyDeltaToCoo(m, d);
    TileGrid fresh(m, arch.tile_height, arch.tile_width);
    EXPECT_TRUE(sameGrid(grid, fresh));
    EXPECT_EQ(gd.deleted, 64u);
    EXPECT_EQ(grid.matrixNnz(), m.nnz());
}

// --------------------------------------- whole-pipeline property test

/** A Golden native run of @p ht's own plan — what a session executes —
 *  must equal @p ref bit for bit. */
void
expectPlanRunsLike(const HotTiles& ht, const DenseMatrix& din,
                   const DenseMatrix& ref)
{
    DenseMatrix out =
        DenseMatrix::uninitialized(ht.grid().matrixRows(), ht.kernel().k);
    exec::makeNativeCpuBackend()->run(ht.grid(), ht.plan(), ht.kernel(), din,
                                      out);
    ASSERT_EQ(out.data().size(), ref.data().size());
    EXPECT_EQ(std::memcmp(out.data().data(), ref.data().data(),
                          out.data().size() * sizeof(Value)),
              0);
}

/** Chained random deltas through HotTiles::applyDelta: the state and
 *  the SpMM output must stay bit-identical to from-scratch
 *  preprocessing at every step. */
void
runPipelineProperty(unsigned threads)
{
    const unsigned before = ThreadPool::globalThreads();
    ThreadPool::setGlobalThreads(threads);
    const Architecture& arch = testArch();
    HotTilesOptions opts;
    opts.kernel.k = 16;

    CooMatrix m = testMatrix(21);
    HotTiles ht(arch, m, opts);
    DenseMatrix din(m.cols(), opts.kernel.k);
    Rng rng(77);
    din.fillRandom(rng);

    Rng shape(1234 + threads);
    for (uint64_t round = 0; round < 5; ++round) {
        const size_t ins = size_t(shape() % 40);
        const size_t del = size_t(shape() % 40);
        DeltaBatch d = genDeltaBatch(m, ins, del, 9000 + round);
        DeltaUpdateStats st = ht.applyDelta(d);
        EXPECT_EQ(st.inserts, ins);
        EXPECT_EQ(st.deletes, del);

        m = applyDeltaToCoo(m, d);
        HotTiles fresh(arch, m, opts);
        ASSERT_TRUE(samePreprocessedState(ht, fresh))
            << "threads=" << threads << " round=" << round;

        DenseMatrix out_inc = exec::referenceExecute(
            ht.grid(), ht.partition(), opts.kernel, din);
        DenseMatrix out_fresh = exec::referenceExecute(
            fresh.grid(), fresh.partition(), opts.kernel, din);
        ASSERT_EQ(out_inc.data().size(), out_fresh.data().size());
        ASSERT_EQ(std::memcmp(out_inc.data().data(),
                              out_fresh.data().data(),
                              out_inc.data().size() * sizeof(Value)),
                  0)
            << "threads=" << threads << " round=" << round;
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " round=" + std::to_string(round));
        expectPlanRunsLike(ht, din, out_fresh);
    }
    EXPECT_GT(ht.timing().update_s, 0.0);
    ThreadPool::setGlobalThreads(before);
}

TEST(IncrementalPipeline, BitIdenticalToRebuildAt1Thread)
{
    runPipelineProperty(1);
}

TEST(IncrementalPipeline, BitIdenticalToRebuildAt2Threads)
{
    runPipelineProperty(2);
}

TEST(IncrementalPipeline, BitIdenticalToRebuildAt7Threads)
{
    runPipelineProperty(7);
}

TEST(IncrementalPipeline, ThreadCountsAgreeWithEachOther)
{
    // The incremental path itself must be thread-count invariant: the
    // same update stream at 1 and at 7 threads lands on one state.
    const Architecture& arch = testArch();
    HotTilesOptions opts;
    opts.kernel.k = 8;
    const unsigned before = ThreadPool::globalThreads();

    auto stream = [&](unsigned threads) {
        ThreadPool::setGlobalThreads(threads);
        CooMatrix m = testMatrix(31);
        auto ht = std::make_unique<HotTiles>(arch, m, opts);
        for (uint64_t round = 0; round < 3; ++round) {
            DeltaBatch d = genDeltaBatch(m, 20, 20, 400 + round);
            ht->applyDelta(d);
            m = applyDeltaToCoo(m, d);
        }
        return ht;
    };
    auto a = stream(1);
    auto b = stream(7);
    ThreadPool::setGlobalThreads(before);
    EXPECT_TRUE(samePreprocessedState(*a, *b));
}

TEST(IncrementalPipeline, UpdateStageLandsInTiming)
{
    const Architecture& arch = testArch();
    CooMatrix m = testMatrix(41);
    HotTiles ht(arch, m, {});
    EXPECT_EQ(ht.timing().update_s, 0.0);
    DeltaBatch d = genDeltaBatch(m, 8, 8, 5);
    ht.applyDelta(d);
    const PreprocessTiming& pt = ht.timing();
    EXPECT_GT(pt.update_s, 0.0);
    // stages() must surface the update stage so reporting code that
    // iterates it (the Fig 18 table) never silently drops it.
    bool found = false;
    for (const PreprocessStage& s : pt.stages())
        found = found || std::string(s.name) == "update";
    EXPECT_TRUE(found);
    EXPECT_GE(pt.total(), pt.update_s);
}

// ------------------------------------------------- value-only patch

TEST(IncrementalPatchValues, HotAndColdEntriesMatchRebuild)
{
    const Architecture& arch = testArch();
    HotTilesOptions opts;
    opts.build_formats = true;
    CooMatrix m = testMatrix(61);
    HotTiles ht(arch, m, opts);

    // Every 97th nonzero, so both classes and many panels are hit; the
    // first coordinate repeats at the end (last write wins).
    ValueUpdateBatch u;
    size_t hot = 0, cold = 0;
    for (size_t i = 0; i < m.nnz(); i += 97) {
        size_t tile = 0;
        ASSERT_NE(ht.grid().findNonzero(m.rowId(i), m.colId(i), &tile),
                  SIZE_MAX);
        (ht.partition().is_hot[tile] ? hot : cold) += 1;
        u.push(m.rowId(i), m.colId(i), Value(i % 13) - 6.5f);
    }
    u.push(m.rowId(0), m.colId(0), 42.0f);
    ASSERT_GT(hot, 0u);
    ASSERT_GT(cold, 0u);

    EXPECT_EQ(ht.patchValues(u), u.size());
    HotTiles fresh(arch, applyValueUpdatesToCoo(m, u), opts);
    EXPECT_TRUE(samePreprocessedState(ht, fresh));
    DenseMatrix din(m.cols(), opts.kernel.k);
    Rng rng(78);
    din.fillRandom(rng);
    expectPlanRunsLike(ht, din,
                       exec::referenceExecute(fresh.grid(), fresh.partition(),
                                              fresh.kernel(), din));
}

// ------------------------------------------- fingerprint delta chain

TEST(IncrementalFingerprint, ChainedDeltaEqualsRefingerprint)
{
    const Architecture& arch = testArch();
    CooMatrix m = testMatrix(51);
    serve::FingerprintAccumulator acc(m, arch.tile_height, arch.tile_width);
    EXPECT_EQ(acc.fingerprint(),
              serve::fingerprintStructure(m, arch.tile_height,
                                          arch.tile_width));
    for (uint64_t round = 0; round < 4; ++round) {
        DeltaBatch d = genDeltaBatch(m, 12, 12, 600 + round);
        acc.applyDelta(d);
        m = applyDeltaToCoo(m, d);
        EXPECT_EQ(acc.fingerprint(),
                  serve::fingerprintStructure(m, arch.tile_height,
                                              arch.tile_width))
            << "round " << round;
        EXPECT_EQ(acc.nnz(), m.nnz());
    }
}

TEST(IncrementalFingerprint, StructuralChangeMovesTheFingerprint)
{
    const Architecture& arch = testArch();
    CooMatrix m = testMatrix(61);
    serve::FingerprintAccumulator acc(m, arch.tile_height, arch.tile_width);
    serve::PlanFingerprint before = acc.fingerprint();
    DeltaBatch d = genDeltaBatch(m, 1, 1, 9);
    acc.applyDelta(d);
    EXPECT_FALSE(acc.fingerprint() == before);

    // Undoing the delta restores the fingerprint exactly (the
    // coordinate half is an exact +/- sum, not an approximation).
    DeltaBatch undo;
    for (size_t i = 0; i < d.inserts(); ++i)
        undo.pushDelete(d.ins_rows[i], d.ins_cols[i]);
    for (size_t i = 0; i < d.deletes(); ++i)
        undo.pushInsert(d.del_rows[i], d.del_cols[i], 1.0);
    acc.applyDelta(undo);
    EXPECT_TRUE(acc.fingerprint() == before);
}

} // namespace
} // namespace hottiles
