/**
 * @file
 * The native execution backend (docs/EXECUTION.md), end to end:
 *
 *  - NativeExec: a Golden-policy run is bit-identical to the serial
 *    reference executor (and tolerance-close to the whole-matrix
 *    reference SpMM); Fast stays within kernel tolerance; both hold on
 *    cold-only, hot-only, mixed and empty row panels at K with and
 *    without SIMD tails; reports and telemetry are internally
 *    consistent; SDDMM is cleanly rejected.
 *  - NativeExecDeterminism: results are bit-identical across {1, 2, 7}
 *    threads and across hot/cold queue interleavings (executor splits,
 *    stealing on/off) — the disjoint-write contract in practice.
 *  - NativeExecFault: a class fail-stop migrates the remaining tasks to
 *    the surviving class without changing a single output bit.
 *  - NativeExecPlan: the stateless run's per-backend memo of compiled
 *    plans — a repeat compiles nothing, another partition or a changed
 *    or new grid at a freed address compiles again, a moved-from grid
 *    is refused, and concurrent runs of one grid compile once.
 *  - NativeExecOutput: a run overwrites every cell of the caller's
 *    output, so it may start full of NaN.
 */

#include <cmath>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arch/arch_config.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "common/metrics.hpp"
#include "core/telemetry.hpp"
#include "exec/backend.hpp"
#include "model/worker_traits.hpp"
#include "sparse/delta.hpp"
#include "sparse/dense.hpp"
#include "sparse/generators.hpp"

namespace hottiles {
namespace {

using exec::ExecReport;
using exec::NativeExecOptions;

const unsigned kThreadCounts[] = {1, 2, 7};

/** The fixture matrix: 1536 rows, community structure. */
CooMatrix
fixtureMatrix()
{
    return genCommunity(1536, 13.0, 32, 160, 0.8, 5);
}

/** One preprocessed matrix + plan + dense input, shared per fixture. */
struct RunSetup
{
    Architecture arch;
    std::unique_ptr<HotTiles> ht;
    DenseMatrix din;

    explicit RunSetup(KernelConfig kernel, const CooMatrix& m = fixtureMatrix())
        : arch(calibrated(makeSpadeSextans(4)))
    {
        HotTilesOptions opts;
        opts.kernel = kernel;
        opts.build_formats = false;
        ht = std::make_unique<HotTiles>(arch, m, opts);
        din = DenseMatrix(ht->grid().matrixCols(), kernel.k);
        Rng rng(42);
        din.fillRandom(rng);
    }

    const TileGrid& grid() const { return ht->grid(); }
    const Partition& partition() const { return ht->partition(); }
    KernelConfig kernel() const { return ht->context().kernel; }

    DenseMatrix
    run(const NativeExecOptions& eo, ExecReport* rep = nullptr) const
    {
        return exec::makeNativeCpuBackend(eo)->run(grid(), partition(),
                                                   kernel(), din, rep);
    }

    DenseMatrix
    reference() const
    {
        return exec::referenceExecute(grid(), partition(), kernel(), din);
    }
};

/** A guaranteed-mixed assignment (the model plan can legally collapse
 *  to one class on easy matrices; these tests need both queues busy). */
Partition
mixedPartition(const TileGrid& grid)
{
    Partition p;
    p.is_hot.resize(grid.numTiles());
    for (size_t i = 0; i < p.is_hot.size(); ++i)
        p.is_hot[i] = i % 3 != 0;
    return p;
}

/** The fixture matrix without rows [512, 1024): whole row panels with
 *  no nonzero at any panel height up to 512. */
CooMatrix
matrixWithEmptyPanels()
{
    const CooMatrix full = fixtureMatrix();
    CooMatrix m(full.rows(), full.cols());
    for (size_t i = 0; i < full.nnz(); ++i)
        if (full.rowId(i) < 512 || full.rowId(i) >= 1024)
            m.push(full.rowId(i), full.colId(i), full.value(i));
    return m;
}

/** Assignment by row panel: panel % 3 == 0 is cold only, 1 hot only,
 *  2 mixed (its first tile cold, the rest hot). */
Partition
panelKindPartition(const TileGrid& grid)
{
    Partition p;
    p.is_hot.resize(grid.numTiles());
    for (size_t i = 0; i < p.is_hot.size(); ++i) {
        const Index panel = grid.tile(i).panel;
        p.is_hot[i] = panel % 3 == 1 ||
                      (panel % 3 == 2 && i != grid.panelTiles(panel).first);
    }
    return p;
}

KernelConfig
spmmKernel(uint32_t k = 32)
{
    KernelConfig kc;
    kc.kind = SparseKernel::Spmm;
    kc.k = k;
    return kc;
}

void
expectBitIdentical(const DenseMatrix& a, const DenseMatrix& b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    ASSERT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.data().size() * sizeof(Value)),
              0)
        << "results differ, max |diff| " << a.maxAbsDiff(b);
}

class NativeExec : public ::testing::Test
{
  protected:
    static void TearDownTestSuite() { ThreadPool::setGlobalThreads(0); }
};

TEST_F(NativeExec, GoldenBitIdenticalToReference)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    expectBitIdentical(s.run({}), s.reference());
}

TEST_F(NativeExec, GoldenMatchesWholeMatrixReferenceSpmm)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    // Different accumulation order than the tiled plan, so tolerance
    // rather than bits — this pins functional correctness of the plan
    // (every nonzero executed exactly once, rows routed correctly).
    EXPECT_TRUE(s.run({}).approxEqual(referenceSpmm(fixtureMatrix(), s.din)));
}

TEST_F(NativeExec, FastPolicyWithinTolerance)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    NativeExecOptions eo;
    eo.policy = kernels::Policy::Fast;
    EXPECT_TRUE(s.run(eo).approxEqual(s.reference()));
}

TEST_F(NativeExec, SpmvRunsThroughTheSamePath)
{
    RunSetup s(spmvKernel());
    ThreadPool::setGlobalThreads(4);
    expectBitIdentical(s.run({}), s.reference());
}

TEST_F(NativeExec, UniformAssignmentsExecuteCorrectly)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    for (uint8_t hot : {uint8_t(0), uint8_t(1)}) {
        SCOPED_TRACE(hot ? "all-hot" : "all-cold");
        Partition p;
        p.is_hot.assign(s.grid().numTiles(), hot);
        ExecReport rep;
        DenseMatrix out = exec::makeNativeCpuBackend({})->run(
            s.grid(), p, s.kernel(), s.din, &rep);
        expectBitIdentical(out, exec::referenceExecute(s.grid(), p,
                                                       s.kernel(), s.din));
        // The empty class must report no work and keep no executors.
        const exec::ExecClassReport& empty = hot ? rep.cold : rep.hot;
        EXPECT_EQ(empty.tasks, 0u);
        EXPECT_EQ(empty.nnz, 0u);
        EXPECT_EQ(hot ? rep.cold_executors : rep.hot_executors, 0u);
    }
}

TEST_F(NativeExec, EveryPanelKindAtEveryKTail)
{
    // K = 5 and 33 leave D-lane tails in the golden kernels.  The
    // partition gives cold-only panels (stored straight into the
    // output), hot-only ones (one cast from slot scratch; Fast adds
    // into the output), mixed ones (joined by the last finisher) and
    // empty ones (no task writes them).
    for (uint32_t k : {5u, 32u, 33u}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        RunSetup s(spmmKernel(k), matrixWithEmptyPanels());
        const Partition p = panelKindPartition(s.grid());
        size_t kinds[4] = {};  // empty, cold only, hot only, mixed
        for (Index panel = 0; panel < s.grid().numPanels(); ++panel) {
            auto [tb, te] = s.grid().panelTiles(panel);
            bool hot = false, cold = false;
            for (size_t t = tb; t < te; ++t)
                (p.is_hot[t] ? hot : cold) = true;
            ++kinds[2 * hot + cold];
        }
        for (size_t n : kinds)
            ASSERT_GT(n, 0u) << "the plan must contain every panel kind";

        const DenseMatrix ref =
            exec::referenceExecute(s.grid(), p, s.kernel(), s.din);
        NativeExecOptions fast;
        fast.policy = kernels::Policy::Fast;
        auto runWith = [&](const NativeExecOptions& eo) {
            return exec::makeNativeCpuBackend(eo)->run(s.grid(), p,
                                                       s.kernel(), s.din);
        };
        ThreadPool::setGlobalThreads(1);
        const DenseMatrix fast_serial = runWith(fast);
        for (unsigned t : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(t));
            ThreadPool::setGlobalThreads(t);
            expectBitIdentical(runWith({}), ref);
            const DenseMatrix f = runWith(fast);
            EXPECT_TRUE(f.approxEqual(ref));
            expectBitIdentical(f, fast_serial);
        }
    }
}

TEST_F(NativeExec, ReportIsInternallyConsistent)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    ExecReport rep;
    s.run({}, &rep);
    EXPECT_EQ(rep.threads, 4u);
    EXPECT_EQ(rep.hot_executors + rep.cold_executors, rep.threads);
    EXPECT_EQ(rep.hot.tiles, s.partition().hotTiles().size());
    EXPECT_EQ(rep.cold.tiles, s.partition().coldTiles().size());
    EXPECT_EQ(rep.hot.nnz + rep.cold.nnz, s.grid().matrixNnz());
    EXPECT_EQ(rep.hot.unit_s.size(), rep.hot.tiles);
    EXPECT_EQ(rep.cold.unit_s.size(), rep.cold.tasks);
    EXPECT_GT(rep.wall_s, 0.0);
    EXPECT_GT(rep.gflops, 0.0);
    EXPECT_EQ(rep.requeued_tasks, 0u);
    EXPECT_FALSE(rep.class_failed);
}

TEST_F(NativeExec, PredictionErrorCoversBothClasses)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    ExecReport rep;
    s.run({}, &rep);
    PredictionErrorTelemetry tel = exec::computeNativePredictionError(
        s.grid(), s.ht->context(), s.partition().is_hot, rep);
    EXPECT_EQ(tel.hot_tiles.size() + tel.cold_panels.size(),
              rep.hot.unit_s.size() + rep.cold.unit_s.size());
    for (const PredictionErrorSample& u : tel.hot_tiles) {
        EXPECT_GT(u.predicted_cycles, 0.0);
        EXPECT_GT(u.simulated_cycles, 0.0);
        EXPECT_GE(u.error_pct, 0.0);
    }
    PredictionErrorSummary sum = summarizePredictionError(tel.hot_tiles);
    EXPECT_EQ(sum.count, tel.hot_tiles.size());
    EXPECT_LE(sum.p50_pct, sum.p90_pct);
    EXPECT_LE(sum.p90_pct, sum.max_pct);
}

TEST_F(NativeExec, SddmmIsRejected)
{
    RunSetup s(spmmKernel());
    EXPECT_THROW(exec::makeNativeCpuBackend({})->run(
                     s.grid(), s.partition(), sddmmKernel(32), s.din),
                 FatalError);
}

class NativeExecDeterminism : public ::testing::Test
{
  protected:
    static void TearDownTestSuite() { ThreadPool::setGlobalThreads(0); }
};

TEST_F(NativeExecDeterminism, BitIdenticalAcrossThreadCounts)
{
    for (kernels::Policy pol :
         {kernels::Policy::Golden, kernels::Policy::Fast}) {
        SCOPED_TRACE(pol == kernels::Policy::Golden ? "golden" : "fast");
        RunSetup s(spmmKernel());
        NativeExecOptions eo;
        eo.policy = pol;
        ThreadPool::setGlobalThreads(1);
        const DenseMatrix baseline = s.run(eo);
        for (unsigned t : kThreadCounts) {
            SCOPED_TRACE("threads=" + std::to_string(t));
            ThreadPool::setGlobalThreads(t);
            expectBitIdentical(s.run(eo), baseline);
        }
    }
}

TEST_F(NativeExecDeterminism, BitIdenticalAcrossQueueInterleavings)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(7);
    const Partition p = mixedPartition(s.grid());
    const DenseMatrix baseline =
        exec::referenceExecute(s.grid(), p, s.kernel(), s.din);
    for (unsigned hot_execs : {0u, 1u, 3u, 6u}) {
        for (bool steal : {true, false}) {
            SCOPED_TRACE("hot_executors=" + std::to_string(hot_execs) +
                         " steal=" + std::to_string(steal));
            NativeExecOptions eo;
            eo.hot_executors = hot_execs;
            eo.work_stealing = steal;
            expectBitIdentical(exec::makeNativeCpuBackend(eo)->run(
                                   s.grid(), p, s.kernel(), s.din),
                               baseline);
        }
    }
}

class NativeExecFault : public ::testing::Test
{
  protected:
    static void TearDownTestSuite() { ThreadPool::setGlobalThreads(0); }
};

TEST_F(NativeExecFault, FailStopMigratesWorkToSurvivingClass)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    const Partition p = mixedPartition(s.grid());
    const DenseMatrix baseline =
        exec::referenceExecute(s.grid(), p, s.kernel(), s.din);
    for (int fail_class : {0, 1}) {
        SCOPED_TRACE(fail_class == 0 ? "hot fails" : "cold fails");
        NativeExecOptions eo;
        eo.fail_class = fail_class;
        // Die before the first task: every slot checks the fail-stop
        // before popping, so the whole class's queue must migrate.
        eo.fail_after_tasks = 0;
        ExecReport rep;
        expectBitIdentical(exec::makeNativeCpuBackend(eo)->run(
                               s.grid(), p, s.kernel(), s.din, &rep),
                           baseline);
        EXPECT_TRUE(rep.class_failed);
        const exec::ExecClassReport& failed =
            fail_class == 0 ? rep.hot : rep.cold;
        EXPECT_GT(rep.requeued_tasks, 0u);
        EXPECT_EQ(rep.requeued_tasks, failed.tasks);
    }
}

TEST_F(NativeExecFault, FailStopAfterSomeTasksStillCompletesEverything)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(2);
    const Partition p = mixedPartition(s.grid());
    NativeExecOptions eo;
    eo.fail_class = 0;
    eo.fail_after_tasks = 1;
    eo.work_stealing = false;  // migration must not rely on stealing
    ExecReport rep;
    expectBitIdentical(
        exec::makeNativeCpuBackend(eo)->run(s.grid(), p, s.kernel(), s.din,
                                            &rep),
        exec::referenceExecute(s.grid(), p, s.kernel(), s.din));
    EXPECT_TRUE(rep.class_failed);
    EXPECT_EQ(rep.hot.nnz + rep.cold.nnz, s.grid().matrixNnz());
}

// ------------------------------------------------ the compiled-plan memo

/** Process-wide memo lookups and format builds so far. */
struct PlanProbe
{
    uint64_t hit = 0, miss = 0, tiled = 0, untiled = 0;
};

PlanProbe
planProbe()
{
    MetricsRegistry& reg = MetricsRegistry::global();
    return {reg.counter("exec.native.plan.hit").value(),
            reg.counter("exec.native.plan.miss").value(),
            reg.timer("format.tiled_build").snapshot().count(),
            reg.timer("format.untiled_build").snapshot().count()};
}

/** Lookups and builds of the stateless run(@p grid, @p p) on @p b,
 *  checked bit for bit against the reference executor. */
PlanProbe
statelessRun(exec::ExecutionBackend& b, const TileGrid& grid,
             const Partition& p, const RunSetup& s)
{
    const PlanProbe before = planProbe();
    const DenseMatrix out = b.run(grid, p, s.kernel(), s.din);
    const PlanProbe after = planProbe();
    expectBitIdentical(out,
                       exec::referenceExecute(grid, p, s.kernel(), s.din));
    return {after.hit - before.hit, after.miss - before.miss,
            after.tiled - before.tiled, after.untiled - before.untiled};
}

void
expectHit(const PlanProbe& d)
{
    EXPECT_EQ(d.hit, 1u);
    EXPECT_EQ(d.miss, 0u);
    EXPECT_EQ(d.tiled, 0u) << "a hit must build no format";
    EXPECT_EQ(d.untiled, 0u) << "a hit must build no format";
}

void
expectMiss(const PlanProbe& d)
{
    EXPECT_EQ(d.hit, 0u);
    EXPECT_EQ(d.miss, 1u);
    EXPECT_EQ(d.tiled, 1u);
    EXPECT_EQ(d.untiled, 1u);
}

class NativeExecPlan : public ::testing::Test
{
  protected:
    static void TearDownTestSuite() { ThreadPool::setGlobalThreads(0); }
};

TEST_F(NativeExecPlan, ASecondRunOfAGridCompilesNothing)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    auto backend = exec::makeNativeCpuBackend({});
    const Partition p = mixedPartition(s.grid());
    expectMiss(statelessRun(*backend, s.grid(), p, s));
    expectHit(statelessRun(*backend, s.grid(), p, s));
    // A copy of the grid has the same contents, so it shares the plan.
    const TileGrid copy = s.grid();
    expectHit(statelessRun(*backend, copy, p, s));
    // The memo is per backend.
    expectMiss(statelessRun(*exec::makeNativeCpuBackend({}), s.grid(), p, s));
}

TEST_F(NativeExecPlan, TheGridKeepsThePlanOfItsLastPartitionOnly)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    auto backend = exec::makeNativeCpuBackend({});
    const Partition a = mixedPartition(s.grid());
    const Partition b = s.partition();
    ASSERT_NE(a.is_hot, b.is_hot);
    expectMiss(statelessRun(*backend, s.grid(), a, s));
    expectMiss(statelessRun(*backend, s.grid(), b, s));
    expectHit(statelessRun(*backend, s.grid(), b, s));
    expectMiss(statelessRun(*backend, s.grid(), a, s));
}

TEST_F(NativeExecPlan, AChangedGridCompilesAgain)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    auto backend = exec::makeNativeCpuBackend({});
    const TileGrid& grid = s.grid();  // patched in place below
    const size_t tiles = grid.numTiles();
    const Partition p = mixedPartition(grid);
    expectMiss(statelessRun(*backend, grid, p, s));

    // A cold tile (i % 3 == 0) with two nonzeros and an empty position.
    size_t tid = 0;
    Index er = 0, ec = 0;
    auto hasHole = [&](size_t t) {
        const Tile& tl = grid.tile(t);
        for (Index r = tl.row0; r < tl.row0 + tl.height; ++r)
            for (Index c = tl.col0; c < tl.col0 + tl.width; ++c)
                if (grid.findNonzero(r, c) == SIZE_MAX) {
                    er = r;
                    ec = c;
                    return true;
                }
        return false;
    };
    while (tid < tiles && (p.is_hot[tid] || grid.tile(tid).nnz < 2 ||
                           !hasHole(tid)))
        ++tid;
    ASSERT_LT(tid, tiles);

    // Move one of its nonzeros within the tile: the tile count and so
    // the partition stay the same, but the cold panel's CSR changes.
    DeltaBatch d;
    d.pushDelete(grid.tileRows(tid)[0], grid.tileCols(tid)[0]);
    d.pushInsert(er, ec, 0.5f);
    s.ht->applyDelta(d);
    ASSERT_EQ(grid.numTiles(), tiles);
    ASSERT_EQ(mixedPartition(grid).is_hot, p.is_hot);
    expectMiss(statelessRun(*backend, grid, p, s));
    expectHit(statelessRun(*backend, grid, p, s));

    // A value-only patch: the cold format holds a copy of the value.
    ValueUpdateBatch u;
    u.push(er, ec, -3.25f);
    s.ht->patchValues(u);
    expectMiss(statelessRun(*backend, grid, p, s));
    expectHit(statelessRun(*backend, grid, p, s));
    // An empty batch changes nothing.
    s.ht->patchValues(ValueUpdateBatch{});
    expectHit(statelessRun(*backend, grid, p, s));
}

TEST_F(NativeExecPlan, ANewGridAtAFreedAddressNeverMeetsTheStalePlan)
{
    // X and Y live in the same storage, one after the other: the same
    // address, two different grids of one shape and tile count.
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    auto backend = exec::makeNativeCpuBackend({});
    alignas(TileGrid) unsigned char storage[sizeof(TileGrid)];
    const Index th = s.grid().tileHeight(), tw = s.grid().tileWidth();
    auto* x = new (storage) TileGrid(fixtureMatrix(), th, tw);
    const Partition p = mixedPartition(*x);
    expectMiss(statelessRun(*backend, *x, p, s));
    x->~TileGrid();

    // The same structure with other values: a stale plan's cold panels
    // would still carry X's.
    CooMatrix m = fixtureMatrix();
    CooMatrix scaled(m.rows(), m.cols());
    for (size_t i = 0; i < m.nnz(); ++i)
        scaled.push(m.rowId(i), m.colId(i), 2 * m.value(i));
    auto* y = new (storage) TileGrid(scaled, th, tw);
    ASSERT_EQ(static_cast<void*>(y), static_cast<void*>(x));
    ASSERT_EQ(mixedPartition(*y).is_hot, p.is_hot);
    expectMiss(statelessRun(*backend, *y, p, s));
    y->~TileGrid();
}

TEST_F(NativeExecPlan, AMovedFromGridNeverHits)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    auto backend = exec::makeNativeCpuBackend({});
    const Index th = s.grid().tileHeight(), tw = s.grid().tileWidth();
    TileGrid a(fixtureMatrix(), th, tw);
    const Partition p = mixedPartition(a);
    expectMiss(statelessRun(*backend, a, p, s));

    // The contents move, and their identity with them.
    TileGrid b = std::move(a);
    expectHit(statelessRun(*backend, b, p, s));
    EXPECT_TRUE(a.identity().expired());
    const std::shared_ptr<const CompiledPlan> plan = exec::compile(b, p);
    EXPECT_TRUE(plan->compiledFor(b));
    EXPECT_FALSE(plan->compiledFor(a));

    // Nothing can be compiled for the moved-from grid: it is refused
    // before any lookup or format build.
    const PlanProbe before = planProbe();
    EXPECT_THROW(backend->run(a, p, s.kernel(), s.din), FatalError);
    EXPECT_THROW(exec::compile(a, p), FatalError);
    const PlanProbe after = planProbe();
    EXPECT_EQ(after.miss, before.miss);
    EXPECT_EQ(after.untiled, before.untiled);

    // A grid moved into the moved-from object brings its own identity.
    a = TileGrid(matrixWithEmptyPanels(), th, tw);
    const Partition q = mixedPartition(a);
    expectMiss(statelessRun(*backend, a, q, s));
    EXPECT_FALSE(plan->compiledFor(a));
}

TEST_F(NativeExecPlan, APlanRunsOnlyOnItsOwnGrid)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    auto backend = exec::makeNativeCpuBackend({});
    const Partition p = mixedPartition(s.grid());
    const auto plan = exec::compile(s.grid(), p);
    DenseMatrix out =
        DenseMatrix::uninitialized(s.grid().matrixRows(), s.kernel().k);
    backend->run(s.grid(), *plan, s.kernel(), s.din, out);
    expectBitIdentical(out, exec::referenceExecute(s.grid(), p, s.kernel(),
                                                   s.din));

    const TileGrid other(fixtureMatrix(), s.grid().tileHeight(),
                         s.grid().tileWidth());
    EXPECT_THROW(backend->run(other, *plan, s.kernel(), s.din, out),
                 FatalError);
    DenseMatrix narrow(s.grid().matrixRows(), s.kernel().k - 1);
    EXPECT_THROW(backend->run(s.grid(), *plan, s.kernel(), s.din, narrow),
                 FatalError);
}

TEST_F(NativeExecPlan, ConcurrentRunsOfOneGridCompileOnce)
{
    // A grid whose compile outlasts a scheduling slice, so the other
    // lookups race it even on a host that runs one thread at a time.
    RunSetup s(spmmKernel(), genCommunity(24576, 13.0, 32, 160, 0.8, 5));
    ThreadPool::setGlobalThreads(4);
    const Partition p = mixedPartition(s.grid());
    const DenseMatrix ref =
        exec::referenceExecute(s.grid(), p, s.kernel(), s.din);
    constexpr size_t kThreads = 8;
    for (int round = 0; round < 4; ++round) {
        auto backend = exec::makeNativeCpuBackend({});
        std::vector<DenseMatrix> outs(kThreads);
        const PlanProbe before = planProbe();
        std::latch start(kThreads);
        std::vector<std::thread> threads;
        for (size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                start.arrive_and_wait();
                outs[t] = backend->run(s.grid(), p, s.kernel(), s.din);
            });
        for (std::thread& th : threads)
            th.join();
        const PlanProbe after = planProbe();
        EXPECT_EQ(after.miss - before.miss, 1u);
        EXPECT_EQ(after.hit - before.hit, kThreads - 1);
        EXPECT_EQ(after.untiled - before.untiled, 1u);
        for (const DenseMatrix& out : outs)
            expectBitIdentical(out, ref);
    }
}

// ------------------------------------------------------ the output contract

class NativeExecOutput : public ::testing::Test
{
  protected:
    static void TearDownTestSuite() { ThreadPool::setGlobalThreads(0); }
};

TEST_F(NativeExecOutput, EveryCellOfANaNOutputIsOverwritten)
{
    // The EveryPanelKindAtEveryKTail plan: empty, cold-only, hot-only
    // and joined panels.  The output starts full of NaN, so a cell no
    // task writes, or a Fast hot task that adds into its rows without
    // zeroing them, shows.
    const Value nan = std::numeric_limits<Value>::quiet_NaN();
    for (uint32_t k : {5u, 32u, 33u}) {
        RunSetup s(spmmKernel(k), matrixWithEmptyPanels());
        const Partition p = panelKindPartition(s.grid());
        const auto plan = exec::compile(s.grid(), p);
        ASSERT_FALSE(plan->idlePanels().empty());
        ASSERT_GT(plan->joins(), 0u);
        const DenseMatrix ref =
            exec::referenceExecute(s.grid(), p, s.kernel(), s.din);
        for (unsigned t : kThreadCounts) {
            ThreadPool::setGlobalThreads(t);
            for (int fail_class : {-1, 0, 1}) {
                for (kernels::Policy pol :
                     {kernels::Policy::Golden, kernels::Policy::Fast}) {
                    SCOPED_TRACE("k=" + std::to_string(k) + " threads=" +
                                 std::to_string(t) + " fail_class=" +
                                 std::to_string(fail_class) +
                                 (pol == kernels::Policy::Golden ? " golden"
                                                                 : " fast"));
                    NativeExecOptions eo;
                    eo.policy = pol;
                    eo.fail_class = fail_class;
                    eo.fail_after_tasks = 1;
                    DenseMatrix out(s.grid().matrixRows(), k);
                    out.fill(nan);
                    exec::makeNativeCpuBackend(eo)->run(s.grid(), *plan,
                                                        s.kernel(), s.din,
                                                        out);
                    if (pol == kernels::Policy::Golden) {
                        expectBitIdentical(out, ref);
                        continue;
                    }
                    size_t nans = 0;
                    for (Value v : out.data())
                        nans += std::isnan(v);
                    EXPECT_EQ(nans, 0u);
                    EXPECT_TRUE(out.approxEqual(ref));
                }
            }
        }
    }
}

} // namespace
} // namespace hottiles
