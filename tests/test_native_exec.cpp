/**
 * @file
 * The native execution backend (docs/EXECUTION.md), end to end:
 *
 *  - NativeExec: a Golden-policy run is bit-identical to the serial
 *    reference executor (and tolerance-close to the whole-matrix
 *    reference SpMM); Fast stays within kernel tolerance; both hold on
 *    cold-only, hot-only, mixed and empty row panels at K with and
 *    without SIMD tails; reports and telemetry are internally
 *    consistent; SDDMM is cleanly rejected; worker formats that do not
 *    fit the grid and partition are refused before any work.
 *  - NativeExecDeterminism: results are bit-identical across {1, 2, 7}
 *    threads and across hot/cold queue interleavings (executor splits,
 *    stealing on/off) — the disjoint-write contract in practice.
 *  - NativeExecFault: a class fail-stop migrates the remaining tasks to
 *    the surviving class without changing a single output bit.
 */

#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "arch/arch_config.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "core/telemetry.hpp"
#include "exec/backend.hpp"
#include "model/worker_traits.hpp"
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

TEST_F(NativeExec, FormatsThatDoNotFitAreRejectedBeforeAnyWork)
{
    RunSetup s(spmmKernel());
    ThreadPool::setGlobalThreads(4);
    const TileGrid& grid = s.grid();
    const Partition p = mixedPartition(grid);
    const TiledWork hot = buildTiledWork(grid, p.hotTiles());
    const UntiledWork cold = buildUntiledWork(grid, p.coldTiles());
    ASSERT_GE(cold.panels.size(), 2u);
    auto backend = exec::makeNativeCpuBackend({});
    expectBitIdentical(backend->run(grid, p, hot, cold, s.kernel(), s.din),
                       exec::referenceExecute(grid, p, s.kernel(), s.din));

    auto expectRejected = [&](const TiledWork& h, const UntiledWork& c,
                              const std::string& what) {
        try {
            backend->run(grid, p, h, c, s.kernel(), s.din);
            ADD_FAILURE() << "the formats ran; expected: " << what;
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    };
    {
        // Every tile of the first hot panel, cold ones included.
        TiledWork bad = hot;
        auto [tb, te] = grid.panelTiles(bad.panel_ids[0]);
        size_t cold_tile = tb;
        while (cold_tile < te && p.is_hot[cold_tile])
            ++cold_tile;
        ASSERT_LT(cold_tile, te);
        bad.panel_tiles[0].clear();
        for (size_t t = tb; t < te; ++t)
            bad.panel_tiles[0].push_back(t);
        expectRejected(bad, cold,
                       "tile " + std::to_string(cold_tile) +
                           ", which the partition assigns cold");
    }
    {
        UntiledWork bad = cold;
        bad.panels.back().panel = grid.numPanels();
        expectRejected(hot, bad,
                       "lists panel " + std::to_string(grid.numPanels()) +
                           " out of order or past");
    }
    {
        UntiledWork bad = cold;
        bad.panels.pop_back();
        expectRejected(hot, bad,
                       "but the grid has " +
                           std::to_string(grid.matrixNnz()));
    }
    {
        UntiledWork bad = cold;
        bad.panels[0].row_ptr.pop_back();
        expectRejected(hot, bad, "-row CSR of its cold tiles'");
    }
    {
        // One nonzero moved to the next panel: the total still holds.
        UntiledWork bad = cold;
        PanelWork& a = bad.panels[0];
        PanelWork& b = bad.panels[1];
        a.cols.pop_back();
        a.vals.pop_back();
        --a.row_ptr.back();
        b.cols.push_back(0);
        b.vals.push_back(1);
        ++b.row_ptr.back();
        expectRejected(hot, bad,
                       "cold panel " + std::to_string(a.panel) + " is not");
    }
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

} // namespace
} // namespace hottiles
