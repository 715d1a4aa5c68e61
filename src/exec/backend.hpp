#pragma once

/**
 * @file
 * Native execution layer (docs/EXECUTION.md): runs a HotTiles partition
 * plan for real on the host instead of simulating it.  The hot class
 * executes tile-by-tile through the streaming/tiled kernels of
 * src/kernels (Fig 6(b) traversal); the cold class executes untiled
 * row-major CSR panels (Fig 6(a)).  Both classes are driven by the
 * global thread pool through per-class work queues with cross-class
 * work stealing at the tail, mirroring the paper's two-worker-type
 * runtime on the only heterogeneous "accelerator" every host has:
 * a pool of CPU threads split into two roles.
 *
 * Determinism contract: accumulation is panel-local.  A task (one row
 * panel per class) of a panel its class owns alone writes the panel's
 * output rows once, straight from the CSR kernel (cold) or through a
 * tile_height x K slot buffer and one cast (hot).  A panel both classes
 * own is a join: the first task to finish parks its partial and the
 * last writes Value(hot + cold).  A panel no task covers is zeroed, so a
 * run overwrites every output cell.  No other two tasks share output
 * rows, so results are bit-identical across thread counts, executor splits,
 * queue interleavings and steals — pinned by the NativeExecDeterminism
 * suite.  Under the Golden policy they are bit-identical to
 * referenceExecute(), because every golden chain starts at +0.0 over
 * exact products (so a storing kernel equals Value(0.0 + chain)) and
 * IEEE addition commutes (so the join's order does not matter).
 */

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/compiled_plan.hpp"
#include "core/telemetry.hpp"
#include "kernels/kernel_api.hpp"
#include "partition/partition.hpp"
#include "sparse/dense.hpp"
#include "sparse/tiling.hpp"

namespace hottiles::exec {

/** Tuning and fault-injection knobs of a native execution. */
struct NativeExecOptions
{
    /** Golden = double accumulation, bit-identical to the reference
     *  executor; Fast = fp32 FMA, tolerance-checked only. */
    kernels::Policy policy = kernels::Policy::Golden;

    /** Allow idle executors to steal from the other class's queue tail
     *  once their own queue drains.  A 1-thread pool always serves both
     *  queues regardless (serial execution has no classes to idle). */
    bool work_stealing = true;

    /**
     * Executor slots dedicated to the hot class; 0 splits the pool
     * proportionally to the class nonzero shares (or to
     * @ref hot_share_hint when set).  Clamped so each class with work
     * keeps at least one slot.
     */
    unsigned hot_executors = 0;

    /** Predicted hot share of the runtime in (0, 1); 0 = use the
     *  nonzero share.  The CLI feeds the model's class totals here. */
    double hot_share_hint = 0;

    /** Record per-hot-tile / per-cold-panel wall times (the input of
     *  the measured-vs-predicted telemetry). */
    bool collect_unit_times = true;

    /**
     * Fault-injection smoke (docs/ROBUSTNESS.md, realized natively):
     * fail-stop the given class (0 = hot, 1 = cold) after its own
     * executors completed @ref fail_after_tasks tasks.  The failed
     * class's pending tasks are re-queued to the surviving class and
     * its host threads continue as surviving-class helpers; results
     * stay bit-identical.  -1 disables.
     */
    int fail_class = -1;
    size_t fail_after_tasks = 0;
};

/** Wall time of one model unit (hot tile or cold panel). */
struct UnitTime
{
    uint32_t unit = 0;   //!< tile id (hot) or panel id (cold)
    double seconds = 0;  //!< measured host wall time
};

/** Per-worker-class execution statistics. */
struct ExecClassReport
{
    size_t tasks = 0;         //!< row-panel tasks of this class
    size_t tiles = 0;         //!< tiles executed (cold: tiles merged)
    size_t nnz = 0;           //!< nonzeros executed
    size_t stolen_tasks = 0;  //!< tasks run by the other class's slots
    double busy_s = 0;        //!< summed task wall time
    std::vector<UnitTime> unit_s;  //!< hot: per tile; cold: per panel
};

/** Everything one native execution measured. */
struct ExecReport
{
    unsigned threads = 0;        //!< pool parallelism used
    unsigned hot_executors = 0;  //!< slots serving the hot queue
    unsigned cold_executors = 0;
    /** Set-up before the parallel region: panel buffers, queues and
     *  unit-time vectors, plus, for the stateless run, its memo lookup
     *  and, on a miss, the whole compile (format build included). */
    double prepare_s = 0;
    /** Zeroing the panels no task writes, then the parallel tasks. */
    double wall_s = 0;
    double gflops = 0;           //!< kernel FLOPs / wall_s
    size_t requeued_tasks = 0;   //!< fail-stop migrations to survivor
    bool class_failed = false;   //!< a fault fail-stop triggered
    ExecClassReport hot;
    ExecClassReport cold;
};

/** Compile @p p over @p grid: build both worker formats, derive the
 *  tasks, and share the result as const (only HotTiles patches a plan,
 *  and only its own). */
std::shared_ptr<const CompiledPlan> compile(const TileGrid& grid,
                                            const Partition& p);

/**
 * A backend that can execute a partition plan end-to-end.  A run
 * computes Dout = A x Din for the plan's kernel (SpMM, or SpMV as K = 1;
 * SDDMM is rejected with a FatalError until the exec layer grows
 * sparse-output support) and fills @p report when given.
 *
 * Each backend keeps, per live grid, the compiled plan of the last
 * partition the stateless run executed on it; the public methods are
 * safe to call concurrently.
 */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /**
     * Execute @p plan (HotTiles::plan() or a compile()d one), compiled
     * for @p grid, into @p out, which must be matrixRows() x kernel.k:
     * every cell is overwritten, so it may start uninitialized.  @p din
     * must be matrixCols() x kernel.k.  A plan compiled for another
     * grid, or for this one before it changed, raises a FatalError
     * before any work.
     */
    virtual void run(const TileGrid& grid, const CompiledPlan& plan,
                     const KernelConfig& kernel, const DenseMatrix& din,
                     DenseMatrix& out, ExecReport* report = nullptr) = 0;

    /**
     * Stateless convenience: run the plan this backend keeps for
     * @p grid when its is_hot equals @p p's byte for byte; otherwise
     * compile one under the memo's lock and keep it as the grid's
     * entry.  Each call first drops the entries of grids that no
     * longer exist.  A moved-from grid raises a FatalError.
     */
    DenseMatrix run(const TileGrid& grid, const Partition& p,
                    const KernelConfig& kernel, const DenseMatrix& din,
                    ExecReport* report = nullptr);

  private:
    /** One live grid's entry: the plan of the last partition run. */
    struct MemoEntry
    {
        std::weak_ptr<const void> grid;
        std::shared_ptr<const CompiledPlan> plan;
    };

    std::shared_ptr<const CompiledPlan> planFor(const TileGrid& grid,
                                                const Partition& p);

    std::mutex memo_mu_;
    std::vector<MemoEntry> memo_;
};

/** The host-CPU backend (docs/EXECUTION.md). */
std::unique_ptr<ExecutionBackend> makeNativeCpuBackend(
    const NativeExecOptions& opts = {});

/**
 * Serial golden reference executor: the same canonical per-class
 * accumulation order (hot tiles per panel in tile-column order, cold
 * panels in untiled row-major order, classes merged element-wise with a
 * single double -> Value cast) executed one unit at a time on the
 * scalar kernel tier, over work lists it builds itself from (grid, p).
 * A Golden-policy NativeCpuBackend run is bit-identical to this at any
 * thread count.
 */
DenseMatrix referenceExecute(const TileGrid& grid, const Partition& p,
                             const KernelConfig& kernel,
                             const DenseMatrix& din);

/**
 * Map measured unit times against the model estimates in @p ctx through
 * the PR 4 prediction-error shape.  Model estimates live in accelerator
 * cycles while measurements are host seconds, so each class is first
 * calibrated by a single least-squares scale (sum of predictions over
 * sum of measurements); the per-unit error left after that scaling is
 * the model's *shape* mismatch on real hardware.  Feed the result to
 * recordPredictionError() for `prediction_error.<label>.*` histograms.
 */
PredictionErrorTelemetry computeNativePredictionError(
    const TileGrid& grid, const PartitionContext& ctx,
    const std::vector<uint8_t>& is_hot, const ExecReport& report);

} // namespace hottiles::exec
