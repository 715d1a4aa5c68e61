/**
 * @file
 * NativeCpuBackend: executes a partition plan for real on the host
 * (docs/EXECUTION.md).  Work model:
 *
 *  - A run executes a CompiledPlan (core/compiled_plan.hpp): the worker
 *    formats with the tasks and joins derived from them.  The stateless
 *    entry keeps each grid's last plan in the backend's memo, so a
 *    repeated run compiles nothing.
 *  - The unit of scheduling is one row panel per class.  A hot task runs
 *    the panel's hot tiles in tile-column order through the streaming
 *    COO kernels; a cold task runs the panel's merged cold nonzeros, a
 *    panel-local CSR (PanelWork), through the row-traversal kernels.
 *  - The pool's T threads become T executor slots split between the two
 *    classes.  Each slot pops its own class queue from the front and,
 *    once that drains, steals from the other queue's tail.
 *  - Accumulation is panel-local.  A panel one class owns alone is
 *    written once into the output by its task: cold through the storing
 *    CSR kernel, hot through a tile_height x K slot buffer and one cast
 *    (Fast: straight into the output rows, which the task zeroes
 *    first).  A panel both classes own is a join: the first task to
 *    finish parks its partial, and the last one merges both into the
 *    output (finishJoin).  A panel no task covers is zeroed before the
 *    tasks start, so the caller's output may start uninitialized.  No
 *    two tasks write the same output row outside a join, so the result
 *    does not depend on thread count, split or interleaving.  Under the
 *    Golden policy it is bit-identical to referenceExecute() because every
 *    golden chain starts at +0.0 over exact products (a storing kernel
 *    equals Value(0.0 + chain)) and IEEE addition commutes (a join's
 *    Value(h + c) does not depend on which class finished last).
 *
 * Fault fail-stop: once the failed class's own executors complete the
 * configured number of tasks, its remaining queue is spliced onto the
 * survivor's queue under both queue locks (the splicing slot keeps
 * draining afterwards, so migrated tasks can never be orphaned by slots
 * that already observed empty queues and exited).
 */

#include "exec/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <mutex>
#include <type_traits>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/preprocess.hpp"
#include "kernels/dispatch.hpp"
#include "sim/worklist.hpp"

namespace hottiles::exec {
namespace {

using kernels::CooView;
using kernels::CsrView;
using kernels::KernelOps;
using kernels::Policy;

struct Task
{
    uint8_t cls = 0;  //!< 0 = hot, 1 = cold
    uint32_t idx = 0;
};

/** Mutex-guarded task deque: owners pop the front, thieves the tail. */
class TaskQueue
{
  public:
    void push(Task t) { q_.push_back(t); }  //!< pre-fill, single thread

    bool popFront(Task* t)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (q_.empty())
            return false;
        *t = q_.front();
        q_.pop_front();
        return true;
    }

    bool popBack(Task* t)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (q_.empty())
            return false;
        *t = q_.back();
        q_.pop_back();
        return true;
    }

    /** Move everything from @p from to the back of @p to (both locked
     *  at once, so tasks are never invisible mid-splice). */
    friend size_t drainInto(TaskQueue& from, TaskQueue& to)
    {
        std::scoped_lock lk(from.mu_, to.mu_);
        const size_t n = from.q_.size();
        to.q_.insert(to.q_.end(), from.q_.begin(), from.q_.end());
        from.q_.clear();
        return n;
    }

  private:
    std::mutex mu_;
    std::deque<Task> q_;
};

/** What every entry point checks first: the kernel and Din's shape. */
void validate(const TileGrid& grid, const KernelConfig& kernel,
              const DenseMatrix& din)
{
    HT_FATAL_IF(kernel.kind == SparseKernel::Sddmm,
                "native exec: SDDMM needs sparse-output support the exec "
                "layer does not have yet; run --kernel spmm or spmv");
    HT_FATAL_IF(kernel.k < 1, "native exec: kernel K must be >= 1");
    HT_FATAL_IF(din.rows() != grid.matrixCols() || din.cols() != kernel.k,
                "native exec: dense input must be ", grid.matrixCols(), " x ",
                kernel.k, ", got ", din.rows(), " x ", din.cols());
}

/** First row and height of row panel @p panel. */
std::pair<Index, Index> panelRows(const TileGrid& grid, Index panel)
{
    const Index row0 = panel * grid.tileHeight();
    return {row0, std::min(grid.tileHeight(), grid.matrixRows() - row0)};
}

/** Slots serving the hot queue (the rest serve cold). */
unsigned splitSlots(unsigned threads, const CompiledPlan& plan,
                    const NativeExecOptions& opts)
{
    const bool has_hot = !plan.tasks(0).empty();
    const bool has_cold = !plan.tasks(1).empty();
    if (!has_hot)
        return 0;
    if (!has_cold || threads == 1)
        return has_cold ? 1 : threads;
    unsigned h;
    if (opts.hot_executors > 0) {
        h = opts.hot_executors;
    } else {
        double share = opts.hot_share_hint;
        if (share <= 0 || share >= 1) {
            const double hot_nnz = double(plan.hot().total_nnz);
            share = hot_nnz / (hot_nnz + double(plan.cold().total_nnz));
        }
        h = unsigned(std::lround(share * threads));
    }
    return std::clamp(h, 1u, threads - 1);
}

/** Fail-stop coordination (see file header). */
struct FaultState
{
    int fail_class = -1;
    size_t threshold = 0;
    std::atomic<size_t> own_done{0};
    std::atomic<bool> failed{false};
    std::atomic<size_t> requeued{0};
};

struct SlotClassStats
{
    size_t tasks = 0;
    size_t tiles = 0;
    size_t nnz = 0;
    size_t stolen = 0;
    double busy_s = 0;
};

struct SlotStats
{
    SlotClassStats cls[2];
};

/** Uninitialized cache-line-aligned array: AlignedAllocator storage
 *  without std::vector's zero-fill. */
template <class T>
class AlignedBuffer
{
  public:
    explicit AlignedBuffer(size_t n)
        : n_(n), p_(AlignedAllocator<T>().allocate(n))
    {
    }
    ~AlignedBuffer() { AlignedAllocator<T>().deallocate(p_, n_); }
    AlignedBuffer(const AlignedBuffer&) = delete;
    AlignedBuffer& operator=(const AlignedBuffer&) = delete;

    T* data() const { return p_; }

  private:
    size_t n_;
    T* p_;
};

/**
 * Everything a task execution needs, shared across slots.  Acc is the
 * partial-sum type: double under Golden, Value under Fast.  A panel
 * buffer holds one panel's partial, row-major with leading dimension k.
 */
template <class Acc>
struct RunContext
{
    static constexpr bool kGolden = std::is_same_v<Acc, double>;

    const TileGrid* grid = nullptr;
    const CompiledPlan* plan = nullptr;
    const KernelOps* ops = nullptr;
    Index k = 1;
    const Value* din = nullptr;
    Value* out = nullptr;  //!< rows x k, the caller's
    bool collect = true;
    UnitTime* hot_units = nullptr;   //!< one per hot tile
    UnitTime* cold_units = nullptr;  //!< one per cold task
    Acc* spares = nullptr;           //!< one panel buffer per join
    size_t stride = 0;               //!< elements per panel buffer
    std::atomic<Acc*>* parked = nullptr;  //!< per join: first partial
};

/**
 * Hand a finished join task's partial @p part to the panel's join.  The
 * first finisher parks it; if @p part is the slot's buffer @p buf, the
 * slot continues on the join's spare, so no partial is ever copied.  The
 * last finisher writes Value(part + parked) over the panel's @p n
 * output cells @p o.  IEEE addition commutes, so the bits do not depend
 * on which class finished first.  Under Fast the hot partial is @p o
 * itself and the sum updates it in place.
 */
template <class Acc>
void finishJoin(const RunContext<Acc>& rc, Acc*& buf, uint32_t join,
                Acc* part, Value* o, size_t n)
{
    Acc* parked = nullptr;
    if (rc.parked[join].compare_exchange_strong(parked, part,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        if (part == buf)
            buf = rc.spares + size_t(join) * rc.stride;
        return;
    }
    for (size_t i = 0; i < n; ++i)
        o[i] = Value(part[i] + parked[i]);
}

template <class Acc>
void runHotTask(const RunContext<Acc>& rc, Acc*& buf, size_t task_idx)
{
    const PanelTask& ht = rc.plan->tasks(0)[task_idx];
    const TileGrid& grid = *rc.grid;
    const auto [row0, height] = panelRows(grid, ht.panel);
    const size_t n = size_t(height) * rc.k;
    Value* o = rc.out + size_t(row0) * rc.k;
    // Golden accumulates the panel in double scratch; Fast accumulates
    // straight into its output rows, zeroed first.
    Acc* part = buf;
    if constexpr (!RunContext<Acc>::kGolden)
        part = o;
    std::fill_n(part, n, Acc(0));
    size_t unit = ht.unit0;
    for (size_t tid : rc.plan->hot().panel_tiles[task_idx]) {
        const double t0 = rc.collect ? monotonicSeconds() : 0;
        const Tile& tl = grid.tile(tid);
        const CooView v{grid.tileRows(tid).data(), grid.tileCols(tid).data(),
                        grid.tileVals(tid).data(), tl.nnz};
        if constexpr (RunContext<Acc>::kGolden)
            rc.ops->spmm_coo_golden(v, rc.k, rc.din, part, row0, 0, tl.nnz);
        else
            rc.ops->spmm_coo_fast(v, rc.k, rc.din, rc.out, 0, tl.nnz);
        if (rc.collect)
            rc.hot_units[unit] = {uint32_t(tid), monotonicSeconds() - t0};
        ++unit;
    }
    if (ht.join != kNoJoin)
        finishJoin(rc, buf, ht.join, part, o, n);
    else if constexpr (RunContext<Acc>::kGolden)
        rc.ops->cvt_d2f(part, o, n);
}

template <class Acc>
void runColdTask(const RunContext<Acc>& rc, Acc*& buf, size_t task_idx)
{
    const PanelTask& ct = rc.plan->tasks(1)[task_idx];
    const auto [row0, height] = panelRows(*rc.grid, ct.panel);
    const PanelWork& pw = rc.plan->cold().panels[task_idx];
    const CsrView cv{pw.row_ptr.data(), pw.cols.data(), pw.vals.data(),
                     height};
    const size_t n = size_t(height) * rc.k;
    Value* o = rc.out + size_t(row0) * rc.k;
    Acc* part = buf;
    const double t0 = rc.collect ? monotonicSeconds() : 0;
    if (ct.join == kNoJoin) {
        // Every golden chain starts at +0.0, so the storing kernel's
        // Value(chain) equals the reference's Value(0.0 + chain).
        if constexpr (RunContext<Acc>::kGolden)
            rc.ops->spmm_csr_golden(cv, rc.k, rc.din, o, 0, height);
        else
            rc.ops->spmm_csr_fast(cv, rc.k, rc.din, o, 0, height);
    } else if constexpr (RunContext<Acc>::kGolden) {
        std::fill_n(part, n, 0.0);
        rc.ops->spmm_csr_golden_acc(cv, rc.k, rc.din, part, 0, height);
    } else {
        rc.ops->spmm_csr_fast(cv, rc.k, rc.din, part, 0, height);
    }
    if (rc.collect)
        rc.cold_units[task_idx] = {uint32_t(ct.panel),
                                   monotonicSeconds() - t0};
    if (ct.join != kNoJoin)
        finishJoin(rc, buf, ct.join, part, o, n);
}

class NativeCpuBackend final : public ExecutionBackend
{
  public:
    explicit NativeCpuBackend(const NativeExecOptions& opts) : opts_(opts) {}

    using ExecutionBackend::run;

    void run(const TileGrid& grid, const CompiledPlan& plan,
             const KernelConfig& kernel, const DenseMatrix& din,
             DenseMatrix& out, ExecReport* report) override
    {
        validate(grid, kernel, din);
        HT_FATAL_IF(!plan.compiledFor(grid),
                    "native exec: the plan was compiled for another grid, "
                    "or for this one before it changed");
        HT_FATAL_IF(out.rows() != grid.matrixRows() || out.cols() != kernel.k,
                    "native exec: output must be ", grid.matrixRows(), " x ",
                    kernel.k, ", got ", out.rows(), " x ", out.cols());
        if (opts_.policy == Policy::Golden)
            runAs<double>(grid, plan, kernel, din, out, report);
        else
            runAs<Value>(grid, plan, kernel, din, out, report);
    }

  private:
    template <class Acc>
    void runAs(const TileGrid& grid, const CompiledPlan& plan,
               const KernelConfig& kernel, const DenseMatrix& din,
               DenseMatrix& out, ExecReport* report);

    NativeExecOptions opts_;
};

template <class Acc>
void NativeCpuBackend::runAs(const TileGrid& grid, const CompiledPlan& plan,
                             const KernelConfig& kernel,
                             const DenseMatrix& din, DenseMatrix& out,
                             ExecReport* report)
{
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("exec.native.runs").add(1);

    const double prep0 = monotonicSeconds();
    const Index rows = grid.matrixRows();
    const Index k = kernel.k;
    const unsigned T = ThreadPool::globalThreads();

    // Panel buffers, one per slot plus one spare per join.  They start
    // uninitialized: a task zeroes or overwrites the part it uses.  The
    // stride rounds to whole cache lines, so every buffer stays aligned.
    const Index panel_h = std::min(grid.tileHeight(), rows);
    const size_t lane = kDenseAlign / sizeof(Acc);
    const size_t stride = (size_t(panel_h) * k + lane - 1) / lane * lane;
    AlignedBuffer<Acc> buffers((T + size_t(plan.joins())) * stride);
    std::vector<std::atomic<Acc*>> parked(plan.joins());
    std::vector<Acc*> slot_bufs(T);
    for (unsigned s = 0; s < T; ++s)
        slot_bufs[s] = buffers.data() + s * stride;

    RunContext<Acc> rc;
    rc.grid = &grid;
    rc.plan = &plan;
    rc.ops = &kernels::activeOps();
    rc.k = k;
    rc.din = rows ? din.row(0) : nullptr;
    rc.collect = opts_.collect_unit_times;
    std::vector<UnitTime> hot_units(rc.collect ? plan.hotTiles() : 0);
    std::vector<UnitTime> cold_units(rc.collect ? plan.tasks(1).size() : 0);
    rc.hot_units = hot_units.data();
    rc.cold_units = cold_units.data();
    rc.spares = buffers.data() + size_t(T) * stride;
    rc.stride = stride;
    rc.parked = parked.data();

    const unsigned hot_slots = splitSlots(T, plan, opts_);
    // A 1-thread pool (or a class with zero slots) must serve both
    // queues regardless of the stealing knob: stealing is a tail
    // policy, not a correctness switch.
    const bool serve_both =
        T == 1 || (hot_slots == 0 && !plan.tasks(0).empty()) ||
        (hot_slots == T && !plan.tasks(1).empty());

    TaskQueue queues[2];
    for (uint8_t c = 0; c < 2; ++c)
        for (uint32_t i = 0; i < plan.tasks(c).size(); ++i)
            queues[c].push({c, i});

    FaultState fault;
    fault.fail_class = opts_.fail_class;
    fault.threshold = opts_.fail_after_tasks;
    std::vector<SlotStats> slot_stats(T);
    const double prep_s = monotonicSeconds() - prep0;

    const double run0 = monotonicSeconds();
    rc.out = out.row(0);
    for (Index panel : plan.idlePanels()) {
        const auto [row0, height] = panelRows(grid, panel);
        std::fill_n(rc.out + size_t(row0) * k, size_t(height) * k, Value(0));
    }
    parallelFor(0, T, 1, [&](size_t sb, size_t se) {
        for (size_t slot = sb; slot < se; ++slot) {
            const int my = slot < hot_slots ? 0 : 1;
            TaskQueue& mine = queues[my];
            TaskQueue& other = queues[1 - my];
            SlotStats& st = slot_stats[slot];
            for (;;) {
                // Trip the fail-stop once the failed class's executors
                // crossed the threshold; the tripping slot splices the
                // failed queue onto the survivor's and keeps draining,
                // so migrated tasks always have a live consumer.
                if (fault.fail_class >= 0 &&
                    !fault.failed.load(std::memory_order_acquire) &&
                    fault.own_done.load(std::memory_order_relaxed) >=
                        fault.threshold) {
                    bool expected = false;
                    if (fault.failed.compare_exchange_strong(expected,
                                                             true)) {
                        const int fc = fault.fail_class;
                        fault.requeued.fetch_add(
                            drainInto(queues[fc], queues[1 - fc]));
                    }
                }
                const bool my_failed =
                    fault.fail_class == my &&
                    fault.failed.load(std::memory_order_acquire);
                Task t;
                bool from_own = false;
                if (!my_failed && mine.popFront(&t))
                    from_own = true;
                else if ((opts_.work_stealing || serve_both || my_failed ||
                          fault.failed.load(std::memory_order_acquire)) &&
                         other.popBack(&t))
                    ;
                else
                    break;
                const double t0 = monotonicSeconds();
                if (t.cls == 0)
                    runHotTask(rc, slot_bufs[slot], t.idx);
                else
                    runColdTask(rc, slot_bufs[slot], t.idx);
                const double dt = monotonicSeconds() - t0;
                const PanelTask& pt = plan.tasks(t.cls)[t.idx];
                SlotClassStats& cs = st.cls[t.cls];
                ++cs.tasks;
                cs.busy_s += dt;
                cs.tiles += pt.tiles;
                cs.nnz += pt.nnz;
                if (t.cls != my)
                    ++cs.stolen;
                if (from_own && my == fault.fail_class)
                    fault.own_done.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });
    const double wall_s = monotonicSeconds() - run0;

    ExecReport rep;
    rep.threads = T;
    rep.hot_executors = hot_slots;
    rep.cold_executors = T - hot_slots;
    rep.prepare_s = prep_s;
    rep.wall_s = wall_s;
    rep.requeued_tasks = fault.requeued.load();
    rep.class_failed = fault.failed.load();
    for (const SlotStats& st : slot_stats) {
        ExecClassReport* cls[2] = {&rep.hot, &rep.cold};
        for (int c = 0; c < 2; ++c) {
            cls[c]->tasks += st.cls[c].tasks;
            cls[c]->tiles += st.cls[c].tiles;
            cls[c]->nnz += st.cls[c].nnz;
            cls[c]->stolen_tasks += st.cls[c].stolen;
            cls[c]->busy_s += st.cls[c].busy_s;
        }
    }
    rep.hot.unit_s = std::move(hot_units);
    rep.cold.unit_s = std::move(cold_units);
    const double flops =
        kernel.flopsPerNnz() * double(rep.hot.nnz + rep.cold.nnz);
    rep.gflops = wall_s > 0 ? flops / wall_s / 1e9 : 0;

    reg.timer("exec.native.prepare").observe(prep_s);
    reg.timer("exec.native.run").observe(wall_s);
    reg.counter("exec.native.hot_tiles").add(rep.hot.tiles);
    reg.counter("exec.native.cold_panels").add(rep.cold.tasks);
    reg.counter("exec.native.stolen_tasks")
        .add(rep.hot.stolen_tasks + rep.cold.stolen_tasks);
    reg.counter("exec.native.requeued_tasks").add(rep.requeued_tasks);
    reg.gauge("exec.native.gflops").set(rep.gflops);

    if (report)
        *report = std::move(rep);
}

} // namespace

std::shared_ptr<const CompiledPlan> compile(const TileGrid& grid,
                                            const Partition& p)
{
    ScopedTimer t("exec.native.compile");
    return std::make_shared<const CompiledPlan>(grid, p);
}

DenseMatrix ExecutionBackend::run(const TileGrid& grid, const Partition& p,
                                  const KernelConfig& kernel,
                                  const DenseMatrix& din, ExecReport* report)
{
    validate(grid, kernel, din);
    const double t0 = monotonicSeconds();
    const std::shared_ptr<const CompiledPlan> plan = planFor(grid, p);
    const double lookup_s = monotonicSeconds() - t0;
    DenseMatrix out = DenseMatrix::uninitialized(grid.matrixRows(), kernel.k);
    run(grid, *plan, kernel, din, out, report);
    if (report)
        report->prepare_s += lookup_s;
    return out;
}

std::shared_ptr<const CompiledPlan>
ExecutionBackend::planFor(const TileGrid& grid, const Partition& p)
{
    static Counter& hits =
        MetricsRegistry::global().counter("exec.native.plan.hit");
    static Counter& misses =
        MetricsRegistry::global().counter("exec.native.plan.miss");
    // A moved-from grid has no identity, so no plan could ever run on it.
    const std::weak_ptr<const void> id = grid.identity();
    HT_FATAL_IF(id.expired(), "native exec: the grid was moved from, so "
                "there is nothing to compile a plan for");
    const std::lock_guard<std::mutex> lock(memo_mu_);
    std::erase_if(memo_, [](const MemoEntry& e) { return e.grid.expired(); });
    const auto it =
        std::find_if(memo_.begin(), memo_.end(), [&](const MemoEntry& e) {
            return e.plan->compiledFor(grid);
        });
    if (it != memo_.end() && it->plan->isHot() == p.is_hot) {
        hits.add();
        return it->plan;
    }
    misses.add();
    std::shared_ptr<const CompiledPlan> plan = compile(grid, p);
    if (it == memo_.end())
        memo_.push_back({id, plan});
    else
        it->plan = plan;
    return plan;
}

std::unique_ptr<ExecutionBackend> makeNativeCpuBackend(
    const NativeExecOptions& opts)
{
    return std::make_unique<NativeCpuBackend>(opts);
}

DenseMatrix referenceExecute(const TileGrid& grid, const Partition& p,
                             const KernelConfig& kernel,
                             const DenseMatrix& din)
{
    validate(grid, kernel, din);
    HT_FATAL_IF(p.is_hot.size() != grid.numTiles(),
                "native exec: partition covers ", p.is_hot.size(),
                " tiles but the grid has ", grid.numTiles());
    const TiledWork hot = buildTiledWork(grid, p.hotTiles());
    const UntiledWork cold = buildUntiledWork(grid, p.coldTiles());
    const KernelOps& ops = kernels::opsForTier(kernels::Tier::Scalar);
    const Index rows = grid.matrixRows();
    const Index k = kernel.k;
    const size_t cells = size_t(rows) * k;
    const Value* din_p = cells ? din.row(0) : nullptr;

    std::vector<double> hot_acc(cells, 0.0);
    std::vector<double> cold_acc(cells, 0.0);
    for (const std::vector<size_t>& tiles : hot.panel_tiles)
        for (size_t tid : tiles) {
            const CooView v{grid.tileRows(tid).data(),
                            grid.tileCols(tid).data(),
                            grid.tileVals(tid).data(), grid.tile(tid).nnz};
            ops.spmm_coo_golden(v, k, din_p, hot_acc.data(), 0, 0, v.nnz);
        }
    for (const PanelWork& pw : cold.panels) {
        const auto [row0, height] = panelRows(grid, pw.panel);
        const CsrView cv{pw.row_ptr.data(), pw.cols.data(), pw.vals.data(),
                         height};
        ops.spmm_csr_golden_acc(cv, k, din_p,
                                cold_acc.data() + size_t(row0) * k, 0,
                                height);
    }

    DenseMatrix out(rows, k);
    for (Index r = 0; r < rows; ++r) {
        Value* o = out.row(r);
        const double* h = hot_acc.data() + size_t(r) * k;
        const double* c = cold_acc.data() + size_t(r) * k;
        for (Index j = 0; j < k; ++j)
            o[j] = Value(h[j] + c[j]);
    }
    return out;
}

PredictionErrorTelemetry computeNativePredictionError(
    const TileGrid& grid, const PartitionContext& ctx,
    const std::vector<uint8_t>& is_hot, const ExecReport& report)
{
    HT_ASSERT(ctx.estimates.size() == grid.numTiles(),
              "context estimates do not match the grid");
    HT_ASSERT(is_hot.size() == grid.numTiles(),
              "assignment does not match the grid");
    PredictionErrorTelemetry t;

    // Per-class least-squares scale: predictions are accelerator cycles,
    // measurements host seconds; after scaling, per-unit error is the
    // model's shape mismatch (see backend.hpp).
    auto scaleOf = [](const std::vector<UnitTime>& units, auto predict) {
        double sum_pred = 0, sum_meas = 0;
        for (const UnitTime& u : units) {
            if (u.seconds <= 0)
                continue;
            sum_pred += predict(u.unit);
            sum_meas += u.seconds;
        }
        return sum_meas > 0 && sum_pred > 0 ? sum_pred / sum_meas : 0.0;
    };
    auto sample = [](uint32_t unit, double pred, double meas_cycles) {
        PredictionErrorSample s;
        s.unit = unit;
        s.predicted_cycles = pred;
        s.simulated_cycles = meas_cycles;
        s.error_pct = 100.0 * std::abs(pred - meas_cycles) / meas_cycles;
        return s;
    };

    auto hotPred = [&](uint32_t tile) { return ctx.estimates[tile].th; };
    const double hot_scale = scaleOf(report.hot.unit_s, hotPred);
    if (hot_scale > 0)
        for (const UnitTime& u : report.hot.unit_s) {
            if (u.seconds <= 0)
                continue;
            t.hot_tiles.push_back(
                sample(u.unit, hotPred(u.unit), u.seconds * hot_scale));
        }

    auto coldPred = [&](uint32_t panel) {
        auto [tb, te] = grid.panelTiles(Index(panel));
        double pred = 0;
        for (size_t i = tb; i < te; ++i)
            if (!is_hot[i])
                pred += ctx.estimates[i].tc;
        return pred;
    };
    const double cold_scale = scaleOf(report.cold.unit_s, coldPred);
    if (cold_scale > 0)
        for (const UnitTime& u : report.cold.unit_s) {
            if (u.seconds <= 0)
                continue;
            t.cold_panels.push_back(
                sample(u.unit, coldPred(u.unit), u.seconds * cold_scale));
        }
    return t;
}

} // namespace hottiles::exec
