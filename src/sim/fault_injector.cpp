#include "sim/fault_injector.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/string_util.hpp"
#include "sim/demand_pe.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/memory_system.hpp"
#include "sim/merger.hpp"
#include "sim/stream_pe.hpp"
#include "sim/trace.hpp"
#include "sim/worker.hpp"
#include "sim/worklist.hpp"

namespace hottiles {

const char*
faultKindName(FaultKind k)
{
    switch (k) {
    case FaultKind::PeFailStop:
        return "fail-stop";
    case FaultKind::PeSlowdown:
        return "slowdown";
    case FaultKind::LinkDegrade:
        return "link-degrade";
    case FaultKind::MemLatencySpike:
        return "mem-spike";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Plan composition
// ---------------------------------------------------------------------------

namespace {

/** Draw a worker class weighted by PE count (never an empty class). */
bool
drawClass(Rng& rng, const Architecture& arch)
{
    const uint32_t total = arch.hot.count + arch.cold.count;
    HT_ASSERT(total > 0, "architecture has no workers");
    return rng.nextBounded(total) < arch.hot.count;
}

uint32_t
drawPe(Rng& rng, const Architecture& arch, bool hot)
{
    const uint32_t count = hot ? arch.hot.count : arch.cold.count;
    return static_cast<uint32_t>(rng.nextBounded(count));
}

Tick
drawAt(Rng& rng, Tick horizon)
{
    return 1 + rng.nextBounded(horizon);
}

} // namespace

FaultPlan
makeFaultPlan(uint64_t seed, const Architecture& arch, const FaultSpec& spec)
{
    HT_ASSERT(spec.horizon > 0, "fault horizon must be > 0");
    Rng rng(seed);
    FaultPlan plan;
    // Draw order is fixed (fail-stops, slowdowns, link degrades, memory
    // spikes) so a given (seed, arch, spec) triple always yields a
    // bit-identical plan.
    for (uint32_t i = 0; i < spec.fail_stops; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::PeFailStop;
        ev.hot = drawClass(rng, arch);
        ev.pe = drawPe(rng, arch, ev.hot);
        ev.at = drawAt(rng, spec.horizon);
        plan.events.push_back(ev);
    }
    for (uint32_t i = 0; i < spec.slowdowns; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::PeSlowdown;
        ev.hot = drawClass(rng, arch);
        ev.pe = drawPe(rng, arch, ev.hot);
        ev.at = drawAt(rng, spec.horizon);
        ev.until = ev.at + 1 + rng.nextBounded(spec.horizon);
        ev.factor = rng.nextDouble(spec.slow_min, spec.slow_max);
        plan.events.push_back(ev);
    }
    for (uint32_t i = 0; i < spec.link_degrades; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::LinkDegrade;
        ev.hot = drawClass(rng, arch);
        ev.pe = drawPe(rng, arch, ev.hot);
        ev.at = drawAt(rng, spec.horizon);
        ev.until = ev.at + 1 + rng.nextBounded(spec.horizon);
        ev.factor = rng.nextBool(spec.link_drop_prob)
                        ? 0.0
                        : rng.nextDouble(spec.link_scale_min,
                                         spec.link_scale_max);
        plan.events.push_back(ev);
    }
    for (uint32_t i = 0; i < spec.mem_spikes; ++i) {
        FaultEvent ev;
        ev.kind = FaultKind::MemLatencySpike;
        ev.at = drawAt(rng, spec.horizon);
        ev.until = ev.at + 1 + rng.nextBounded(spec.horizon);
        ev.factor = rng.nextDouble(0.25, 1.0);
        ev.extra_latency = spec.spike_latency;
        plan.events.push_back(ev);
    }
    return plan;
}

FaultSpec
parseFaultSpec(std::string_view spec)
{
    FaultSpec out;
    const std::string_view trimmed = trim(spec);
    HT_FATAL_IF(trimmed.empty(), "empty fault spec");
    for (std::string_view part : splitChar(trimmed, ',')) {
        part = trim(part);
        if (part.empty())
            continue;
        const size_t eq = part.find('=');
        HT_FATAL_IF(eq == std::string_view::npos,
                    "fault spec entry '", std::string(part),
                    "' is not key=value");
        const std::string_view key = trim(part.substr(0, eq));
        const std::string_view val = trim(part.substr(eq + 1));
        uint64_t n = 0;
        auto [p, ec] = std::from_chars(val.data(), val.data() + val.size(), n);
        HT_FATAL_IF(ec != std::errc() || p != val.data() + val.size(),
                    "bad fault spec value '", std::string(val), "' for key '",
                    std::string(key), "'");
        if (iequals(key, "failstop"))
            out.fail_stops = static_cast<uint32_t>(n);
        else if (iequals(key, "slowdown"))
            out.slowdowns = static_cast<uint32_t>(n);
        else if (iequals(key, "linkdegrade"))
            out.link_degrades = static_cast<uint32_t>(n);
        else if (iequals(key, "memspike"))
            out.mem_spikes = static_cast<uint32_t>(n);
        else if (iequals(key, "horizon")) {
            HT_FATAL_IF(n == 0, "fault horizon must be > 0");
            out.horizon = n;
        } else
            HT_FATAL("unknown fault spec key '", std::string(key),
                     "' (expected failstop/slowdown/linkdegrade/memspike/"
                     "horizon)");
    }
    return out;
}

// ---------------------------------------------------------------------------
// Fault-tolerant execution
// ---------------------------------------------------------------------------

namespace {

/** One migratable unit of work: a grid tile. */
struct FtUnit
{
    size_t tile = 0;
    uint64_t nnz = 0;
    double flops = 0;         //!< of the latest dispatch's segment build
    uint32_t attempts = 0;    //!< dispatches so far (1 == initial)
    bool assigned_hot = false;
    bool executed_hot = false;
    bool completed = false;
};

/** One supervised PE: the engine plus watchdog bookkeeping. */
struct FtWorker
{
    std::unique_ptr<Link> port;  //!< per-PE port width (may be null)
    std::unique_ptr<PipelinedWorker> pe;
    bool hot = false;
    uint32_t index = 0;
    bool dead = false;  //!< declared dead by the watchdog and fenced

    std::vector<size_t> unit_ids;      //!< dispatch order
    std::vector<size_t> unit_end_seg;  //!< cumulative segment count per unit
    size_t seg_total = 0;
    size_t completed_upto = 0;  //!< units fully retired (prefix of the list)
    size_t last_retired = 0;
    Tick last_progress = 0;
    uint64_t pending_nnz = 0;  //!< dispatch-balance load signal
};

/** Per-worker-class completed-work aggregates. */
struct ClassAgg
{
    uint64_t nnz = 0;
    double flops = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t stream_lines = 0;
};

class FaultRun
{
  public:
    FaultRun(const Architecture& arch, const TileGrid& grid,
             const std::vector<uint8_t>& is_hot, const KernelConfig& kernel,
             const SimConfig& cfg)
        : arch_(arch), grid_(grid), is_hot_(is_hot), kernel_(kernel),
          cfg_(cfg), plan_(*cfg.faults),
          mem_(eq_, arch.bwBytesPerCycle(), arch.mem_latency, arch.line_bytes)
    {
        HT_ASSERT(plan_.watchdog_interval > 0, "watchdog interval must be > 0");
        HT_ASSERT(plan_.stall_budget > 0, "stall budget must be > 0");
    }

    SimOutput run();

  private:
    struct UnitBuild
    {
        std::vector<SegSpec> segs;
        double flops = 0;
    };

    void buildWorkers();
    void buildUnits();
    void initialDispatch();
    UnitBuild buildUnit(size_t tile, bool hot_class);
    void dispatch(FtWorker& w, size_t unit_id);
    void redispatch(size_t unit_id);
    FtWorker* pickTarget(bool prefer_hot);
    void applyFault(const FaultEvent& ev);
    void watchdogTick();
    void updateWorker(FtWorker& w);
    void declareDead(FtWorker& w);
    void onAllComplete();
    void fail(std::string reason);
    void fillOutput(SimOutput& out);

    const Architecture& arch_;
    const TileGrid& grid_;
    const std::vector<uint8_t>& is_hot_;
    const KernelConfig& kernel_;
    const SimConfig& cfg_;
    const FaultPlan& plan_;

    double loop_ms_ = 0;  //!< wall time of the event loop (SimStats)

    EventQueue eq_;
    MemorySystem mem_;
    std::unique_ptr<Link> pcie_;
    MemPort* hot_port_ = nullptr;

    std::vector<FtUnit> units_;
    std::vector<FtWorker> workers_;
    size_t completed_count_ = 0;
    ClassAgg hot_agg_;
    ClassAgg cold_agg_;
    FaultStats fstats_;

    bool finished_ = false;
    bool run_failed_ = false;
    std::string fail_reason_;
    bool merge_pending_ = false;
    bool merged_ = false;
    Tick finish_tick_ = 0;
    Tick end_tick_ = 0;
};

void
FaultRun::buildWorkers()
{
    hot_port_ = &mem_;
    if (arch_.pcie_gbps > 0) {
        pcie_ = std::make_unique<Link>(eq_, mem_,
                                       arch_.pcie_gbps / arch_.freq_ghz,
                                       arch_.pcie_latency, arch_.line_bytes);
        hot_port_ = pcie_.get();
    }
    // Unlike the fast path, every PE of both classes is instantiated even
    // if its initial share is empty: any live PE is a migration target.
    workers_.reserve(size_t(arch_.cold.count) + arch_.hot.count);
    for (uint32_t w = 0; w < arch_.cold.count; ++w) {
        FtWorker fw;
        fw.hot = false;
        fw.index = w;
        MemPort* port = &mem_;
        if (arch_.cold_pe.port_bytes_per_cycle > 0) {
            fw.port = std::make_unique<Link>(
                eq_, mem_, arch_.cold_pe.port_bytes_per_cycle, Tick(0),
                arch_.line_bytes);
            port = fw.port.get();
        }
        fw.pe = std::make_unique<PipelinedWorker>(
            arch_.cold.name + " #" + std::to_string(w), eq_, *port,
            arch_.cold_pe.depth, std::vector<SegSpec>{});
        workers_.push_back(std::move(fw));
    }
    for (uint32_t w = 0; w < arch_.hot.count; ++w) {
        FtWorker fw;
        fw.hot = true;
        fw.index = w;
        MemPort* port = hot_port_;
        if (arch_.hot_pe.port_bytes_per_cycle > 0) {
            fw.port = std::make_unique<Link>(
                eq_, *hot_port_, arch_.hot_pe.port_bytes_per_cycle, Tick(0),
                arch_.line_bytes);
            port = fw.port.get();
        }
        fw.pe = std::make_unique<PipelinedWorker>(
            arch_.hot.name + " #" + std::to_string(w), eq_, *port,
            arch_.hot_pe.depth, std::vector<SegSpec>{});
        workers_.push_back(std::move(fw));
    }
    if (cfg_.trace)
        for (auto& w : workers_)
            w.pe->setTrace(cfg_.trace);
}

void
FaultRun::buildUnits()
{
    units_.reserve(grid_.numTiles());
    for (size_t i = 0; i < grid_.numTiles(); ++i) {
        if (grid_.tile(i).nnz == 0)
            continue;
        FtUnit u;
        u.tile = i;
        u.nnz = grid_.tile(i).nnz;
        u.assigned_hot = is_hot_[i] != 0;
        units_.push_back(u);
    }
}

void
FaultRun::initialDispatch()
{
    // Greedy LPT by nonzero count within each class (mirrors the fast
    // path's balancedShares), then per-PE dispatch in tile order so the
    // traversal stays row-major within a PE.
    for (int cls = 0; cls < 2; ++cls) {
        const bool hot = cls == 1;
        std::vector<size_t> ids;
        for (size_t i = 0; i < units_.size(); ++i)
            if (units_[i].assigned_hot == hot)
                ids.push_back(i);
        if (ids.empty())
            continue;
        std::vector<FtWorker*> pes;
        for (auto& w : workers_)
            if (w.hot == hot)
                pes.push_back(&w);
        HT_ASSERT(!pes.empty(), hot ? "hot tiles assigned but architecture "
                                      "has no hot workers"
                                    : "cold tiles assigned but architecture "
                                      "has no cold workers");
        std::vector<uint64_t> loads(ids.size());
        for (size_t i = 0; i < ids.size(); ++i)
            loads[i] = units_[ids[i]].nnz;
        // ids ascend in unit (== tile) order, so the ascending positions
        // each share returns are already the per-PE tile order.
        auto shares = balancedShares(loads, static_cast<uint32_t>(pes.size()));
        for (size_t w = 0; w < pes.size(); ++w)
            for (size_t pos : shares[w])
                dispatch(*pes[w], ids[pos]);
    }
}

FaultRun::UnitBuild
FaultRun::buildUnit(size_t tile, bool hot_class)
{
    UnitBuild out;
    if (hot_class) {
        TiledWork w;
        w.panel_tiles = {{tile}};
        w.panel_ids = {grid_.tile(tile).panel};
        w.total_nnz = grid_.tile(tile).nnz;
        StreamBuild b =
            buildStreamSegments(w, {0}, grid_, arch_.hot, kernel_,
                                arch_.hot_pe, arch_.line_bytes);
        hot_agg_.stream_lines += b.din_stream_lines;
        out.segs = std::move(b.segs);
        out.flops = b.flops;
    } else {
        UntiledWork w = buildUntiledWork(grid_, {tile});
        std::vector<PanelSlice> slices =
            sliceUntiledWork(w, arch_.cold_pe.chunk_rows);
        DemandBuild b = buildDemandSegments(w, slices, arch_.cold, kernel_,
                                            arch_.cold_pe, arch_.line_bytes);
        cold_agg_.cache_hits += b.din_hits;
        cold_agg_.cache_misses += b.din_misses;
        out.segs = std::move(b.segs);
        out.flops = b.flops;
    }
    HT_ASSERT(!out.segs.empty(), "non-empty tile built no segments");
    return out;
}

void
FaultRun::dispatch(FtWorker& w, size_t unit_id)
{
    FtUnit& u = units_[unit_id];
    ++u.attempts;
    u.assigned_hot = w.hot;
    UnitBuild b = buildUnit(u.tile, w.hot);
    u.flops = b.flops;
    w.unit_ids.push_back(unit_id);
    w.seg_total += b.segs.size();
    w.unit_end_seg.push_back(w.seg_total);
    w.pending_nnz += u.nnz;
    w.last_progress = std::max(w.last_progress, eq_.now());
    if (cfg_.trace)
        cfg_.trace->record(eq_.now(), w.pe->name(), "dispatch", u.tile,
                           u.attempts);
    w.pe->appendSegments(std::move(b.segs));
}

FtWorker*
FaultRun::pickTarget(bool prefer_hot)
{
    // Least pending nonzeros among live PEs of the preferred class; the
    // scan order is fixed, so ties resolve deterministically.
    FtWorker* best = nullptr;
    auto scan = [&](bool want_hot) {
        for (auto& w : workers_)
            if (w.hot == want_hot && !w.dead &&
                (!best || w.pending_nnz < best->pending_nnz))
                best = &w;
    };
    scan(prefer_hot);
    if (!best)
        scan(!prefer_hot);
    return best;
}

void
FaultRun::redispatch(size_t unit_id)
{
    FtUnit& u = units_[unit_id];
    if (u.attempts > plan_.max_retries) {
        fail("tile " + std::to_string(u.tile) + " exhausted its " +
             std::to_string(plan_.max_retries) + " re-dispatch retries");
        return;
    }
    FtWorker* target = pickTarget(u.assigned_hot);
    if (!target) {
        fail("no surviving worker to take over tile " +
             std::to_string(u.tile));
        return;
    }
    if (target->hot != u.assigned_hot)
        fstats_.degraded_mode = true;  // whole-class death: homogeneous
                                       // fallback on the surviving type
    ++fstats_.tiles_migrated;
    if (u.attempts >= 2)
        ++fstats_.migration_retries;
    fstats_.nnz_redispatched += u.nnz;
    if (cfg_.trace)
        cfg_.trace->record(eq_.now(), target->pe->name(), "migrate-in",
                           u.tile, u.attempts);
    dispatch(*target, unit_id);
}

void
FaultRun::applyFault(const FaultEvent& ev)
{
    ++fstats_.injected;
    if (cfg_.trace)
        cfg_.trace->record(eq_.now(), "fault", faultKindName(ev.kind), ev.pe,
                           ev.until);
    auto findWorker = [&](bool hot, uint32_t pe) -> FtWorker* {
        for (auto& w : workers_)
            if (w.hot == hot && w.index == pe)
                return &w;
        return nullptr;
    };
    switch (ev.kind) {
    case FaultKind::PeFailStop: {
        if (FtWorker* w = findWorker(ev.hot, ev.pe))
            w->pe->failStop();  // silent: the watchdog must notice
        break;
    }
    case FaultKind::PeSlowdown: {
        FtWorker* w = findWorker(ev.hot, ev.pe);
        if (!w)
            break;
        PipelinedWorker* pe = w->pe.get();
        pe->setComputeScale(ev.factor);
        if (ev.until > ev.at)
            eq_.schedule(ev.until, [this, pe]() {
                if (!pe->failedStop())
                    pe->setComputeScale(1.0);
                if (cfg_.trace)
                    cfg_.trace->record(eq_.now(), "fault", "slowdown-clear");
            });
        break;
    }
    case FaultKind::LinkDegrade: {
        // The PCIe attachment if the architecture has one, otherwise the
        // targeted PE's private port (architectures with neither absorb
        // the event as a no-op beyond the injection count).
        Link* link = pcie_.get();
        if (!link) {
            FtWorker* w = findWorker(ev.hot, ev.pe);
            link = w ? w->port.get() : nullptr;
        }
        if (!link)
            break;
        link->setBandwidthScale(ev.factor);
        if (ev.until > ev.at)
            eq_.schedule(ev.until, [this, link]() {
                link->setBandwidthScale(1.0);
                if (cfg_.trace)
                    cfg_.trace->record(eq_.now(), "fault", "link-clear");
            });
        break;
    }
    case FaultKind::MemLatencySpike: {
        mem_.setFault(ev.extra_latency,
                      ev.factor > 0 && ev.factor <= 1.0 ? ev.factor : 1.0);
        if (ev.until > ev.at)
            eq_.schedule(ev.until, [this]() {
                mem_.clearFault();
                if (cfg_.trace)
                    cfg_.trace->record(eq_.now(), "fault", "mem-clear");
            });
        break;
    }
    }
}

void
FaultRun::updateWorker(FtWorker& w)
{
    const size_t r = w.pe->retiredSegments();
    if (r != w.last_retired) {
        w.last_retired = r;
        w.last_progress = eq_.now();
    }
    // Retires are strictly in issue order (the engine is a FIFO
    // pipeline), so a unit is complete exactly when the retire count
    // crosses its cumulative segment threshold.
    while (w.completed_upto < w.unit_ids.size() &&
           w.unit_end_seg[w.completed_upto] <= r) {
        FtUnit& u = units_[w.unit_ids[w.completed_upto]];
        ++w.completed_upto;
        w.pending_nnz -= u.nnz;
        if (u.completed)
            continue;
        u.completed = true;
        u.executed_hot = w.hot;
        ++completed_count_;
        ClassAgg& agg = w.hot ? hot_agg_ : cold_agg_;
        agg.nnz += u.nnz;
        agg.flops += u.flops;
    }
}

void
FaultRun::declareDead(FtWorker& w)
{
    w.dead = true;
    w.pe->failStop();  // fence: discard anything still in flight
    ++fstats_.workers_failed;
    if (cfg_.trace)
        cfg_.trace->record(eq_.now(), w.pe->name(), "declared-dead",
                           w.unit_ids.size() - w.completed_upto);
    std::vector<size_t> orphans;
    for (size_t i = w.completed_upto; i < w.unit_ids.size(); ++i)
        if (!units_[w.unit_ids[i]].completed)
            orphans.push_back(w.unit_ids[i]);
    for (size_t id : orphans) {
        if (run_failed_)
            break;
        redispatch(id);
    }
}

void
FaultRun::watchdogTick()
{
    if (finished_ || run_failed_)
        return;
    for (auto& w : workers_)
        updateWorker(w);
    for (auto& w : workers_) {
        if (run_failed_)
            break;
        if (w.dead || w.completed_upto == w.unit_ids.size())
            continue;
        if (eq_.now() - w.last_progress >= plan_.stall_budget)
            declareDead(w);
    }
    if (completed_count_ == units_.size()) {
        onAllComplete();
        return;
    }
    if (run_failed_)
        return;
    bool any_alive = false;
    for (auto& w : workers_)
        any_alive = any_alive || !w.dead;
    if (!any_alive) {
        fail("all workers dead");
        return;
    }
    eq_.scheduleIn(plan_.watchdog_interval, [this]() { watchdogTick(); });
}

void
FaultRun::onAllComplete()
{
    finished_ = true;
    finish_tick_ = eq_.now();
    const bool hot_used = hot_agg_.nnz > 0;
    const bool cold_used = cold_agg_.nnz > 0;
    if (!arch_.atomic_rmw && hot_used && cold_used &&
        kernel_.kind != SparseKernel::Sddmm) {
        merge_pending_ = true;
        startMerge(eq_, mem_, grid_.matrixRows(), kernel_.k,
                   arch_.cold.value_bytes,
                   [this]() {
                       merged_ = true;
                       end_tick_ = eq_.now();
                   },
                   arch_.line_bytes);
    } else {
        end_tick_ = eq_.now();
    }
}

void
FaultRun::fail(std::string reason)
{
    run_failed_ = true;
    if (fail_reason_.empty())
        fail_reason_ = std::move(reason);
}

void
FaultRun::fillOutput(SimOutput& out)
{
    SimStats& st = out.stats;
    st.cycles = end_tick_;
    st.ms = cyclesToMs(double(st.cycles), arch_.freq_ghz);
    st.hot_nnz = hot_agg_.nnz;
    st.cold_nnz = cold_agg_.nnz;
    st.total_nnz = hot_agg_.nnz + cold_agg_.nnz;
    st.mem_bytes = mem_.bytesTransferred();
    st.avg_bw_gbps = bytesPerCycleToGbps(
        mem_.achievedBytesPerCycle(st.cycles), arch_.freq_ghz);
    st.lines_per_nnz =
        st.total_nnz ? double(mem_.linesTotal()) / double(st.total_nnz) : 0;
    for (auto& w : workers_) {
        Tick& finish = w.hot ? st.hot_finish : st.cold_finish;
        finish = std::max(finish, w.pe->stats().finish);
    }
    st.merge_cycles = end_tick_ - finish_tick_;
    st.cold_cache_hits = cold_agg_.cache_hits;
    st.cold_cache_misses = cold_agg_.cache_misses;
    st.hot_stream_lines = hot_agg_.stream_lines;
    auto classGflops = [&](const ClassAgg& agg, Tick finish) {
        if (agg.nnz == 0 || finish == 0)
            return 0.0;
        return gflops(agg.flops, double(finish), arch_.freq_ghz);
    };
    st.hot_gflops = classGflops(hot_agg_, st.hot_finish);
    st.cold_gflops = classGflops(cold_agg_, st.cold_finish);
    st.events_processed = eq_.processed();
    st.peak_queue_depth = eq_.peakPending();
    st.loop_ms = loop_ms_;
    st.batched_events = mem_.coalescedDrains();
    if (pcie_)
        st.batched_events += pcie_->batchedEvents();
    for (const auto& w : workers_) {
        st.batched_events += w.pe->stats().batched;
        if (w.port)
            st.batched_events += w.port->batchedEvents();
    }
    st.faults = fstats_;

    // Functional output.  Tiles are accumulated in ascending tile-id
    // order regardless of which PE finally executed them, so the value
    // stream is deterministic for a fixed plan at any thread count.
    if (!cfg_.compute_values)
        return;
    std::vector<kernels::CooView> sets;
    for (const FtUnit& u : units_)
        sets.push_back({grid_.tileRows(u.tile).data(),
                        grid_.tileCols(u.tile).data(),
                        grid_.tileVals(u.tile).data(), grid_.tile(u.tile).nnz});
    computeValues(grid_, kernel_, cfg_, sets, out);
}

SimOutput
FaultRun::run()
{
    buildWorkers();
    buildUnits();
    initialDispatch();

    std::unique_ptr<BandwidthProbe> probe;
    if (cfg_.bw_probe_interval > 0) {
        probe = std::make_unique<BandwidthProbe>(eq_, mem_,
                                                 cfg_.bw_probe_interval);
        probe->start();
    }
    for (const FaultEvent& ev : plan_.events)
        eq_.schedule(ev.at, [this, ev]() { applyFault(ev); });
    eq_.scheduleIn(plan_.watchdog_interval, [this]() { watchdogTick(); });

    for (auto& w : workers_)
        w.pe->start();
    if (units_.empty()) {
        // Degenerate empty matrix: nothing to supervise.
        finished_ = true;
    }
    const auto loop_t0 = std::chrono::steady_clock::now();
    eq_.runUntilEmpty();
    loop_ms_ = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - loop_t0)
                   .count();

    // An aborting run is exactly when the trace tail matters: push it to
    // the stream before throwing.
    if (cfg_.trace && (run_failed_ || !finished_))
        cfg_.trace->flush();
    HT_FATAL_IF(run_failed_, "fault-injected run failed: ", fail_reason_,
                " (", fstats_.workers_failed, " workers dead, ",
                fstats_.tiles_migrated, " tiles migrated)");
    HT_FATAL_IF(!finished_, "fault-injected run stalled without completing");
    HT_ASSERT(!merge_pending_ || merged_, "merge did not complete");

    SimOutput out;
    if (probe)
        out.bw_samples = probe->samples();
    fillOutput(out);
    return out;
}

} // namespace

SimOutput
simulateWithFaults(const Architecture& arch, const TileGrid& grid,
                   const std::vector<uint8_t>& is_hot,
                   const KernelConfig& kernel, const SimConfig& cfg)
{
    HT_ASSERT(cfg.faults && !cfg.faults->empty(),
              "simulateWithFaults requires a non-empty fault plan");
    HT_ASSERT(is_hot.size() == grid.numTiles(), "assignment size mismatch");
    FaultRun run(arch, grid, is_hot, kernel, cfg);
    return run.run();
}

} // namespace hottiles
