#include "serve/service.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <shared_mutex>
#include <utility>

#include "arch/arch_config.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/random.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "core/preprocess.hpp"
#include "exec/backend.hpp"
#include "partition/predicted_runtime.hpp"
#include "sim/trace.hpp"

namespace hottiles::serve {

namespace {

/** The flight slot of the worker thread currently handling a request
 *  (set by workerLoop before it invokes queued work). */
thread_local void* t_flight = nullptr;

/** A build abandoned because its stage deadline passed (watchdog trip
 *  or deadline pressure).  Internal control flow, never escapes. */
struct BuildCancelled
{
    const char* reason;
};

/** A chaos-injected transient failure; retried with backoff. */
struct TransientBuildFailure
{
};

/** Per-request chaos decisions, all drawn up front from one stream so
 *  they depend only on (chaos.seed, request id) — never on thread
 *  interleaving. */
struct ChaosPlan
{
    bool corrupt_cache = false;
    bool wedge = false;
    bool flaky_build = false;
    int fail_class = -1;       //!< native-exec class to fail-stop
    size_t fail_after = 0;

    ChaosPlan() = default;
    ChaosPlan(const ChaosConfig& cfg, uint64_t request_id)
    {
        if (!cfg.enabled())
            return;
        uint64_t s = cfg.seed ^ (request_id + 0x9e3779b97f4a7c15ULL);
        Rng rng(splitmix64(s));
        corrupt_cache = rng.nextBool(cfg.p_corrupt_cache);
        wedge = rng.nextBool(cfg.p_wedge);
        flaky_build = rng.nextBool(cfg.p_flaky_build);
        if (rng.nextBool(cfg.p_kill_class)) {
            fail_class = static_cast<int>(rng.nextBounded(2));
            fail_after = rng.nextBounded(4);
        }
    }
};

Architecture
archFromSpec(const std::string& spec)
{
    auto parts = splitChar(spec, ':');
    std::string base = toLower(parts[0]);
    if (base == "spade-sextans") {
        int scale = 4;
        if (parts.size() > 1) {
            long s = std::strtol(std::string(parts[1]).c_str(), nullptr, 10);
            HT_FATAL_IF(s <= 0 || s > 256,
                        "arch scale must be in [1, 256], got '", parts[1],
                        "'");
            scale = static_cast<int>(s);
        }
        return makeSpadeSextans(scale);
    }
    if (base == "pcie")
        return makeSpadeSextansPcie();
    if (base == "piuma")
        return makePiuma();
    HT_FATAL("unknown architecture '", spec,
             "' (try spade-sextans[:1|2|4|8], pcie, piuma)");
}

/** The homogeneous fallback of the degradation ladder: every tile on
 *  the cold (base-format) workers.  Needs only the tile count — no
 *  model, no partitioning heuristics. */
Partition
degradedColdPartition(size_t num_tiles)
{
    Partition p;
    p.is_hot.assign(num_tiles, 0);
    p.serial = false;
    p.predicted_cycles = 0;
    p.heuristic = "degraded-cold";
    return p;
}

CachedPlan
planFromPartition(const HotTiles& ht)
{
    CachedPlan plan;
    const Partition& p = ht.partition();
    plan.is_hot = p.is_hot;
    plan.serial = p.serial;
    plan.predicted_cycles = p.predicted_cycles;
    plan.heuristic = p.heuristic;
    AssignmentTotals totals = assignmentTotals(ht.context(), p.is_hot);
    if (totals.th_total + totals.tc_total > 0)
        plan.hot_share_hint =
            totals.th_total / (totals.th_total + totals.tc_total);
    plan.checksum = plan.payloadChecksum();
    return plan;
}

/** The session-map key of one tenant's named session. */
std::string
sessionMapKey(const std::string& tenant, const std::string& session)
{
    return tenant + '\x1f' + session;
}

bool
sameKernel(const KernelConfig& a, const KernelConfig& b)
{
    return a.k == b.k && a.kind == b.kind && a.ai_factor == b.ai_factor;
}

/**
 * Identity of a Run request for coalescing: two requests with equal
 * keys would build the same plan, execute the same values with the same
 * Din, and produce bit-identical replies.  Matrix identity is by handle
 * (the matrix string, or the matrix_data pointer for in-process
 * clients); session runs fold in tenant + session, since sessions are
 * tenant-scoped.  The deadline is included so a joiner never inherits a
 * tighter (or looser) degradation budget than it asked for.
 */
std::string
coalesceKey(const ServeRequest& req)
{
    char head[96];
    std::snprintf(head, sizeof head, "%p|%u|%u|%.17g|%llu|%.17g",
                  static_cast<const void*>(req.matrix_data.get()),
                  req.kernel.k, static_cast<unsigned>(req.kernel.kind),
                  req.kernel.ai_factor,
                  static_cast<unsigned long long>(req.seed),
                  req.deadline_ms);
    std::string key = head;
    key += '\x1f';
    key += req.matrix;
    key += '\x1f';
    key += req.arch;
    if (!req.session.empty()) {
        key += '\x1f';
        key += req.tenant;
        key += '\x1f';
        key += req.session;
    }
    return key;
}

} // namespace

/** One live per-tenant session: the delta-patched preprocessed state,
 *  the chained fingerprint, and the plan published under it.  Runs take
 *  the lock shared; deltas (which mutate the grid in place) exclusive. */
struct PlanService::SessionState
{
    std::shared_mutex mu;
    std::string arch_spec;
    std::unique_ptr<HotTiles> ht;
    FingerprintAccumulator acc;
    KernelConfig kernel;
    PlanKey key;
    std::shared_ptr<const CachedPlan> plan;
};

/** Joiners of one in-flight Run: the leader fans its reply out here. */
struct PlanService::CoalesceGroup
{
    struct Joiner
    {
        uint64_t id = 0;
        std::string tenant;
        ReplyCallback cb;
    };
    std::vector<Joiner> joiners;
};

/** One request's clock, deadline, chaos draws and reply.  Construction
 *  arms the watchdog with the whole deadline; done() disarms it. */
struct PlanService::RequestScope
{
    PlanService& svc;
    FlightSlot& slot;
    const ServeRequest& req;
    const double start = monotonicSeconds();
    const double deadline_s =
        start + (req.deadline_ms > 0 ? req.deadline_ms
                                     : svc.cfg_.default_deadline_ms) /
                    1e3;
    const ChaosPlan chaos{svc.cfg_.chaos, req.id};
    ServeReply reply;

    RequestScope(PlanService& s, FlightSlot& f, const ServeRequest& r)
        : svc(s), slot(f), req(r)
    {
        reply.id = r.id;
        arm(deadline_s);
    }

    double remaining() const { return deadline_s - monotonicSeconds(); }

    /** Arm the watchdog for a stage that must end by @p stage_deadline. */
    void arm(double stage_deadline)
    {
        slot.cancelled.store(false, std::memory_order_relaxed);
        slot.stage_deadline_s.store(stage_deadline, std::memory_order_relaxed);
        slot.active.store(true, std::memory_order_release);
    }

    ServeReply done(ServeStatus status, const char* detail)
    {
        slot.active.store(false, std::memory_order_release);
        reply.status = status;
        if (detail)
            reply.detail = detail;
        reply.latency_ms = (monotonicSeconds() - start) * 1e3;
        svc.traceTransition(serveStatusName(status), req.id);
        return reply;
    }

    /** The one native Run: Din from the request seed, a Golden run of
     *  the formats under the chaos fail-stop, the output checksum. */
    void execute(const TileGrid& grid, const Partition& part,
                 const TiledWork& hot, const UntiledWork& cold,
                 double hot_share_hint)
    {
        exec::NativeExecOptions eo;
        eo.policy = kernels::Policy::Golden;
        eo.hot_share_hint = hot_share_hint;
        eo.collect_unit_times = false;
        if (chaos.fail_class >= 0) {
            eo.fail_class = chaos.fail_class;
            eo.fail_after_tasks = chaos.fail_after;
            svc.traceTransition("chaos.kill_class", req.id);
        }
        DenseMatrix din(grid.matrixCols(), req.kernel.k);
        Rng value_rng(req.seed);
        din.fillRandom(value_rng);
        exec::ExecReport report;
        DenseMatrix out = exec::makeNativeCpuBackend(eo)->run(
            grid, part, hot, cold, req.kernel, din, &report);
        reply.checksum = denseChecksum(out);
        reply.exec_class_failed = report.class_failed;
    }
};

const char*
serveStatusName(ServeStatus s)
{
    switch (s) {
    case ServeStatus::Ok:
        return "OK";
    case ServeStatus::Degraded:
        return "DEGRADED";
    case ServeStatus::Shed:
        return "SHED";
    case ServeStatus::Timeout:
        return "TIMEOUT";
    case ServeStatus::Error:
        return "ERROR";
    }
    return "?";
}

uint64_t
denseChecksum(const DenseMatrix& m)
{
    const unsigned char* bytes =
        reinterpret_cast<const unsigned char*>(m.data().data());
    size_t n = m.data().size() * sizeof(Value);
    uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
    for (size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    return h;
}

HistogramMetric&
tenantLatencyHistogram(MetricsRegistry& reg, const std::string& label,
                       double deadline_ms)
{
    constexpr double kLoMs = 0.01;
    constexpr double kBinsPerDecade = 50;
    const double hi = std::max(deadline_ms, 10 * kLoMs);
    const auto bins =
        size_t(std::ceil(kBinsPerDecade * std::log10(hi / kLoMs)));
    return reg.histogram("serve.tenant." + label + ".latency_ms", kLoMs, hi,
                         bins, BinScale::Log);
}

PlanService::PlanService(const ServiceConfig& cfg)
    : cfg_(cfg), cache_(cfg.cache_capacity),
      resident_(cfg.resident_budget_bytes),
      queue_(cfg.queue_capacity, cfg.max_per_tenant)
{
    // Calibrating an architecture is a one-time, process-wide cost
    // (core/calibrate.cpp); do it for the default one now, so that it
    // does not eat into the deadline of the first request.
    resolveArch(ServeRequest().arch);
    unsigned workers = std::max(1u, cfg_.workers);
    // workers + 1 total parallelism = `workers` spawned pool threads;
    // every request executor is a real thread, never the submitter.
    pool_ = std::make_unique<ThreadPool>(workers + 1);
    flights_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        flights_.push_back(std::make_unique<FlightSlot>());
    for (unsigned i = 0; i < workers; ++i)
        pool_->submit([this, i] { workerLoop(i); });
    // Wait for every loop to actually start: pool shutdown discards
    // queued-but-unstarted tasks, and a discarded worker loop would
    // strand the accepted backlog if stop() raced construction.
    {
        std::unique_lock<std::mutex> lock(done_mu_);
        done_cv_.wait(lock, [&] { return workers_ready_ == workers; });
    }
    watchdog_ = std::thread([this] { watchdogLoop(); });
}

PlanService::~PlanService()
{
    stop();
}

void
PlanService::submit(ServeRequest req, ReplyCallback cb)
{
    n_submitted_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter("serve.requests").add();

    // Run coalescing: a request structurally identical to one already
    // in flight joins its group instead of taking a queue slot; the
    // leader's work fans the shared reply out (docs/SERVING.md).
    const bool coalescible =
        cfg_.coalesce_runs && req.mode == RequestMode::Run;
    const std::string ckey = coalescible ? coalesceKey(req) : std::string();

    auto ctx = std::make_shared<std::pair<ServeRequest, ReplyCallback>>(
        std::move(req), std::move(cb));
    AdmissionQueue::Item item;
    item.tenant = ctx->first.tenant;
    item.work = [this, ctx, ckey, coalescible] {
        FlightSlot& slot = *static_cast<FlightSlot*>(t_flight);
        ServeReply reply = handle(ctx->first, slot);
        // Detach the group before any reply goes out: a twin arriving
        // after this point starts a fresh group (and likely a cache
        // hit) instead of joining a group that already replied.
        std::vector<CoalesceGroup::Joiner> joiners;
        if (coalescible) {
            std::lock_guard<std::mutex> lock(coalesce_mu_);
            auto it = inflight_.find(ckey);
            if (it != inflight_.end()) {
                joiners = std::move(it->second->joiners);
                inflight_.erase(it);
            }
        }
        recordReply(reply, ctx->first.tenant);
        ctx->second(reply);
        finish(reply);
        for (CoalesceGroup::Joiner& j : joiners) {
            ServeReply twin = reply;
            twin.id = j.id;
            twin.coalesced = true;
            recordReply(twin, j.tenant);
            traceTransition("coalesced", twin.id);
            j.cb(twin);
            finish(twin);
        }
    };

    AdmissionResult res;
    if (coalescible) {
        std::unique_lock<std::mutex> clock(coalesce_mu_);
        auto it = inflight_.find(ckey);
        if (it != inflight_.end()) {
            it->second->joiners.push_back({ctx->first.id, ctx->first.tenant,
                                           std::move(ctx->second)});
            clock.unlock();
            n_coalesced_.fetch_add(1, std::memory_order_relaxed);
            MetricsRegistry::global().counter("serve.coalesced").add();
            queue_.noteCoalesced(ctx->first.tenant);
            std::lock_guard<std::mutex> lock(done_mu_);
            ++accepted_;  // drain() waits for the fan-out
            return;
        }
        // Leader: admit first; only an admitted leader opens a group
        // (a shed leader must not strand joiners).  Holding coalesce_mu_
        // across tryPush keeps lock order coalesce_mu_ -> queue, and a
        // worker finishing this key blocks on coalesce_mu_ until the
        // group is visible.
        res = stopped_.load() ? AdmissionResult::Closed
                              : queue_.tryPush(std::move(item));
        if (res == AdmissionResult::Admitted)
            inflight_.emplace(ckey, std::make_shared<CoalesceGroup>());
    } else {
        res = stopped_.load() ? AdmissionResult::Closed
                              : queue_.tryPush(std::move(item));
    }
    if (res == AdmissionResult::Admitted) {
        std::lock_guard<std::mutex> lock(done_mu_);
        ++accepted_;
        return;
    }

    // Shed synchronously: an overload reply must cost microseconds.
    ServeReply reply;
    reply.id = ctx->first.id;
    reply.status = ServeStatus::Shed;
    reply.detail = admissionResultName(res);
    recordReply(reply, ctx->first.tenant);
    traceTransition("shed", reply.id);
    ctx->second(reply);
}

ServeReply
PlanService::call(ServeRequest req)
{
    std::promise<ServeReply> promise;
    std::future<ServeReply> future = promise.get_future();
    submit(std::move(req),
           [&promise](const ServeReply& r) { promise.set_value(r); });
    return future.get();
}

void
PlanService::drain()
{
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] { return finished_ == accepted_; });
}

void
PlanService::stop()
{
    if (stopped_.exchange(true))
        return;
    queue_.close();       // accepted backlog still drains
    pool_->shutdown();    // waits for the worker loops to return
    watchdog_stop_.store(true);
    if (watchdog_.joinable())
        watchdog_.join();
}

ServiceStats
PlanService::stats() const
{
    ServiceStats s;
    s.submitted = n_submitted_.load();
    s.ok = n_ok_.load();
    s.degraded = n_degraded_.load();
    s.shed = n_shed_.load();
    s.timeout = n_timeout_.load();
    s.error = n_error_.load();
    s.retries = n_retries_.load();
    s.watchdog_trips = n_watchdog_trips_.load();
    s.exec_class_failures = n_exec_class_failures_.load();
    s.coalesced = n_coalesced_.load();
    s.deltas = n_deltas_.load();
    s.value_patches = n_value_patches_.load();
    {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        s.sessions = sessions_.size();
    }
    s.cache = cache_.stats();
    return s;
}

void
PlanService::workerLoop(unsigned slot_idx)
{
    t_flight = flights_[slot_idx].get();
    {
        std::lock_guard<std::mutex> lock(done_mu_);
        ++workers_ready_;
    }
    done_cv_.notify_all();
    while (auto item = queue_.pop())
        item->work();
    t_flight = nullptr;
}

void
PlanService::watchdogLoop()
{
    auto period = std::chrono::duration<double, std::milli>(
        std::max(cfg_.watchdog_period_ms, 0.05));
    while (!watchdog_stop_.load(std::memory_order_relaxed)) {
        double now = monotonicSeconds();
        for (auto& f : flights_) {
            if (!f->active.load(std::memory_order_acquire))
                continue;
            double dl = f->stage_deadline_s.load(std::memory_order_relaxed);
            if (dl > 0 && now > dl &&
                !f->cancelled.exchange(true, std::memory_order_acq_rel)) {
                n_watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
                MetricsRegistry::global()
                    .counter("serve.watchdog_trips")
                    .add();
            }
        }
        std::this_thread::sleep_for(period);
    }
}

std::shared_ptr<const CooMatrix>
PlanService::resolveMatrix(const ServeRequest& req)
{
    if (req.matrix_data)
        return req.matrix_data;
    return resident_.acquire(nullptr, req.matrix)->matrix();
}

std::shared_ptr<const Architecture>
PlanService::resolveArch(const std::string& spec)
{
    {
        std::lock_guard<std::mutex> lock(resolve_mu_);
        auto it = archs_.find(spec);
        if (it != archs_.end())
            return it->second;
    }
    Architecture a = calibrated(archFromSpec(spec));
    std::lock_guard<std::mutex> lock(resolve_mu_);
    return archs_
        .emplace(spec, std::make_shared<Architecture>(std::move(a)))
        .first->second;
}

std::shared_ptr<const HotTiles>
PlanService::sessionState(const std::string& tenant,
                          const std::string& session)
{
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(sessionMapKey(tenant, session));
    if (it == sessions_.end() || !it->second->ht)
        return nullptr;
    // Aliasing constructor: the HotTiles pointer keeps the whole
    // session alive.
    return std::shared_ptr<const HotTiles>(it->second,
                                           it->second->ht.get());
}

void
PlanService::finish(const ServeReply&)
{
    std::lock_guard<std::mutex> lock(done_mu_);
    ++finished_;
    done_cv_.notify_all();
}

std::string
PlanService::tenantLabel(const std::string& tenant)
{
    std::lock_guard<std::mutex> lock(tenant_mu_);
    auto it = tenant_labels_.find(tenant);
    if (it != tenant_labels_.end())
        return it->second;
    // Metric names are permanent registry entries, so the distinct-label
    // set is capped; later tenants share one overflow bucket.
    constexpr size_t kMaxTenantLabels = 64;
    if (tenant_labels_.size() >= kMaxTenantLabels)
        return "overflow";  // not memoized: the map must stay bounded too
    std::string label;
    label.reserve(tenant.size());
    for (char ch : tenant)
        label.push_back(std::isalnum(static_cast<unsigned char>(ch)) ||
                                ch == '-' || ch == '_'
                            ? ch
                            : '_');
    if (label.empty())
        label = "default";
    tenant_labels_.emplace(tenant, label);
    return label;
}

void
PlanService::recordReply(const ServeReply& reply, const std::string& tenant)
{
    MetricsRegistry& reg = MetricsRegistry::global();
    switch (reply.status) {
    case ServeStatus::Ok:
        n_ok_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.ok").add();
        break;
    case ServeStatus::Degraded:
        n_degraded_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.degraded").add();
        break;
    case ServeStatus::Shed:
        n_shed_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.shed").add();
        break;
    case ServeStatus::Timeout:
        n_timeout_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.timeout").add();
        break;
    case ServeStatus::Error:
        n_error_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.error").add();
        break;
    }
    if (reply.status != ServeStatus::Shed) {
        reg.timer("serve.latency").observe(reply.latency_ms / 1e3);
        // Per-tenant latency SLO distribution: the JSON snapshot reports
        // p50/p90/p99 per bucket.
        tenantLatencyHistogram(reg, tenantLabel(tenant),
                               cfg_.default_deadline_ms)
            .observe(reply.latency_ms);
    }
    if (reply.exec_class_failed) {
        n_exec_class_failures_.fetch_add(1, std::memory_order_relaxed);
        reg.counter("serve.exec_class_failures").add();
    }
}

void
PlanService::traceTransition(const char* event, uint64_t id)
{
    if (!cfg_.trace)
        return;
    Tick tick = static_cast<Tick>(monotonicSeconds() * 1e6);
    cfg_.trace->record(tick, "serve", event, id);
}

ServeReply
PlanService::handle(const ServeRequest& req, FlightSlot& slot)
{
    RequestScope rq(*this, slot, req);
    if (req.mode == RequestMode::Delta)
        return handleDelta(rq);
    if (!req.session.empty())
        return handleSession(rq);

    ServeReply& reply = rq.reply;
    const double deadline_s = rq.deadline_s;
    const ChaosPlan& chaos = rq.chaos;
    uint64_t jitter_seed = req.id * 0x2545f4914f6cdd1dULL + 0x9e37ULL;
    Rng jitter_rng(splitmix64(jitter_seed));

    // --- Resolve inputs (bounded work; whole-deadline budget). ---
    // The handle's resident entry holds what earlier requests derived
    // from the matrix; the fingerprint, grid and formats below come from
    // it and are built only by the first request that needs them.
    std::shared_ptr<ResidentMatrix> res;
    std::shared_ptr<const Architecture> arch;
    try {
        res = resident_.acquire(req.matrix_data, req.matrix);
        arch = resolveArch(req.arch);
    } catch (const FatalError&) {
        return rq.done(ServeStatus::Error, "bad-input");
    }
    if (req.mode == RequestMode::Run &&
        req.kernel.kind == SparseKernel::Sddmm)
        return rq.done(ServeStatus::Error, "sddmm-not-executable");

    const std::shared_ptr<const CooMatrix> matrix = res->matrix();
    const Index th = arch->tile_height;
    const Index tw = arch->tile_width;
    const PlanKey key =
        makePlanKey(res->fingerprint(th, tw), req.arch, th, tw, req.kernel);

    if (chaos.corrupt_cache) {
        uint64_t cseed = cfg_.chaos.seed ^ (req.id * 0x94d049bb133111ebULL);
        Rng crng(splitmix64(cseed));
        cache_.corruptOneEntry(crng);
        traceTransition("chaos.corrupt", req.id);
    }

    // --- Acquire a plan: cache -> fresh build (retry) -> degrade. ---
    std::shared_ptr<const CachedPlan> plan;
    CacheOutcome outcome = CacheOutcome::Miss;
    const char* degrade_reason = nullptr;
    bool flaky_pending = chaos.flaky_build;

    while (!plan && !degrade_reason) {
        if (slot.cancelled.load(std::memory_order_relaxed) ||
            rq.remaining() <= 0) {
            degrade_reason = "deadline";
            break;
        }
        // The plan stage gets a slice of the remaining deadline; the
        // held-back remainder funds the degraded fallback after a trip.
        // One clock read: at a fraction of 1 the stage deadline is the
        // request deadline exactly, so a trip always finds it expired.
        const double now = monotonicSeconds();
        rq.arm(deadline_s -
               (1 - cfg_.plan_budget_fraction) * (deadline_s - now));

        auto builder = [&]() -> CachedPlan {
            if (rq.remaining() * 1e3 < cfg_.fresh_floor_ms)
                throw BuildCancelled{"deadline-pressure"};
            if (flaky_pending) {
                flaky_pending = false;
                traceTransition("chaos.flaky", req.id);
                throw TransientBuildFailure{};
            }
            HotTilesOptions opts;
            opts.kernel = req.kernel;
            opts.build_formats = false;
            opts.progress = [&](const char* stage) {
                if (chaos.wedge && std::strcmp(stage, "model") == 0) {
                    traceTransition("chaos.wedge", req.id);
                    // Wedge: burn wall time until the watchdog trips.
                    // Only the cancel flag ends this loop — proving the
                    // watchdog, not cooperative politeness, fires.
                    while (!slot.cancelled.load(std::memory_order_acquire))
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(100));
                }
                if (slot.cancelled.load(std::memory_order_acquire))
                    throw BuildCancelled{"watchdog"};
            };
            HotTiles ht(*arch, *matrix, opts);
            return planFromPartition(ht);
        };

        try {
            plan = cache_.getOrBuild(key, builder, &outcome);
        } catch (const TransientBuildFailure&) {
            if (reply.retries >= cfg_.max_retries) {
                degrade_reason = "retries-exhausted";
                break;
            }
            ++reply.retries;
            n_retries_.fetch_add(1, std::memory_order_relaxed);
            MetricsRegistry::global().counter("serve.retries").add();
            traceTransition("retry", req.id);
            double backoff_ms = cfg_.backoff_base_ms *
                                double(1u << reply.retries) *
                                (0.5 + jitter_rng.nextDouble());
            backoff_ms = std::min(backoff_ms, rq.remaining() * 1e3);
            if (backoff_ms > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(backoff_ms));
        } catch (const BuildCancelled& c) {
            degrade_reason = c.reason;
        } catch (const FatalError&) {
            return rq.done(ServeStatus::Error, "build-failed");
        }
    }

    if (plan) {
        reply.plan_source = cacheOutcomeName(outcome);
        reply.predicted_cycles = plan->predicted_cycles;
        MetricsRegistry::global()
            .counter(std::string("serve.cache.") + reply.plan_source)
            .add();
        traceTransition(
            (std::string("plan.") + reply.plan_source).c_str(), req.id);
    } else {
        reply.plan_source = "degraded";
        MetricsRegistry::global().counter("serve.degrade").add();
        traceTransition("plan.degraded", req.id);
    }

    // --- Plan mode replies without touching values. ---
    if (req.mode == RequestMode::Plan) {
        if (plan) {
            reply.checksum = plan->checksum;
            return rq.done(ServeStatus::Ok, nullptr);
        }
        if (rq.remaining() <= 0)
            return rq.done(ServeStatus::Timeout, degrade_reason);
        // Degraded plan-mode reply: the fallback needs the tile count,
        // which the handle's resident grid holds (one scan, once).
        rq.arm(deadline_s);
        CachedPlan degraded;
        degraded.is_hot.assign(res->grid(th, tw).numTiles(), 0);
        degraded.heuristic = "degraded-cold";
        degraded.checksum = degraded.payloadChecksum();
        reply.checksum = degraded.checksum;
        return rq.done(ServeStatus::Degraded, degrade_reason);
    }

    // --- Run mode: execute the resident grid and formats. ---
    if (rq.remaining() <= 0)
        return rq.done(ServeStatus::Timeout,
                       degrade_reason ? degrade_reason : "deadline");
    rq.arm(deadline_s);
    try {
        const TileGrid& grid = res->grid(th, tw);
        Partition part;
        if (plan) {
            if (plan->is_hot.size() != grid.numTiles()) {
                // A fingerprint collision this gross should be
                // impossible; degrade rather than execute a plan of the
                // wrong shape.
                plan.reset();
                degrade_reason = "plan-shape-mismatch";
                reply.plan_source = "degraded";
            } else {
                part.is_hot = plan->is_hot;
                part.serial = plan->serial;
                part.predicted_cycles = plan->predicted_cycles;
                part.heuristic = plan->heuristic;
            }
        }
        if (!plan)
            part = degradedColdPartition(grid.numTiles());
        const std::shared_ptr<const ResidentFormats> formats =
            res->formats(th, tw, part);
        rq.execute(grid, part, formats->hot, formats->cold,
                   plan ? plan->hot_share_hint : 0);
        return rq.done(plan ? ServeStatus::Ok : ServeStatus::Degraded,
                       degrade_reason);
    } catch (const FatalError&) {
        return rq.done(ServeStatus::Error, "exec-failed");
    }
}

ServeReply
PlanService::handleSession(RequestScope& rq)
{
    const ServeRequest& req = rq.req;
    const std::string skey = sessionMapKey(req.tenant, req.session);
    std::shared_ptr<SessionState> s;
    bool create = false;
    {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        auto it = sessions_.find(skey);
        if (it != sessions_.end()) {
            s = it->second;
        } else {
            if (cfg_.max_sessions == 0 ||
                sessions_.size() >= cfg_.max_sessions)
                return rq.done(ServeStatus::Error, "session-limit");
            s = std::make_shared<SessionState>();
            sessions_.emplace(skey, s);
            create = true;
        }
    }

    if (create) {
        // First use builds the session's live state under its exclusive
        // lock; a concurrent request for the same session blocks on the
        // shared lock below until the state is ready (or gone).
        std::unique_lock<std::shared_mutex> wlock(s->mu);
        auto evict = [&] {
            std::lock_guard<std::mutex> lock(sessions_mu_);
            sessions_.erase(skey);
        };
        try {
            std::shared_ptr<const CooMatrix> matrix = resolveMatrix(req);
            std::shared_ptr<const Architecture> arch = resolveArch(req.arch);
            HotTilesOptions opts;
            opts.kernel = req.kernel;
            // The hook outlives this frame (applyDelta fires it on every
            // later delta), so it must not capture frame locals: the
            // thread-local flight slot is whichever request is running.
            opts.progress = [](const char*) {
                auto* fs = static_cast<FlightSlot*>(t_flight);
                if (fs && fs->cancelled.load(std::memory_order_acquire))
                    throw BuildCancelled{"watchdog"};
            };
            s->ht = std::make_unique<HotTiles>(*arch, *matrix, opts);
            s->acc = FingerprintAccumulator(*matrix, arch->tile_height,
                                            arch->tile_width);
            s->arch_spec = req.arch;
            s->kernel = req.kernel;
            s->key = makePlanKey(s->acc.fingerprint(), req.arch,
                                 arch->tile_height, arch->tile_width,
                                 req.kernel);
            CachedPlan plan = planFromPartition(*s->ht);
            cache_.put(s->key, plan);  // stamps plan.checksum
            plan.checksum = plan.payloadChecksum();
            s->plan = std::make_shared<const CachedPlan>(std::move(plan));
            MetricsRegistry::global().counter("serve.sessions").add();
            traceTransition("session.create", req.id);
        } catch (const BuildCancelled& c) {
            s->ht.reset();
            evict();
            return rq.done(ServeStatus::Timeout, c.reason);
        } catch (const FatalError&) {
            s->ht.reset();
            evict();
            return rq.done(ServeStatus::Error, "bad-input");
        }
    }

    std::shared_lock<std::shared_mutex> rlock(s->mu);
    if (!s->ht)  // a concurrent creator failed and evicted the session
        return rq.done(ServeStatus::Error, "no-session");
    if (req.arch != s->arch_spec)
        return rq.done(ServeStatus::Error, "session-arch-mismatch");
    if (!sameKernel(req.kernel, s->kernel))
        return rq.done(ServeStatus::Error, "session-kernel-mismatch");

    rq.reply.plan_source = "session";
    rq.reply.predicted_cycles = s->plan->predicted_cycles;
    if (req.mode == RequestMode::Plan) {
        rq.reply.checksum = s->plan->checksum;
        return rq.done(ServeStatus::Ok, nullptr);
    }

    // Run mode executes the live grid, partition and formats — no rescan
    // or format build, which is the point of keeping the session hot.
    if (req.kernel.kind == SparseKernel::Sddmm)
        return rq.done(ServeStatus::Error, "sddmm-not-executable");
    if (rq.remaining() <= 0)
        return rq.done(ServeStatus::Timeout, "deadline");
    rq.arm(rq.deadline_s);
    try {
        const HotTiles& ht = *s->ht;
        rq.execute(ht.grid(), ht.partition(), ht.hotFormat(),
                   ht.coldFormat(), s->plan->hot_share_hint);
        return rq.done(ServeStatus::Ok, nullptr);
    } catch (const FatalError&) {
        return rq.done(ServeStatus::Error, "exec-failed");
    }
}

ServeReply
PlanService::handleDelta(RequestScope& rq)
{
    const ServeRequest& req = rq.req;
    if (!req.delta)
        return rq.done(ServeStatus::Error, "bad-delta");
    std::shared_ptr<SessionState> s;
    {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        auto it = sessions_.find(sessionMapKey(req.tenant, req.session));
        if (it != sessions_.end())
            s = it->second;
    }
    if (!s)
        return rq.done(ServeStatus::Error, "no-session");

    std::unique_lock<std::shared_mutex> wlock(s->mu);
    if (!s->ht)
        return rq.done(ServeStatus::Error, "no-session");
    if (rq.remaining() <= 0)
        return rq.done(ServeStatus::Timeout, "deadline");

    const DeltaFrame& frame = *req.delta;
    if (!frame.batch.empty()) {
        // Structural path: patch the preprocessed state incrementally,
        // chain the fingerprint, and republish the plan under the
        // post-delta key — the cached plan is patched in place instead
        // of invalidated and rebuilt.
        try {
            s->ht->applyDelta(frame.batch);
        } catch (const BuildCancelled& c) {
            return rq.done(ServeStatus::Timeout, c.reason);  // unmodified
        } catch (const FatalError&) {
            return rq.done(ServeStatus::Error, "bad-delta");  // unmodified
        }
        s->acc.applyDelta(frame.batch);
        s->key.fp = s->acc.fingerprint();
        CachedPlan plan = planFromPartition(*s->ht);
        cache_.put(s->key, plan);
        plan.checksum = plan.payloadChecksum();
        s->plan = std::make_shared<const CachedPlan>(std::move(plan));
        n_deltas_.fetch_add(1, std::memory_order_relaxed);
        MetricsRegistry::global().counter("serve.delta").add();
        traceTransition("session.delta", req.id);
        rq.reply.plan_source = "delta-patch";
    }
    if (!frame.updates.empty()) {
        // Value-only fast path: straight to grid/format value patching;
        // fingerprint, partition and cache key are untouched by design.
        // patchValues validates every coordinate before writing, so a
        // bad entry leaves the session unmodified by this phase (the
        // structural half above, if any, stays applied — the detail
        // token tells the client which).
        try {
            s->ht->patchValues(frame.updates);
        } catch (const FatalError&) {
            return rq.done(ServeStatus::Error,
                           frame.batch.empty() ? "bad-values"
                                               : "bad-values-after-delta");
        }
        n_value_patches_.fetch_add(frame.updates.size(),
                                   std::memory_order_relaxed);
        MetricsRegistry::global()
            .counter("serve.value_patches")
            .add(frame.updates.size());
        traceTransition("session.value_patch", req.id);
        if (frame.valueOnly())
            rq.reply.plan_source = "value-patch";
    }
    if (frame.empty())
        rq.reply.plan_source = "value-patch";  // no-op: nothing to patch
    rq.reply.predicted_cycles = s->plan->predicted_cycles;
    rq.reply.checksum = s->plan->checksum;
    return rq.done(ServeStatus::Ok, nullptr);
}

} // namespace hottiles::serve
