#pragma once

/**
 * @file
 * The resilient partition-plan service (docs/SERVING.md): a long-lived,
 * multi-tenant front end over the HotTiles preprocessing pipeline and
 * the native execution backend.  Robustness is the design center:
 *
 *   - a structural-fingerprint plan cache (serve/plan_cache.hpp) with
 *     bounded capacity, LRU eviction and single-flight deduplication;
 *   - resident matrix handles (serve/resident.hpp): each handle's
 *     fingerprint, tile grid and worker formats, built once and kept
 *     within a byte budget, so a Run on a cached plan rescans nothing;
 *   - admission control and backpressure (serve/admission.hpp): a
 *     bounded request queue in front of the PR 1 thread pool, explicit
 *     OVERLOADED shedding, per-tenant fairness caps;
 *   - deadline propagation, bounded retry with exponential backoff and
 *     seeded jitter, and a per-stage watchdog that cancels a wedged
 *     stage so a request fails cleanly instead of hanging (the PR 2
 *     FatalError/watchdog discipline, realized on host threads);
 *   - a graceful-degradation ladder: cached plan -> fresh plan ->
 *     homogeneous degraded plan -> reject, with every transition
 *     recorded in the PR 4 metrics registry (serve.*) and, when a sink
 *     is attached, the Chrome trace;
 *   - a deterministic chaos mode that kills native-exec worker classes,
 *     corrupts cache entries, wedges stages past their deadline and
 *     injects transient build failures — all drawn from one seed.
 *
 * Every accepted request ends in exactly one reply: OK, DEGRADED,
 * SHED, TIMEOUT or ERROR.  Never a hang.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "model/worker_traits.hpp"
#include "serve/admission.hpp"
#include "serve/plan_cache.hpp"
#include "serve/resident.hpp"
#include "sparse/coo.hpp"
#include "sparse/delta.hpp"
#include "sparse/dense.hpp"

namespace hottiles {
struct Architecture;
class HistogramMetric;
class HotTiles;
class MetricsRegistry;
class ThreadPool;
class TraceSink;
}

namespace hottiles::serve {

/** Terminal states of a request (exactly one per request). */
enum class ServeStatus
{
    Ok,       //!< executed with a cached or fresh HotTiles plan
    Degraded, //!< completed on the homogeneous fallback plan
    Shed,     //!< rejected by admission control (OVERLOADED)
    Timeout,  //!< deadline exceeded / watchdog cancelled a stage
    Error,    //!< permanent failure (bad matrix, exhausted retries)
};

const char* serveStatusName(ServeStatus s);

/** What a request asks for. */
enum class RequestMode
{
    Plan,  //!< preprocess only: fingerprint, partition, predicted cycles
    Run,   //!< plan + native execution, replies with the result checksum
    Delta, //!< patch a session's live state in place (cmd=delta frames)
};

/**
 * One round of session mutations — the `cmd=delta` payload.  Structural
 * ops (the DeltaBatch, delta.hpp contract) apply first and re-key the
 * cached plan under the post-delta fingerprint; value updates apply
 * after and touch nothing but stored values (the value-only fast path).
 */
struct DeltaFrame
{
    DeltaBatch batch;          //!< structural inserts/deletes
    ValueUpdateBatch updates;  //!< pure value overwrites

    bool valueOnly() const { return batch.empty(); }
    bool empty() const { return batch.empty() && updates.empty(); }
};

/** One request, as parsed off the wire or built in process. */
struct ServeRequest
{
    uint64_t id = 0;
    std::string tenant = "default";
    /** Matrix handle: @name for a suite proxy or a MatrixMarket path.
     *  Ignored when matrix_data is set (in-process clients). */
    std::string matrix;
    /** In-process matrix; its pointer is its handle.  The service keeps
     *  a grid of its values resident (serve/resident.hpp), so it must
     *  not change while the caller shares it. */
    std::shared_ptr<const CooMatrix> matrix_data;
    std::string arch = "spade-sextans:4";
    RequestMode mode = RequestMode::Run;
    KernelConfig kernel;
    double deadline_ms = 0;  //!< 0 = the service default
    uint64_t seed = 42;      //!< Din generation seed (Run mode)
    /** Named per-tenant session.  A plan/run request naming a session
     *  creates it on first use (from `matrix`) and afterwards executes
     *  against its live, delta-patched state; delta requests require
     *  it.  Empty = the classic stateless path. */
    std::string session;
    /** The mutations of a Delta request (unused otherwise). */
    std::shared_ptr<const DeltaFrame> delta;
};

/** The single reply every request receives. */
struct ServeReply
{
    uint64_t id = 0;
    ServeStatus status = ServeStatus::Error;
    /** Where the plan came from: hit|miss|shared|corrupt|bypass for the
     *  cache ladder rungs, "degraded" for the homogeneous fallback,
     *  "-" when no plan was produced. */
    std::string plan_source = "-";
    std::string detail;       //!< single-token diagnostic (no spaces)
    double latency_ms = 0;
    uint32_t retries = 0;
    uint64_t checksum = 0;    //!< Run: output checksum; Plan: plan checksum
    double predicted_cycles = 0;
    bool exec_class_failed = false;  //!< native fail-stop was survived
    /** This reply was fanned out from a coalesced twin's execution. */
    bool coalesced = false;
};

/** Deterministic chaos-mode knobs (seed 0 = chaos off). */
struct ChaosConfig
{
    uint64_t seed = 0;
    double p_kill_class = 0.15;    //!< native-exec class fail-stop
    double p_corrupt_cache = 0.15; //!< flip a bit in a resident plan
    double p_wedge = 0.10;         //!< wedge the plan stage (watchdog food)
    double p_flaky_build = 0.20;   //!< transient build failure (retryable)

    bool enabled() const { return seed != 0; }
};

/** Service-wide configuration. */
struct ServiceConfig
{
    unsigned workers = 4;           //!< request executors (>= 1)
    size_t queue_capacity = 64;     //!< bounded admission queue slots
    size_t max_per_tenant = 0;      //!< per-tenant queue cap (0 = none)
    size_t cache_capacity = 128;    //!< resident plans (0 = cache off)
    double default_deadline_ms = 1000;
    uint32_t max_retries = 2;       //!< transient-failure retry bound
    double backoff_base_ms = 1.0;   //!< exponential backoff base
    /** Fraction of the remaining deadline granted to the plan stage;
     *  the held-back remainder is what lets a cancelled plan stage
     *  still degrade to the homogeneous fallback in time. */
    double plan_budget_fraction = 0.8;
    /** Remaining-deadline floor below which a cache miss skips the
     *  fresh build and degrades immediately (deadline pressure). */
    double fresh_floor_ms = 2.0;
    double watchdog_period_ms = 1.0;
    /** Join structurally-identical in-flight Run requests onto one
     *  build + execution and fan the reply out (request coalescing). */
    bool coalesce_runs = true;
    /** Live per-tenant sessions the service will hold (0 = sessions
     *  disabled; session requests reply ERROR session-limit). */
    size_t max_sessions = 64;
    /** Cap on resident handle bytes (loaded wire matrices, grids and
     *  formats, plus a fixed charge per entry), LRU-evicted past it;
     *  0 keeps nothing resident across requests. */
    size_t resident_budget_bytes = size_t(512) << 20;
    ChaosConfig chaos;
    TraceSink* trace = nullptr;     //!< optional transition trace sink
};

/** Monotonic service counters (snapshot). */
struct ServiceStats
{
    uint64_t submitted = 0;
    uint64_t ok = 0;
    uint64_t degraded = 0;
    uint64_t shed = 0;
    uint64_t timeout = 0;
    uint64_t error = 0;
    uint64_t retries = 0;
    uint64_t watchdog_trips = 0;
    uint64_t exec_class_failures = 0;
    uint64_t coalesced = 0;      //!< requests that joined an in-flight twin
    uint64_t deltas = 0;         //!< structural delta frames applied
    uint64_t value_patches = 0;  //!< value-only updates applied
    uint64_t sessions = 0;       //!< live sessions (gauge, not monotonic)
    PlanCacheStats cache;

    uint64_t completed() const { return ok + degraded + timeout + error; }
    uint64_t terminal() const { return completed() + shed; }
};

/** FNV-1a checksum over a dense matrix's value bytes (reply checksums;
 *  also how tests compare against referenceExecute output). */
uint64_t denseChecksum(const DenseMatrix& m);

/**
 * The reply-latency histogram `serve.tenant.<label>.latency_ms` of one
 * tenant label in @p reg.  Its bins are log-spaced from 0.01 ms to
 * @p deadline_ms, 50 per decade, so a quantile (a bin's upper edge)
 * lies less than 5% above the sample it stands for.  Latencies past the
 * deadline clamp into the last bin, which is the SLO-miss band.
 */
HistogramMetric& tenantLatencyHistogram(MetricsRegistry& reg,
                                        const std::string& label,
                                        double deadline_ms);

/**
 * The service itself.  Construction starts the worker pool and the
 * watchdog; stop() (or destruction) closes admission, drains, joins.
 */
class PlanService
{
  public:
    using ReplyCallback = std::function<void(const ServeReply&)>;

    explicit PlanService(const ServiceConfig& cfg);
    ~PlanService();
    PlanService(const PlanService&) = delete;
    PlanService& operator=(const PlanService&) = delete;

    /**
     * Submit one request.  Returns immediately; @p cb fires exactly
     * once — synchronously on this thread when the request is shed or
     * the service is stopping, on a worker thread otherwise.
     */
    void submit(ServeRequest req, ReplyCallback cb);

    /** Synchronous convenience: submit and block for the reply. */
    ServeReply call(ServeRequest req);

    /** Block until every accepted request has replied. */
    void drain();

    /** Close admission, drain, join workers and watchdog. Idempotent. */
    void stop();

    ServiceStats stats() const;
    PlanCache& cache() { return cache_; }

    /**
     * The live preprocessed state of @p tenant's @p session, or null
     * when no such session exists.  The returned pointer keeps the
     * session alive but is NOT synchronized against concurrent deltas —
     * drain() first.  Test/diagnostic access only.
     */
    std::shared_ptr<const HotTiles> sessionState(const std::string& tenant,
                                                 const std::string& session);

  private:
    struct SessionState;
    struct CoalesceGroup;
    struct RequestScope;

    struct FlightSlot
    {
        std::atomic<bool> active{false};
        std::atomic<bool> cancelled{false};
        /** Absolute monotonic deadline of the current stage (seconds). */
        std::atomic<double> stage_deadline_s{0};
    };

    void workerLoop(unsigned slot_idx);
    void watchdogLoop();
    ServeReply handle(const ServeRequest& req, FlightSlot& slot);
    ServeReply handleDelta(RequestScope& rq);
    ServeReply handleSession(RequestScope& rq);
    std::shared_ptr<const CooMatrix> resolveMatrix(const ServeRequest& req);
    std::shared_ptr<const Architecture> resolveArch(const std::string& spec);
    void finish(const ServeReply& reply);
    void recordReply(const ServeReply& reply, const std::string& tenant);
    /** The bounded, sanitized metric label for @p tenant (SLO metrics). */
    std::string tenantLabel(const std::string& tenant);
    void traceTransition(const char* event, uint64_t id);

    const ServiceConfig cfg_;
    PlanCache cache_;
    // Resident handles: per matrix handle, its loaded matrix (wire
    // handles) and per tile shape its fingerprint, grid and formats.
    ResidentStore resident_;
    AdmissionQueue queue_;
    std::unique_ptr<ThreadPool> pool_;
    std::vector<std::unique_ptr<FlightSlot>> flights_;
    std::thread watchdog_;
    std::atomic<bool> watchdog_stop_{false};

    // Resolved architectures (specs repeat across a stream).
    std::mutex resolve_mu_;
    std::map<std::string, std::shared_ptr<const Architecture>> archs_;

    // Per-tenant sessions: live HotTiles state + chained fingerprint,
    // keyed by tenant '\x1f' session.  Each session carries its own
    // reader/writer lock (runs share, deltas exclusive).
    mutable std::mutex sessions_mu_;
    std::map<std::string, std::shared_ptr<SessionState>> sessions_;

    // In-flight Run coalescing: identity key -> the group joiners
    // append to.  The leader removes the group before fanning out, so
    // a late twin starts a new group instead of joining a dead one.
    std::mutex coalesce_mu_;
    std::map<std::string, std::shared_ptr<CoalesceGroup>> inflight_;

    // Per-tenant SLO metric labels: sanitized, cardinality-capped
    // (metric names live forever in the registry, so an unbounded
    // tenant-id stream must collapse into one overflow bucket).
    std::mutex tenant_mu_;
    std::map<std::string, std::string> tenant_labels_;

    // Accepted-vs-finished accounting for drain().
    std::mutex done_mu_;
    std::condition_variable done_cv_;
    uint64_t accepted_ = 0;
    uint64_t finished_ = 0;
    unsigned workers_ready_ = 0;  //!< worker loops that have started

    std::atomic<bool> stopped_{false};
    std::atomic<uint64_t> n_submitted_{0}, n_ok_{0}, n_degraded_{0},
        n_shed_{0}, n_timeout_{0}, n_error_{0}, n_retries_{0},
        n_watchdog_trips_{0}, n_exec_class_failures_{0}, n_coalesced_{0},
        n_deltas_{0}, n_value_patches_{0};
};

} // namespace hottiles::serve
