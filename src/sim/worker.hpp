#pragma once

/**
 * @file
 * The generic latency-tolerant processing-element engine.  Every PE in
 * the repository — SPADE PE, Sextans, PIUMA MTP and STP — reduces to a
 * pipeline over an ordered list of *segments* (a run of nonzeros for
 * demand-access workers, a whole tile for streaming workers):
 *
 *   - each segment needs `read_lines` from memory before it can compute;
 *   - compute occupies the PE's functional units for `compute_cycles`;
 *   - `write_lines` are posted fire-and-forget when compute retires;
 *   - up to `depth` segments may be in flight (outstanding reads),
 *     which is the PE's latency-tolerance knob: large for the
 *     out-of-order SPADE PEs and the multithreaded PIUMA MTPs, two
 *     (double buffering) for the streaming Sextans/STP workers.
 *
 * What distinguishes the PE types is how their segment lists are built
 * (sim/demand_pe for SPADE PEs and PIUMA MTPs, sim/stream_pe for Sextans
 * PEs and PIUMA STPs), which encodes their traversal order, formats,
 * caches, and scratchpad streaming.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/memory_system.hpp"

namespace hottiles {

class TraceSink;

/** SegSpec::unit value meaning "not attributed to any model unit". */
inline constexpr uint32_t kNoUnit = UINT32_MAX;

/** One unit of pipelined work. */
struct SegSpec
{
    uint32_t read_lines = 0;    //!< blocking line reads before compute
    uint32_t write_lines = 0;   //!< posted line writes at retire
    float compute_cycles = 0;   //!< functional-unit occupancy
    uint32_t nnz = 0;           //!< nonzeros retired by this segment
    /** Model unit this segment belongs to — tile id for streaming
     *  workers, row-panel id for demand workers — so simulated segment
     *  times can be charged back against the analytical model's
     *  per-tile th/tc estimates (Fig 17 telemetry).  kNoUnit opts out. */
    uint32_t unit = kNoUnit;
};

/**
 * One retired segment attributed to a model unit: [issue, retire]
 * simulated ticks.  Collected per PE class (see SimOutput) to compare
 * against the roofline model's per-tile predictions.
 */
struct UnitSpan
{
    uint32_t unit = kNoUnit;  //!< tile id (stream) or panel id (demand)
    uint32_t nnz = 0;
    Tick begin = 0;           //!< issue tick
    Tick end = 0;             //!< retire tick
};

/** Post-run statistics of one PE. */
struct WorkerStats
{
    uint64_t nnz = 0;
    uint64_t segments = 0;
    uint64_t lines_read = 0;
    uint64_t lines_written = 0;
    double compute_cycles = 0;
    Tick start = 0;
    Tick finish = 0;
    uint64_t batched = 0;  //!< issue events saved by run coalescing
};

/** A pipelined PE executing a static segment list against a MemPort. */
class PipelinedWorker
{
  public:
    /**
     * @param depth  maximum in-flight segments (latency tolerance)
     * @param segs   the work, in traversal order
     */
    PipelinedWorker(std::string name, EventQueue& eq, MemPort& mem,
                    uint32_t depth, std::vector<SegSpec> segs);

    /** Begin issuing at the current tick; @p on_done fires at retire of
     *  the last segment (posted writes may still be draining). */
    void start(EventQueue::Callback on_done = {});

    /** Attach an optional trace sink (issue records + retire spans per
     *  segment).  Attach before start(). */
    void setTrace(TraceSink* trace) { trace_ = trace; }

    /** Collect [issue, retire] spans of unit-attributed segments into
     *  @p spans (owned by the caller; appended in retire order).
     *  Attach before start(). */
    void setSpanCollector(std::vector<UnitSpan>* spans) { spans_ = spans; }

    /**
     * Append more work to the segment list.  If the worker already
     * drained its list it resumes issuing; a fail-stopped worker
     * silently ignores the new work.  Used by the fault-tolerant
     * execution path to migrate tiles between PEs.
     */
    void appendSegments(std::vector<SegSpec> more);

    /**
     * Fail-stop the PE *silently*: no further segments issue, in-flight
     * reads and computes are discarded on completion, and no completion
     * callback fires.  The watchdog of the fault-injection subsystem
     * detects the resulting lack of retire progress — exactly how a
     * real fail-stop is observed.
     */
    void failStop() { failed_ = true; }
    bool failedStop() const { return failed_; }

    /** Multiply all subsequently-issued compute latencies by @p scale
     *  (> 1 models a degraded/thermally-throttled PE). */
    void setComputeScale(double scale);

    bool done() const { return done_; }
    const WorkerStats& stats() const { return stats_; }
    const std::string& name() const { return name_; }

    /** Segments retired so far (monotone; the watchdog's progress
     *  signal). */
    size_t retiredSegments() const { return retired_; }
    /** Segments dispatched to this PE so far. */
    size_t totalSegments() const { return segs_.size(); }

  private:
    void issueNext();
    void onReadDone(size_t idx);
    void retire(size_t idx);

    std::string name_;
    EventQueue& eq_;
    MemPort& mem_;
    uint32_t depth_;
    std::vector<SegSpec> segs_;
    size_t next_issue_ = 0;
    size_t retired_ = 0;
    uint32_t inflight_ = 0;
    double compute_free_ = 0.0;  //!< next cycle the FUs are available
    double compute_scale_ = 1.0; //!< fault-injected compute slowdown
    bool started_ = false;
    bool failed_ = false;        //!< fail-stopped (silent)
    bool done_ = false;
    WorkerStats stats_;
    EventQueue::Callback on_done_;
    TraceSink* trace_ = nullptr;
    std::vector<UnitSpan>* spans_ = nullptr;
    std::vector<Tick> issue_ticks_;  //!< lazily kept when observed
};

} // namespace hottiles
