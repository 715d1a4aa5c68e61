#pragma once

/**
 * @file
 * Execution simulator: given an architecture, a tiled matrix, and a
 * hot/cold tile assignment, builds the per-PE work lists, runs the
 * event-driven simulation (shared memory controller, optional PCIe
 * link, Merger), and reports cycles plus the utilization statistics of
 * Table VII.  Optionally computes the actual SpMM values from the same
 * work lists so functional correctness of the partitioning/format path
 * is testable.
 */

#include <vector>

#include "arch/arch_config.hpp"
#include "kernels/kernel_api.hpp"
#include "sim/worker.hpp"
#include "sparse/dense.hpp"
#include "sparse/tiling.hpp"

namespace hottiles {

class TraceSink;
struct FaultPlan;
class WorkListCache;

/** Simulation options. */
struct SimConfig
{
    /** Compute the output functionally from the work lists (needs din;
     *  SDDMM additionally needs u). */
    bool compute_values = false;
    const DenseMatrix* din = nullptr;  //!< Din (SpMM/SpMV) or V (SDDMM)
    const DenseMatrix* u = nullptr;    //!< U operand (SDDMM only)

    /** Optional trace sink: PE issue/retire, memory and link counter
     *  tracks, fault records (see sim/trace.hpp, sim/trace_json.hpp).
     *  Tracing only observes — SimStats stay bit-identical with and
     *  without a sink attached. */
    TraceSink* trace = nullptr;
    /** >0 samples achieved bandwidth every this many cycles. */
    Tick bw_probe_interval = 0;

    /** Collect per-segment [issue, retire] spans attributed to model
     *  units (tiles / row panels) into SimOutput::{hot,cold}_spans for
     *  prediction-error telemetry.  Ignored on fault-injected runs
     *  (migration re-dispatches would double-charge units). */
    bool collect_spans = false;

    /**
     * Optional fault-injection plan (see sim/fault_injector.hpp).  A
     * null or empty plan takes the unperturbed fast path (bit-identical
     * to a build without the fault subsystem); a non-empty plan routes
     * the run through the watchdog-supervised fault-tolerant executor.
     */
    const FaultPlan* faults = nullptr;

    /**
     * Optional shared memo of simulation setup (see sim/work_cache.hpp).
     * Each class's work list, shares and segment lists are taken from
     * (and published to) this memo instead of a private one, so
     * simulations on the same grid share one build per distinct tile
     * set.  The memo must outlive the simulation and serve only this
     * grid, architecture and kernel.
     */
    WorkListCache* work_cache = nullptr;
};

/** Observability of one fault-injected run (all-zero without faults). */
struct FaultStats
{
    uint64_t injected = 0;          //!< fault events applied
    uint64_t workers_failed = 0;    //!< PEs declared dead by the watchdog
    uint64_t tiles_migrated = 0;    //!< work units re-dispatched
    uint64_t migration_retries = 0; //!< re-dispatches beyond the first
    uint64_t nnz_redispatched = 0;  //!< nonzeros of migrated units
    bool degraded_mode = false;     //!< a worker class died entirely;
                                    //!< homogeneous fallback engaged
};

/** Measured results of one simulated execution. */
struct SimStats
{
    Tick cycles = 0;          //!< end-to-end cycles including merge
    double ms = 0;            //!< cycles at the architecture clock
    uint64_t total_nnz = 0;
    uint64_t hot_nnz = 0;
    uint64_t cold_nnz = 0;

    double mem_bytes = 0;         //!< main-memory traffic incl. merge
    double avg_bw_gbps = 0;       //!< achieved bandwidth over the run
    double lines_per_nnz = 0;     //!< memory lines per nonzero

    Tick hot_finish = 0;          //!< last hot-PE retire (0 if unused)
    Tick cold_finish = 0;
    double hot_gflops = 0;        //!< non-idle compute utilization
    double cold_gflops = 0;
    Tick merge_cycles = 0;        //!< Merger portion of `cycles`

    uint64_t cold_cache_hits = 0;   //!< Din cache behaviour (cold PEs)
    uint64_t cold_cache_misses = 0;
    uint64_t hot_stream_lines = 0;  //!< scratchpad stream over-fetch

    // Event-loop observability (deterministic like the fields above).
    uint64_t events_processed = 0;  //!< events the queue executed
    uint64_t peak_queue_depth = 0;  //!< high-water mark of pending events
    uint64_t batched_events = 0;    //!< completions coalesced away
    /** Host wall-clock milliseconds spent inside the event loop (the
     *  runUntilEmpty phase).  The one non-deterministic field: it
     *  measures the simulator, not the simulation, and is excluded
     *  from determinism/equivalence comparisons. */
    double loop_ms = 0;

    FaultStats faults;              //!< fault-injection observability
};

/** Stats plus the (optional) functional output. */
struct SimOutput
{
    SimStats stats;
    DenseMatrix dout;     //!< SpMM/SpMV result (if compute_values)
    CooMatrix sddmm_out;  //!< SDDMM sparse result (if compute_values)
    /** Bandwidth-over-time samples (bytes/cycle per window) when a
     *  probe interval was configured. */
    std::vector<double> bw_samples;
    /** Per-segment spans attributed to model units (tile ids for the
     *  hot/stream class, row-panel ids for the cold/demand class) when
     *  SimConfig::collect_spans is set; retire order. */
    std::vector<UnitSpan> hot_spans;
    std::vector<UnitSpan> cold_spans;
};

/**
 * Simulate one heterogeneous execution.
 * @param is_hot  per-grid-tile assignment (size == grid.numTiles())
 * @param serial  worker types execute one after the other (no Merger)
 */
SimOutput simulateExecution(const Architecture& arch, const TileGrid& grid,
                            const std::vector<uint8_t>& is_hot, bool serial,
                            const KernelConfig& kernel,
                            const SimConfig& cfg = {});

/** Homogeneous execution: every tile on the hot or the cold workers. */
SimOutput simulateHomogeneous(const Architecture& arch, const TileGrid& grid,
                              bool hot, const KernelConfig& kernel,
                              const SimConfig& cfg = {});

/**
 * The functional output of a simulation (SimConfig::compute_values):
 * runs the nonzero sets @p sets, in order, through the fast-policy COO
 * kernels (fp32 like the hardware).  SpMM and SpMV accumulate into
 * out.dout; SDDMM emits one scalar per nonzero into out.sddmm_out.
 */
void computeValues(const TileGrid& grid, const KernelConfig& kernel,
                   const SimConfig& cfg,
                   const std::vector<kernels::CooView>& sets,
                   SimOutput& out);

} // namespace hottiles
