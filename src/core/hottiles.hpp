#pragma once

/**
 * @file
 * The HotTiles framework front end (Fig 7): given an architecture and a
 * sparse matrix, it tiles the matrix (matrix scan), evaluates the
 * IMH-aware performance model per tile, runs the partitioning
 * heuristics, and prepares the per-worker-type sparse formats — all
 * instrumented for the Fig 18 preprocessing-cost breakdown.  This is
 * the primary public API of the library.
 */

#include <functional>
#include <memory>

#include "arch/arch_config.hpp"
#include "core/compiled_plan.hpp"
#include "core/preprocess.hpp"
#include "partition/heuristics.hpp"
#include "partition/iunaware.hpp"
#include "sparse/coo.hpp"
#include "sparse/tiling.hpp"

namespace hottiles {

struct ValueUpdateBatch;
class MappedMatrix;

/** What one HotTiles::applyDelta call did (docs/INCREMENTAL.md). */
struct DeltaUpdateStats
{
    size_t inserts = 0;
    size_t deletes = 0;
    size_t dirty_panels = 0;   //!< row panels the batch touched
    size_t dirty_tiles = 0;    //!< tiles re-evaluated under the model
    /** Clean-panel tiles whose hot/cold class flipped (tile migration);
     *  dirty-panel tiles are rebuilt regardless and not counted here. */
    size_t migrated_tiles = 0;
    size_t panels_reused = 0;   //!< cold-format panels moved over as-is
    size_t panels_rebuilt = 0;  //!< cold-format panels rebuilt
    /** A clean tile changed class or the winning heuristic changed. */
    bool partition_changed = false;
    double update_s = 0;  //!< wall-clock cost of this update
};

/** Options of a HotTiles pipeline run. */
struct HotTilesOptions
{
    KernelConfig kernel;          //!< K and gSpMM arithmetic intensity
    /** Run the format stage: compile plan() (both worker formats and
     *  their tasks) eagerly, and keep it patched through applyDelta and
     *  patchValues.  Off, the pipeline ends at the partition. */
    bool build_formats = true;
    uint64_t iunaware_seed = 42;  //!< tile randomization of the baseline

    /**
     * Invoked before each pipeline stage with its name ("scan",
     * "model", "partition", "format", and "update" for incremental
     * applyDelta calls).  A caller may throw from the
     * hook to abandon a build mid-pipeline — the serving layer uses
     * this to cancel builds whose deadline already passed
     * (docs/SERVING.md); the exception propagates out of the
     * constructor.  Leave empty for unconditional builds.
     */
    std::function<void(const char* stage)> progress;
};

/**
 * One preprocessed matrix, ready for heterogeneous execution.
 *
 * Construction performs the full preprocessing pipeline.  The
 * architecture is expected to be calibrated (see core/calibrate.hpp);
 * worker counts of both types must be nonzero.
 */
class HotTiles
{
  public:
    HotTiles(const Architecture& arch, const CooMatrix& a,
             const HotTilesOptions& opts = {});

    /**
     * Preprocess a memory-mapped `.htb` matrix (docs/OUTOFCORE.md): the
     * input is tiled straight from the mapping through TileGrid's
     * zero-copy span constructor — no CooMatrix copy is ever
     * materialized, so peak RSS excludes the O(nnz) input arrays.  The
     * resulting state is bit-identical (samePreprocessedState) to
     * constructing from the equivalent in-memory CooMatrix.
     * @throws FatalError when the mapped data is malformed.
     */
    HotTiles(const Architecture& arch, const MappedMatrix& m,
             const HotTilesOptions& opts = {});

    const Architecture& arch() const { return arch_; }
    const KernelConfig& kernel() const { return opts_.kernel; }
    const TileGrid& grid() const { return *grid_; }
    const PartitionContext& context() const { return ctx_; }

    /** The selected HotTiles partitioning (best of the heuristics). */
    const Partition& partition() const { return partition_; }

    /** All heuristic candidates (Fig 12 comparison). */
    std::vector<Partition> allHeuristics() const;

    /** The IMH-unaware baseline partitioning (§III-B). */
    Partition iunaware(uint64_t seed) const;
    Partition iunaware() const { return iunaware(opts_.iunaware_seed); }

    /** Model-predicted homogeneous runtimes (used by Fig 17). */
    double predictedHotOnlyCycles() const;
    double predictedColdOnlyCycles() const;

    /** The format stage's output: the selected partitioning compiled
     *  into both worker formats and their tasks, what native execution
     *  runs (exec::ExecutionBackend::run).  Needs build_formats. */
    const CompiledPlan& plan() const;

    /** Preprocessing stage timings (Fig 18). */
    const PreprocessTiming& timing() const { return timing_; }

    /**
     * Patch this preprocessed matrix with one DeltaBatch instead of
     * re-running the pipeline from scratch: the tiling layer re-tiles
     * only the dirty row panels, the per-tile model re-evaluates only
     * their tiles (clean panels' estimates are spliced over), the
     * heuristic sweep re-runs on the spliced estimates — it is global
     * by construction, but O(tiles log tiles), not O(nnz) — and the
     * plan's cold format reuses every panel whose data and cold
     * membership did not move, after which the plan re-derives its
     * tasks.  The resulting grid, partition and plan are bit-identical
     * to constructing HotTiles(arch, applyDeltaToCoo(a, d), opts)
     * across thread counts.  The "update" progress hook fires
     * once per call; the cost lands in timing().update_s.
     * @throws FatalError on a batch-contract violation (delta.hpp),
     * leaving the object unmodified.
     */
    DeltaUpdateStats applyDelta(const DeltaBatch& d);

    /**
     * Value-only fast path: overwrite the values of @p u's coordinates
     * in the tiled arrays and, when formats were built, in the plan's
     * copied cold panel values — nothing else.  Values affect no
     * tile statistic, model estimate, partition decision or fingerprint,
     * so this skips every pipeline stage (including stage 1'-3' of
     * applyDelta) and costs O(|u| log nnz).  The result is bit-identical
     * to a from-scratch build of the value-updated matrix
     * (applyValueUpdatesToCoo).  Every coordinate is validated before
     * anything is written: on FatalError (an entry names an empty
     * coordinate) the object is unmodified.  Returns the entry count.
     */
    size_t patchValues(const ValueUpdateBatch& u);

  private:
    /** Shared pipeline body: stage 1 builds the grid via @p make_grid
     *  (in-memory sort-and-tile, or zero-copy from a mapping), stages
     *  2-4 are identical for both constructors. */
    void buildPipeline(
        const std::function<std::unique_ptr<TileGrid>()>& make_grid);

    Architecture arch_;
    HotTilesOptions opts_;
    std::unique_ptr<TileGrid> grid_;
    PartitionContext ctx_;
    Partition partition_;
    std::unique_ptr<CompiledPlan> plan_;  //!< null without build_formats
    PreprocessTiming timing_;
    /** Per-heuristic sweep state for incremental re-partitioning; empty
     *  (no memory cost) until the first applyDelta seeds it. */
    PartitionSweepCache sweep_cache_;
    /** Retired estimates buffer recycled by the next applyDelta. */
    std::vector<TileEstimate> est_scratch_;
};

/**
 * Bit-exact equality of two preprocessed states: grid (tiles + tiled
 * arrays), partition and plan (both worker formats, is_hot, tasks,
 * joins and idle panels).  This is the acceptance
 * contract of the incremental path (docs/INCREMENTAL.md) — anything
 * short of bit-identity would let update streams drift from what a
 * from-scratch preprocessing would produce.  Both objects must have
 * been built with formats enabled.
 */
bool samePreprocessedState(const HotTiles& a, const HotTiles& b);

} // namespace hottiles
