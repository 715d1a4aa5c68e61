#pragma once

/**
 * @file
 * The four HotTiles partitioning heuristics (§V-B, Fig 8, Table II) and
 * the selector that runs all applicable ones and keeps the partitioning
 * with the lowest final predicted runtime.  Each heuristic sorts the
 * tiles by a hot-cold difference key and sweeps a cutoff index from the
 * all-cold end, stopping at the first objective increase; total cost is
 * O(N log N).
 */

#include "partition/partition.hpp"
#include "partition/predicted_runtime.hpp"

namespace hottiles {

struct TileGridDelta;

/** The four optimization subproblems of Fig 8. */
enum class Heuristic
{
    MinTimeParallel,
    MinTimeSerial,
    MinByteParallel,
    MinByteSerial,
};

/** Human-readable heuristic name ("MinTime Parallel", ...). */
const char* heuristicName(Heuristic h);

/**
 * Solve one optimization subproblem and return its partitioning with
 * the final (readjusted, bandwidth- and merge-aware) predicted runtime
 * filled in.
 */
Partition runHeuristic(const PartitionContext& ctx, Heuristic h);

/**
 * The full HotTiles partitioner: run all four heuristics (only the two
 * Parallel ones when the architecture has atomic RMW support) and keep
 * the one with the lowest predicted runtime.
 */
Partition hotTilesPartition(const PartitionContext& ctx);

/**
 * The heuristics hotTilesPartition would run for @p ctx, in run order
 * (all four, or only the Parallel pair under atomic RMW).  Exposed for
 * the out-of-core planner, which evaluates the same candidate set
 * without a grid (docs/OUTOFCORE.md).
 */
std::vector<Heuristic> applicableHeuristicSet(const PartitionContext& ctx);

/**
 * One heuristic's sort + cutoff sweep only: the candidate assignment
 * with serial/heuristic filled in but predicted_cycles left 0.  Needs
 * nothing beyond ctx.estimates and the worker counts, so it works on
 * grid-free contexts; identical to the assignment runHeuristic scores.
 */
Partition heuristicSweepCandidate(const PartitionContext& ctx, Heuristic h);

/**
 * Index of the winning candidate: lowest predicted_cycles, ties keep
 * the earlier entry — the exact rule hotTilesPartition applies.
 */
size_t bestPartitionIndex(const std::vector<Partition>& candidates);

/**
 * Cached state of one heuristic's last sweep: the sorted tile order
 * (total order — ties broken by tile id, so the sequence is a pure
 * function of the estimates and can be maintained by merging), the
 * per-tile sweep costs aligned with that order (merged alongside it,
 * sparing the delta path a random-gather pass over the estimates), the
 * candidate assignment that was scored, and its per-tile score.
 */
struct HeuristicState
{
    Heuristic h = Heuristic::MinTimeParallel;
    std::vector<size_t> order;      //!< tile ids by (key, id)
    std::vector<Index> panel;       //!< row panel of order[i] (stable)
    std::vector<double> hot_cost;   //!< th or bh of order[i]
    std::vector<double> cold_cost;  //!< tc or bc of order[i]
    std::vector<uint8_t> is_hot;    //!< the candidate that was scored
    AssignmentScore score;          //!< its per-tile score arrays

    /** Retired buffers recycled by the next delta's merge/score pass.
     *  Updates run every few milliseconds in a serving loop, and
     *  releasing multi-megabyte vectors each round just to mmap them
     *  back dominated the delta path's wall clock. */
    std::vector<size_t> order_scratch;
    std::vector<Index> panel_scratch;
    std::vector<double> hot_scratch;
    std::vector<double> cold_scratch;
    AssignmentScore score_scratch;
};

/**
 * One HeuristicState per applicable heuristic, in the order
 * hotTilesPartition runs them.  Seeded by hotTilesPartition(ctx,
 * &cache) and advanced in place by hotTilesPartitionDelta; roughly
 * 41 bytes per tile per heuristic, so HotTiles only materializes it
 * once applyDelta is first called (docs/INCREMENTAL.md).
 */
struct PartitionSweepCache
{
    std::vector<HeuristicState> states;

    bool seeded() const { return !states.empty(); }
};

/** hotTilesPartition that also seeds @p cache (ignored when null). */
Partition hotTilesPartition(const PartitionContext& ctx,
                            PartitionSweepCache* cache);

/**
 * Incremental re-partitioning after a TileGrid::applyDelta: per
 * heuristic, dirty-panel tiles are merged into the cached sorted order
 * (clean tiles keep their keys and their relative order — the old->new
 * id remap is monotonic), the cutoff sweep re-runs over the merged
 * order, and the final predicted-runtime score recomputes only panels
 * that are dirty or whose membership pattern changed, splicing every
 * other panel's cached per-tile score.  @p ctx must hold the post-delta
 * grid and spliced estimates; @p cache must have been seeded against
 * the pre-delta grid.  Returns the winning partition bit-identically to
 * hotTilesPartition(ctx) and advances the cache to the new grid.
 */
Partition hotTilesPartitionDelta(const PartitionContext& ctx,
                                 const TileGridDelta& gd,
                                 PartitionSweepCache& cache);

/**
 * Like hotTilesPartition but also returns every candidate (used by the
 * heuristic-comparison experiment of Fig 12).
 */
std::vector<Partition> allHeuristicPartitions(const PartitionContext& ctx);

} // namespace hottiles
