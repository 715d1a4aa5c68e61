#pragma once

/**
 * @file
 * Final predicted-runtime evaluation (last column of Fig 8) including
 * the §IV-C reuse readjustment: once the assignment of tiles to worker
 * types is known, inter-tile Dout reuse is re-charged to the first tile
 * of each worker type in every row panel (tiled traversal) or to the
 * first tile containing each r_id (untiled traversal).
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "model/memory_model.hpp"
#include "partition/partition.hpp"

namespace hottiles {

/** Totals over an assignment after readjustment (Eq 2-3). */
struct AssignmentTotals
{
    double th_total = 0;  //!< sum over hot tiles of th_i / N_hw
    double tc_total = 0;  //!< sum over cold tiles of tc_i / N_cw
    double bh_total = 0;  //!< bytes moved by hot workers
    double bc_total = 0;  //!< bytes moved by cold workers

    double bTotal() const { return bh_total + bc_total; }

    /** The hot workers' share of the predicted time, th / (th + tc); 0
     *  when both totals are 0. */
    double
    hotShare() const
    {
        const double t = th_total + tc_total;
        return t > 0 ? th_total / t : 0;
    }
};

/**
 * Compute readjusted totals for @p is_hot.  Set @p readjust to false to
 * get the raw maximum-reuse totals (what the cutoff search uses).
 */
AssignmentTotals assignmentTotals(const PartitionContext& ctx,
                                  const std::vector<uint8_t>& is_hot,
                                  bool readjust = true);

/**
 * The §IV-C readjustment core for one row panel and one worker type,
 * parameterized over tile and row-id access so the in-memory grid and
 * the out-of-core streamed pipeline (docs/OUTOFCORE.md) share the
 * arithmetic bit-for-bit.  Fills extra Dout bytes (read + write) into
 * @p extra, indexed panel-locally (extra[t - first]); 0 for tiles the
 * type does not own.  @p tile_at(t) must return the Tile for global
 * tile index t; @p rows_of(t) its row ids in tiled order (only invoked
 * for untiled-traversal workers).  @p rid_stamp must have at least
 * tile_height entries; @p generation must never repeat a value already
 * present in @p rid_stamp.
 */
template <typename TileAtFn, typename RowsOfFn>
void
panelReadjustExtras(const WorkerTraits& w, const KernelConfig& kernel,
                    const uint8_t* is_hot, bool for_hot, size_t first,
                    size_t last, TileAtFn&& tile_at, RowsOfFn&& rows_of,
                    std::vector<uint32_t>& rid_stamp, uint32_t& generation,
                    double* extra)
{
    std::fill(extra, extra + (last - first), 0.0);
    if (w.dout_reuse != ReuseType::InterTile)
        return;

    const double row_bytes = denseRowBytes(w, kernel);
    if (w.traversal == TraversalOrder::TiledRowMajor) {
        // The first owned tile streams the whole panel's Dout rows in
        // and the last one writes them back; charge both to the first
        // tile (it bounds the predicted time identically).
        for (size_t t = first; t < last; ++t) {
            if ((is_hot[t] != 0) == for_hot) {
                extra[t - first] = 2.0 * row_bytes * tile_at(t).height;
                break;
            }
        }
    } else {
        // Untiled: each r_id's first appearance among owned tiles costs
        // one demand read + one write of the row.
        ++generation;
        for (size_t t = first; t < last; ++t) {
            if ((is_hot[t] != 0) != for_hot)
                continue;
            double new_rids = 0;
            const Index row0 = tile_at(t).row0;
            for (Index rid : rows_of(t)) {
                Index local = rid - row0;
                if (rid_stamp[local] != generation) {
                    rid_stamp[local] = generation;
                    new_rids += 1.0;
                }
            }
            extra[t - first] = 2.0 * row_bytes * new_rids;
        }
    }
}

/**
 * Reduce an assignment plus already-materialized per-tile readjustment
 * extras to totals.  Pass empty extras vectors for the raw
 * maximum-reuse totals.  Works on grid-free contexts
 * (makePartitionContextFromDirectory); with extras produced by
 * panelReadjustExtras the result is bit-identical to
 * assignmentTotals(ctx, is_hot, true) on the equivalent grid context.
 */
AssignmentTotals
assignmentTotalsWithExtras(const PartitionContext& ctx,
                           const std::vector<uint8_t>& is_hot,
                           const std::vector<double>& extra_hot,
                           const std::vector<double>& extra_cold);

/**
 * Per-tile score of an assignment: each tile's final (§IV-C
 * readjusted) byte and unscaled time contribution under its assigned
 * type.  The readjusted totals are a pure chunk-ordered reduction over
 * these arrays, and every entry depends only on its own row panel's
 * tile data and membership pattern — which is what lets the
 * delta-update path (docs/INCREMENTAL.md) recompute only dirty panels
 * and splice the rest bit-identically.
 */
struct AssignmentScore
{
    std::vector<double> bytes;  //!< bytes moved (assigned type)
    std::vector<double> time;   //!< execution time, unscaled by count
};

/** Fill @p out with the full score of @p is_hot (every panel). */
void assignmentScore(const PartitionContext& ctx,
                     const std::vector<uint8_t>& is_hot,
                     AssignmentScore& out);

/**
 * Recompute only the listed panels of @p io in place; entries of every
 * other panel are left untouched.  @p io must already be sized to the
 * grid.  The listed panels' entries come out identical to a full
 * assignmentScore() pass (panels are independent).
 */
void assignmentScorePanels(const PartitionContext& ctx,
                           const std::vector<uint8_t>& is_hot,
                           const std::vector<Index>& panels,
                           AssignmentScore& io);

/**
 * Reduce a score to readjusted totals.  Deterministic: per-chunk
 * partials combine in chunk order, independent of the thread count, and
 * the result is bit-identical to assignmentTotals() on the same
 * assignment.
 */
AssignmentTotals reduceAssignmentScore(const PartitionContext& ctx,
                                       const std::vector<uint8_t>& is_hot,
                                       const AssignmentScore& s);

/** Parallel-operation predicted runtime: Eq 5 / Fig 8 rows 1 and 3. */
double predictedParallelCycles(const PartitionContext& ctx,
                               const AssignmentTotals& t);

/** Serial-operation predicted runtime: Eq 7 / Fig 8 rows 2 and 4. */
double predictedSerialCycles(const PartitionContext& ctx,
                             const AssignmentTotals& t);

/** Final predicted runtime for an assignment and operation mode. */
double predictedRuntimeCycles(const PartitionContext& ctx,
                              const std::vector<uint8_t>& is_hot,
                              bool serial);

/**
 * Predicted runtime of a homogeneous execution (every tile on one
 * type): max(time_total, bytes/BW), with readjustment; no merge cost.
 */
double predictedHomogeneousCycles(const PartitionContext& ctx, bool hot);

} // namespace hottiles
