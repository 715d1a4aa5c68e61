#pragma once

/**
 * @file
 * Simulation work lists: the per-worker-type views of the sparse matrix
 * that the format-generation step produces (Fig 7, third stage).
 * Untiled workers (SPADE PEs, PIUMA MTPs) consume row-major panels of
 * their assigned tiles merged together (Fig 6(a)); tiled workers
 * (Sextans, PIUMA STPs) consume tile id lists grouped by row panel
 * (Fig 6(b)).
 */

#include <cstdint>
#include <vector>

#include "sparse/tiling.hpp"

namespace hottiles {

/**
 * One row panel's share of an untiled worker's matrix subset, as a
 * panel-local CSR: local row r (matrix row panel * tile_height + r)
 * owns nonzeros [row_ptr[r], row_ptr[r + 1]) of cols/vals, in ascending
 * column order.  row_ptr has one entry per panel row plus one
 * (tile_height + 1, fewer only in a last, shorter panel).
 */
struct PanelWork
{
    Index panel = 0;
    std::vector<size_t> row_ptr;
    std::vector<Index> cols;
    std::vector<Value> vals;
};

/** Untiled (row-major) traversal work: a sequence of panels. */
struct UntiledWork
{
    std::vector<PanelWork> panels;
    size_t total_nnz = 0;
};

/** Tiled traversal work: per panel, tile ids in tile-column order. */
struct TiledWork
{
    std::vector<std::vector<size_t>> panel_tiles;  //!< non-empty panels only
    std::vector<Index> panel_ids;
    size_t total_nnz = 0;
};

/**
 * Merge the given tiles into untiled row-major panels.  Tiles from the
 * same panel are merged into one panel-local CSR (rows in order, each
 * row's columns ascending); panels appear in increasing order.
 */
UntiledWork buildUntiledWork(const TileGrid& grid,
                             const std::vector<size_t>& tile_ids);

/** Group the given tiles by row panel keeping tile-column order. */
TiledWork buildTiledWork(const TileGrid& grid,
                         const std::vector<size_t>& tile_ids);

/**
 * Greedy longest-processing-time shares: items (panels, slices, tiles)
 * are taken in descending @p loads order (stable on ties) and each goes
 * to the least-loaded of @p count workers (lowest index on ties, via a
 * lexicographic min-heap, so large PE counts stay O(n log n) instead of
 * O(n * count)).  Each returned share lists item positions ascending.
 */
std::vector<std::vector<size_t>> balancedShares(
    const std::vector<uint64_t>& loads, uint32_t count);

} // namespace hottiles
