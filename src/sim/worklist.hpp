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

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "sparse/tiling.hpp"

namespace hottiles {

class SegmentBuildCache;

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

/**
 * Concurrency-safe memoization of work-list builds keyed by the tile-id
 * list.  evaluateMatrix simulates four strategies in parallel and they
 * largely share work lists (HotOnly and a mostly-hot partition both
 * need the all-hot TiledWork), so the first requester builds and the
 * rest wait for the published result.  A cache instance serves exactly
 * one grid.  References stay valid for the cache's lifetime (node-based
 * map, values never erased).
 */
class WorkListCache
{
  public:
    WorkListCache();
    ~WorkListCache();

    const UntiledWork& untiled(const TileGrid& grid,
                               const std::vector<size_t>& tile_ids);
    const TiledWork& tiled(const TileGrid& grid,
                           const std::vector<size_t>& tile_ids);

    /**
     * The downstream cache for per-worker-class segment builds (see
     * sim/segment_cache.hpp).  Rides along with the work-list cache so
     * one SimConfig::work_cache pointer shares both layers; bound by
     * the same one-grid (and one-architecture, one-kernel) contract.
     */
    SegmentBuildCache& segments() { return *segments_; }

    /** Requests served from a published (or in-flight) build. */
    size_t hits() const;

  private:
    template <typename Work>
    struct Slot
    {
        bool ready = false;
        Work work;
    };
    template <typename Work, typename Build>
    const Work& getOrBuild(std::map<std::vector<size_t>, Slot<Work>>& map,
                           const TileGrid& grid,
                           const std::vector<size_t>& tile_ids,
                           Build&& build);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    const TileGrid* grid_ = nullptr;
    size_t hits_ = 0;
    std::map<std::vector<size_t>, Slot<UntiledWork>> untiled_;
    std::map<std::vector<size_t>, Slot<TiledWork>> tiled_;
    std::unique_ptr<SegmentBuildCache> segments_;  //!< see segments()
};

} // namespace hottiles
