#pragma once

/**
 * @file
 * The compiled plan (docs/EXECUTION.md): the per-worker-type formats of
 * Fig 7's last preprocessing stage, in the shape native execution runs.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "partition/partition.hpp"
#include "sim/worklist.hpp"
#include "sparse/tiling.hpp"

namespace hottiles {

class HotTiles;
struct DeltaUpdateStats;
struct ValueUpdateBatch;

/** Join index of a panel that one class owns alone. */
inline constexpr uint32_t kNoJoin = UINT32_MAX;

/** One task of a compiled plan: one row panel's share of one class, at
 *  the task's own index in its class's format — the hot tiles
 *  (TiledWork::panel_tiles) or the merged cold nonzeros as a local CSR
 *  (UntiledWork::panels). */
struct PanelTask
{
    Index panel = 0;
    size_t nnz = 0;
    size_t tiles = 0;  //!< hot tiles, or cold tiles merged
    size_t unit0 = 0;  //!< hot: first slot in the per-tile time vector
    uint32_t join = kNoJoin;  //!< the panel's join when both classes own it

    bool operator==(const PanelTask&) const = default;
};

/**
 * Everything a run derives from (grid, partition) before it reads Din:
 * both worker formats (the hot TiledWork and the cold UntiledWork), the
 * is_hot they were built for, one task per row panel and class with the
 * joins of panels both classes own, and the panels no task writes.  It
 * runs only on the grid identity (TileGrid::identity) it was built or
 * last patched for.  HotTiles' format stage is one, which its applyDelta
 * and patchValues patch; no one else can, so a plan shared as const
 * (exec::compile) serves any number of runs, concurrent ones included.
 */
class CompiledPlan
{
  public:
    /** Build both worker formats of @p p over @p grid, the cold one
     *  first (its seconds go to @p cold_build_s when given: Fig 18's
     *  base format), then derive the tasks.  A moved-from grid or a
     *  partition of another tile count raises a FatalError first. */
    CompiledPlan(const TileGrid& grid, const Partition& p,
                 double* cold_build_s = nullptr);

    CompiledPlan(const CompiledPlan&) = delete;
    CompiledPlan& operator=(const CompiledPlan&) = delete;

    /** True when @p grid has the identity this plan was compiled for:
     *  that grid or a copy of it, unchanged since. */
    bool compiledFor(const TileGrid& grid) const;

    const std::vector<uint8_t>& isHot() const { return is_hot_; }
    const TiledWork& hot() const { return hot_; }
    const UntiledWork& cold() const { return cold_; }
    /** Class @p cls's tasks (0 hot, 1 cold), ascending by panel. */
    const std::vector<PanelTask>& tasks(int cls) const { return tasks_[cls]; }
    size_t hotTiles() const { return hot_tiles_; }
    uint32_t joins() const { return joins_; }  //!< panels both classes own
    /** Row panels no task writes; a run zeroes them. */
    const std::vector<Index>& idlePanels() const { return idle_panels_; }

    /** Heap bytes the plan holds, formats included. */
    size_t bytes() const;

  private:
    friend class HotTiles;

    /**
     * Stage 4′ of HotTiles::applyDelta, once @p gd patched @p grid and
     * @p p is its new partition.  The hot format, an O(hot tiles)
     * grouping, is rebuilt outright.  The cold one moves over the
     * PanelWork of each panel whose data and cold membership both
     * stayed put (@p panel_class_same) — a per-panel WorkListCache
     * across a grid mutation — and rebuilds the rest in one
     * buildUntiledWork call; @p st counts both.
     */
    void applyDelta(const TileGrid& grid, const Partition& p,
                    const TileGridDelta& gd,
                    const std::vector<uint8_t>& panel_class_same,
                    DeltaUpdateStats& st);

    /** HotTiles::patchValues once @p grid holds @p u's values: write
     *  each cold entry (its tile in @p tiles) into the cold format's
     *  copy.  Hot tasks read the grid's arrays and need nothing. */
    void patchValues(const TileGrid& grid, const ValueUpdateBatch& u,
                     std::span<const size_t> tiles);

    /** Re-derive the tasks, joins and idle panels from the formats and
     *  take @p grid's current identity. */
    void derive(const TileGrid& grid);

    std::weak_ptr<const void> grid_;
    std::vector<uint8_t> is_hot_;
    TiledWork hot_;
    UntiledWork cold_;
    std::vector<PanelTask> tasks_[2];
    size_t hot_tiles_ = 0;
    uint32_t joins_ = 0;
    std::vector<Index> idle_panels_;
};

} // namespace hottiles
