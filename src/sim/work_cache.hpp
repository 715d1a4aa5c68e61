#pragma once

/**
 * @file
 * The memo of simulation setup.  Setting a simulation up costs more
 * than running it: per worker class, simulateExecution needs the
 * class's work list (format generation, Fig 7 third stage), its split
 * into per-PE shares, and each PE's segment list — for the demand
 * class with the Din L1 replay, the most expensive step of all.  The
 * three are pure functions of (grid, architecture, kernel, tile-id
 * list), so one entry per worker class and tile-id list holds them
 * together, and a simulation served from an entry is bit-identical to
 * one that builds its own.
 *
 * simulateExecution takes each class from a memo: the caller's
 * SimConfig::work_cache, or a private one.  Only identical tile sets
 * share an entry.  evaluateMatrix gives its four concurrent strategies
 * one memo, so a homogeneous HotTiles plan and the matching HotOnly or
 * ColdOnly run build that class once, and every strategy with an empty
 * class shares the empty entry.
 */

#include <condition_variable>
#include <map>
#include <mutex>
#include <vector>

#include "arch/arch_config.hpp"
#include "sim/demand_pe.hpp"
#include "sim/stream_pe.hpp"

namespace hottiles {

/** One worker class's setup: its work list, the items (slices or
 *  panels) each worker gets, and one PE build per non-empty share, in
 *  worker order.  An empty work list has no shares. */
template <typename Work, typename PeBuild>
struct ClassBuild
{
    Work work;
    std::vector<std::vector<size_t>> shares;
    std::vector<PeBuild> builds;  //!< non-empty shares only
};

/** The cold class: untiled panels, shared out as 64-row slices. */
using ColdClassBuild = ClassBuild<UntiledWork, DemandBuild>;
/** The hot class: tiled row panels, shared out whole. */
using HotClassBuild = ClassBuild<TiledWork, StreamBuild>;

/**
 * Concurrency-safe memo of class builds keyed by the tile-id list.  The
 * first requester of an entry builds it outside the lock and the rest
 * wait for the published result, so concurrent requests for other
 * entries never serialize behind a build.  An instance serves exactly
 * one grid (asserted), one architecture and one kernel.  References
 * stay valid for the memo's lifetime (node-based maps, entries never
 * erased).
 */
class WorkListCache
{
  public:
    const ColdClassBuild& cold(const Architecture& arch, const TileGrid& grid,
                               const KernelConfig& kernel,
                               const std::vector<size_t>& tile_ids);
    const HotClassBuild& hot(const Architecture& arch, const TileGrid& grid,
                             const KernelConfig& kernel,
                             const std::vector<size_t>& tile_ids);

    /** Requests served from a published (or in-flight) build. */
    size_t hits() const;

  private:
    template <typename Build>
    struct Slot
    {
        bool ready = false;
        Build build;
    };
    template <typename Build, typename Make>
    const Build& getOrBuild(std::map<std::vector<size_t>, Slot<Build>>& map,
                            const TileGrid& grid,
                            const std::vector<size_t>& tile_ids, Make&& make);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    const TileGrid* grid_ = nullptr;
    size_t hits_ = 0;
    std::map<std::vector<size_t>, Slot<ColdClassBuild>> cold_;
    std::map<std::vector<size_t>, Slot<HotClassBuild>> hot_;
};

} // namespace hottiles
