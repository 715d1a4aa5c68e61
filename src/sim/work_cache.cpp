#include "sim/work_cache.hpp"

#include "common/error.hpp"

namespace hottiles {

namespace {

ColdClassBuild
buildColdClass(const Architecture& arch, const TileGrid& grid,
               const KernelConfig& kernel,
               const std::vector<size_t>& tile_ids)
{
    ColdClassBuild cb;
    cb.work = buildUntiledWork(grid, tile_ids);
    if (cb.work.panels.empty())
        return cb;
    // Distribute row-aligned chunks (§VII-A: 64 contiguous rows per
    // SPADE chunk) so hub rows do not serialize one PE.
    const std::vector<PanelSlice> slices =
        sliceUntiledWork(cb.work, arch.cold_pe.chunk_rows);
    std::vector<uint64_t> slice_nnz(slices.size());
    for (size_t s = 0; s < slices.size(); ++s)
        slice_nnz[s] = slices[s].nnz;
    cb.shares = balancedShares(slice_nnz, arch.cold.count);
    for (const std::vector<size_t>& share : cb.shares) {
        if (share.empty())
            continue;
        std::vector<PanelSlice> mine;
        mine.reserve(share.size());
        for (size_t s : share)
            mine.push_back(slices[s]);
        cb.builds.push_back(buildDemandSegments(cb.work, mine, arch.cold,
                                                kernel, arch.cold_pe,
                                                arch.line_bytes));
    }
    return cb;
}

HotClassBuild
buildHotClass(const Architecture& arch, const TileGrid& grid,
              const KernelConfig& kernel, const std::vector<size_t>& tile_ids)
{
    HotClassBuild hb;
    hb.work = buildTiledWork(grid, tile_ids);
    if (hb.work.panel_tiles.empty())
        return hb;
    std::vector<uint64_t> panel_nnz(hb.work.panel_tiles.size());
    for (size_t p = 0; p < hb.work.panel_tiles.size(); ++p)
        for (size_t tid : hb.work.panel_tiles[p])
            panel_nnz[p] += grid.tile(tid).nnz;
    hb.shares = balancedShares(panel_nnz, arch.hot.count);
    for (const std::vector<size_t>& share : hb.shares)
        if (!share.empty())
            hb.builds.push_back(buildStreamSegments(hb.work, share, grid,
                                                    arch.hot, kernel,
                                                    arch.hot_pe,
                                                    arch.line_bytes));
    return hb;
}

} // namespace

template <typename Build, typename Make>
const Build&
WorkListCache::getOrBuild(std::map<std::vector<size_t>, Slot<Build>>& map,
                          const TileGrid& grid,
                          const std::vector<size_t>& tile_ids, Make&& make)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (!grid_)
        grid_ = &grid;
    HT_ASSERT(grid_ == &grid, "a WorkListCache serves exactly one grid");
    auto [it, inserted] = map.try_emplace(tile_ids);
    if (!inserted) {
        ++hits_;
        cv_.wait(lock, [&] { return it->second.ready; });
        return it->second.build;
    }
    // Build outside the lock: concurrent requests for *other* entries
    // must not serialize behind this one.  (The nested parallelFor runs
    // inline when called from a pool worker, so waiting on the
    // condition variable above cannot deadlock the pool.)
    lock.unlock();
    Build b = make();
    lock.lock();
    it->second.build = std::move(b);
    it->second.ready = true;
    cv_.notify_all();
    return it->second.build;
}

const ColdClassBuild&
WorkListCache::cold(const Architecture& arch, const TileGrid& grid,
                    const KernelConfig& kernel,
                    const std::vector<size_t>& tile_ids)
{
    return getOrBuild(cold_, grid, tile_ids, [&] {
        return buildColdClass(arch, grid, kernel, tile_ids);
    });
}

const HotClassBuild&
WorkListCache::hot(const Architecture& arch, const TileGrid& grid,
                   const KernelConfig& kernel,
                   const std::vector<size_t>& tile_ids)
{
    return getOrBuild(hot_, grid, tile_ids, [&] {
        return buildHotClass(arch, grid, kernel, tile_ids);
    });
}

size_t
WorkListCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

} // namespace hottiles
