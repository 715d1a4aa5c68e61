#include "sim/worklist.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"

namespace hottiles {

UntiledWork
buildUntiledWork(const TileGrid& grid, const std::vector<size_t>& tile_ids)
{
    ScopedTimer timer("format.untiled_build");
    // Tiles arrive in grid order (panel, tcol); group consecutively.
    // The grouping scan is cheap and serial; building each panel's
    // gather + sort is independent and runs on the pool.
    std::vector<std::pair<size_t, size_t>> groups;  // [first, last) ids
    size_t i = 0;
    while (i < tile_ids.size()) {
        const Index panel = grid.tile(tile_ids[i]).panel;
        size_t j = i;
        while (j < tile_ids.size() && grid.tile(tile_ids[j]).panel == panel) {
            HT_ASSERT(j == i || tile_ids[j] > tile_ids[j - 1],
                      "tile ids must be in grid order");
            ++j;
        }
        groups.emplace_back(i, j);
        i = j;
    }

    UntiledWork work;
    work.panels.resize(groups.size());
    // Row-major order comes from a counting sort by row: tiles are
    // visited in ascending tile-column order and each tile is already
    // (row, col)-sorted, so scattering per row preserves ascending
    // columns — no comparison sort needed.  The counts' prefix sums are
    // the panel's CSR row pointers.
    const Index tile_h = grid.tileHeight();
    parallelFor(0, groups.size(), kGrainPanels, [&](size_t gb, size_t ge) {
        std::vector<size_t> cursor;
        for (size_t g = gb; g < ge; ++g) {
            auto [first, last] = groups[g];
            const Tile& head = grid.tile(tile_ids[first]);
            const Index row0 = head.row0;
            const Index height =
                std::min(tile_h, Index(grid.matrixRows() - row0));
            PanelWork& pw = work.panels[g];
            pw.panel = head.panel;
            pw.row_ptr.assign(size_t(height) + 1, 0);
            for (size_t t = first; t < last; ++t)
                for (Index r : grid.tileRows(tile_ids[t]))
                    ++pw.row_ptr[r - row0 + 1];
            for (Index r = 1; r <= height; ++r)
                pw.row_ptr[r] += pw.row_ptr[r - 1];
            pw.cols.resize(pw.row_ptr[height]);
            pw.vals.resize(pw.row_ptr[height]);
            cursor.assign(pw.row_ptr.begin(), pw.row_ptr.end() - 1);
            for (size_t t = first; t < last; ++t) {
                auto rs = grid.tileRows(tile_ids[t]);
                auto cs = grid.tileCols(tile_ids[t]);
                auto vs = grid.tileVals(tile_ids[t]);
                for (size_t i = 0; i < rs.size(); ++i) {
                    size_t pos = cursor[rs[i] - row0]++;
                    pw.cols[pos] = cs[i];
                    pw.vals[pos] = vs[i];
                }
            }
        }
    });
    for (const PanelWork& pw : work.panels)
        work.total_nnz += pw.cols.size();
    return work;
}

TiledWork
buildTiledWork(const TileGrid& grid, const std::vector<size_t>& tile_ids)
{
    ScopedTimer timer("format.tiled_build");
    TiledWork work;
    size_t i = 0;
    while (i < tile_ids.size()) {
        const Index panel = grid.tile(tile_ids[i]).panel;
        std::vector<size_t> tiles;
        while (i < tile_ids.size() && grid.tile(tile_ids[i]).panel == panel) {
            work.total_nnz += grid.tile(tile_ids[i]).nnz;
            tiles.push_back(tile_ids[i]);
            ++i;
        }
        work.panel_ids.push_back(panel);
        work.panel_tiles.push_back(std::move(tiles));
    }
    return work;
}

std::vector<std::vector<size_t>>
balancedShares(const std::vector<uint64_t>& loads, uint32_t count)
{
    HT_ASSERT(count > 0, "balancedShares needs at least one worker");
    const size_t n = loads.size();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t(0));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return loads[a] > loads[b];
    });
    // (load, worker) min-heap: the lexicographic minimum is the least
    // loaded worker with the lowest index, the same tie-break as a
    // linear argmin scan with strict less-than.
    using Entry = std::pair<uint64_t, uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    for (uint32_t w = 0; w < count; ++w)
        heap.emplace(0, w);
    std::vector<std::vector<size_t>> shares(count);
    for (size_t p : order) {
        auto [load, w] = heap.top();
        heap.pop();
        shares[w].push_back(p);
        heap.emplace(load + loads[p], w);
    }
    for (auto& s : shares)
        std::sort(s.begin(), s.end());
    return shares;
}

} // namespace hottiles
