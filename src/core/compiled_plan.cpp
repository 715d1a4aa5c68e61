#include "core/compiled_plan.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/hottiles.hpp"
#include "core/preprocess.hpp"
#include "sparse/delta.hpp"

namespace hottiles {

CompiledPlan::CompiledPlan(const TileGrid& grid, const Partition& p,
                           double* cold_build_s)
    : is_hot_(p.is_hot)
{
    HT_FATAL_IF(grid.identity().expired(), "compiled plan: the grid was "
                "moved from, so there is nothing to compile a plan for");
    HT_FATAL_IF(is_hot_.size() != grid.numTiles(),
                "compiled plan: partition covers ", is_hot_.size(),
                " tiles but the grid has ", grid.numTiles());
    const double t0 = monotonicSeconds();
    cold_ = buildUntiledWork(grid, p.coldTiles());
    if (cold_build_s)
        *cold_build_s = monotonicSeconds() - t0;
    hot_ = buildTiledWork(grid, p.hotTiles());
    derive(grid);
}

void CompiledPlan::derive(const TileGrid& grid)
{
    grid_ = grid.identity();
    auto& [hot_tasks, cold_tasks] = tasks_;
    hot_tasks.clear();
    cold_tasks.clear();
    idle_panels_.clear();
    hot_tiles_ = 0;
    joins_ = 0;

    hot_tasks.reserve(hot_.panel_tiles.size());
    cold_tasks.reserve(cold_.panels.size());
    size_t nnz = 0;
    for (size_t i = 0; i < hot_.panel_tiles.size(); ++i) {
        PanelTask ht;
        ht.panel = hot_.panel_ids[i];
        ht.tiles = hot_.panel_tiles[i].size();
        ht.unit0 = hot_tiles_;
        for (size_t tid : hot_.panel_tiles[i])
            ht.nnz += grid.tile(tid).nnz;
        hot_tiles_ += ht.tiles;
        nnz += ht.nnz;
        hot_tasks.push_back(ht);
    }
    for (const PanelWork& pw : cold_.panels) {
        PanelTask ct;
        ct.panel = pw.panel;
        ct.nnz = pw.cols.size();
        const auto [tb, te] = grid.panelTiles(pw.panel);
        for (size_t t = tb; t < te; ++t)
            ct.tiles += !is_hot_[t];
        nnz += ct.nnz;
        cold_tasks.push_back(ct);
    }
    HT_ASSERT(nnz == grid.matrixNnz(),
              "the plan's formats do not hold the grid's nonzeros");

    // Both task lists ascend by panel: a panel in both is a join, and a
    // panel in neither is idle.
    size_t h = 0, c = 0;
    for (Index panel = 0; panel < grid.numPanels(); ++panel) {
        const bool in_hot = h < hot_tasks.size() && hot_tasks[h].panel == panel;
        const bool in_cold =
            c < cold_tasks.size() && cold_tasks[c].panel == panel;
        if (in_hot && in_cold)
            hot_tasks[h].join = cold_tasks[c].join = joins_++;
        else if (!in_hot && !in_cold)
            idle_panels_.push_back(panel);
        h += in_hot;
        c += in_cold;
    }
}

void CompiledPlan::applyDelta(const TileGrid& grid, const Partition& p,
                              const TileGridDelta& gd,
                              const std::vector<uint8_t>& panel_class_same,
                              DeltaUpdateStats& st)
{
    is_hot_ = p.is_hot;
    hot_ = buildTiledWork(grid, p.hotTiles());

    const std::vector<size_t> cold_ids = p.coldTiles();
    struct Group
    {
        Index panel;
        size_t first, last;
        bool reuse;
    };
    std::vector<Group> groups;
    size_t i = 0;
    while (i < cold_ids.size()) {
        const Index panel = grid.tile(cold_ids[i]).panel;
        size_t j = i;
        while (j < cold_ids.size() && grid.tile(cold_ids[j]).panel == panel)
            ++j;
        groups.push_back({panel, i, j,
                          !gd.panelDirty(panel) &&
                              panel_class_same[panel] != 0});
        i = j;
    }
    std::vector<size_t> rebuild_ids;
    for (const Group& g : groups)
        if (!g.reuse)
            rebuild_ids.insert(rebuild_ids.end(), cold_ids.begin() + g.first,
                               cold_ids.begin() + g.last);
    UntiledWork fresh = buildUntiledWork(grid, rebuild_ids);

    std::vector<int64_t> old_of_panel(grid.numPanels(), -1);
    for (size_t k = 0; k < cold_.panels.size(); ++k)
        old_of_panel[cold_.panels[k].panel] = int64_t(k);

    UntiledWork nf;
    nf.panels.reserve(groups.size());
    size_t fi = 0;
    for (const Group& g : groups) {
        if (g.reuse) {
            HT_ASSERT(old_of_panel[g.panel] >= 0,
                      "reusable panel missing from the old cold format");
            nf.panels.push_back(
                std::move(cold_.panels[size_t(old_of_panel[g.panel])]));
            ++st.panels_reused;
        } else {
            nf.panels.push_back(std::move(fresh.panels[fi++]));
            ++st.panels_rebuilt;
        }
    }
    HT_ASSERT(fi == fresh.panels.size(), "cold-format splice mismatch");
    for (const PanelWork& pw : nf.panels)
        nf.total_nnz += pw.cols.size();
    cold_ = std::move(nf);
    derive(grid);
}

void CompiledPlan::patchValues(const TileGrid& grid, const ValueUpdateBatch& u,
                               std::span<const size_t> tiles)
{
    for (size_t i = 0; i < u.size(); ++i) {
        if (is_hot_[tiles[i]])
            continue;
        const Index panel = grid.tile(tiles[i]).panel;
        auto& panels = cold_.panels;
        auto pit = std::lower_bound(
            panels.begin(), panels.end(), panel,
            [](const PanelWork& w, Index q) { return w.panel < q; });
        HT_ASSERT(pit != panels.end() && pit->panel == panel,
                  "cold tile's panel missing from the cold format");
        // A panel row's columns ascend (buildUntiledWork).
        const size_t r = u.rows[i] - panel * grid.tileHeight();
        const auto cb = pit->cols.begin() + pit->row_ptr[r];
        const auto ce = pit->cols.begin() + pit->row_ptr[r + 1];
        const auto it = std::lower_bound(cb, ce, u.cols[i]);
        HT_ASSERT(it != ce && *it == u.cols[i],
                  "cold nonzero missing from its PanelWork");
        pit->vals[size_t(it - pit->cols.begin())] = u.vals[i];
    }
    // Values move no task, so only the identity changes.
    grid_ = grid.identity();
}

bool CompiledPlan::compiledFor(const TileGrid& grid) const
{
    const std::weak_ptr<const void> id = grid.identity();
    return !id.expired() && !grid_.owner_before(id) && !id.owner_before(grid_);
}

size_t CompiledPlan::bytes() const
{
    size_t b = is_hot_.capacity() + idle_panels_.capacity() * sizeof(Index);
    for (const auto& tasks : tasks_)
        b += tasks.capacity() * sizeof(PanelTask);
    b += hot_.panel_ids.capacity() * sizeof(Index) +
         hot_.panel_tiles.capacity() * sizeof(hot_.panel_tiles[0]);
    for (const auto& tiles : hot_.panel_tiles)
        b += tiles.capacity() * sizeof(size_t);
    b += cold_.panels.capacity() * sizeof(PanelWork);
    for (const PanelWork& pw : cold_.panels)
        b += pw.row_ptr.capacity() * sizeof(size_t) +
             pw.cols.capacity() * sizeof(Index) +
             pw.vals.capacity() * sizeof(Value);
    return b;
}

} // namespace hottiles
