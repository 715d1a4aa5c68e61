#include "core/hottiles.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rss.hpp"
#include "common/thread_pool.hpp"
#include "partition/predicted_runtime.hpp"
#include "sim/merger.hpp"
#include "sparse/delta.hpp"
#include "sparse/htb.hpp"

namespace hottiles {

HotTiles::HotTiles(const Architecture& arch, const CooMatrix& a,
                   const HotTilesOptions& opts)
    : arch_(arch), opts_(opts)
{
    buildPipeline([&] {
        return std::make_unique<TileGrid>(a, arch_.tile_height,
                                          arch_.tile_width);
    });
}

HotTiles::HotTiles(const Architecture& arch, const MappedMatrix& m,
                   const HotTilesOptions& opts)
    : arch_(arch), opts_(opts)
{
    buildPipeline([&] {
        // Zero-copy: the spans alias the mapping for the whole tiling
        // pass; the grid owns only the tiled output arrays.
        return std::make_unique<TileGrid>(m.rows(), m.cols(), m.rowIds(),
                                          m.colIds(), m.vals(),
                                          arch_.tile_height,
                                          arch_.tile_width);
    });
}

void
HotTiles::buildPipeline(
    const std::function<std::unique_ptr<TileGrid>()>& make_grid)
{
    HT_ASSERT(arch_.hot.count > 0 && arch_.cold.count > 0,
              "HotTiles needs both worker types; use simulateHomogeneous "
              "for single-type architectures");

    auto progress = [&](const char* stage) {
        if (opts_.progress)
            opts_.progress(stage);
    };

    // Stage 1: matrix scan — tiling and per-tile statistics (Fig 7).
    progress("scan");
    double t0 = monotonicSeconds();
    grid_ = make_grid();
    double t1 = monotonicSeconds();
    timing_.scan_s = t1 - t0;
    recordPeakRss();

    // Stage 2: per-tile performance model for both worker types.
    // SDDMM outputs are disjoint per nonzero, so no Merger is needed.
    progress("model");
    bool no_merge =
        arch_.atomic_rmw || opts_.kernel.kind == SparseKernel::Sddmm;
    double t_merge = no_merge
                         ? 0.0
                         : mergeCycles(grid_->matrixRows(), opts_.kernel.k,
                                       arch_.cold.value_bytes,
                                       arch_.bwBytesPerCycle(),
                                       arch_.line_bytes);
    double hot_bw = arch_.pcie_gbps > 0
                        ? arch_.pcie_gbps / arch_.freq_ghz
                        : arch_.bwBytesPerCycle();
    // `no_merge` doubles as the context's race-free flag: with no merge
    // cost, serial operation never pays off under the model (§V-B), so
    // only the Parallel heuristics are considered.
    ctx_ = makePartitionContext(*grid_, arch_.hot, arch_.cold, opts_.kernel,
                                arch_.bwBytesPerCycle(), t_merge, no_merge,
                                hot_bw);
    double t2 = monotonicSeconds();
    timing_.model_s = t2 - t1;
    recordPeakRss();

    // Stage 3: heuristic partitioning.
    progress("partition");
    partition_ = hotTilesPartition(ctx_);
    double t3 = monotonicSeconds();
    timing_.partition_s = t3 - t2;
    recordPeakRss();

    // Stage 4: sparse format creation, compiled into the plan native
    // execution runs.  The cold (base) format is what a homogeneous
    // accelerator would need anyway; the hot format and the task
    // derivation are the additional HotTiles cost (§VIII-C).
    if (opts_.build_formats) {
        progress("format");
        plan_ = std::make_unique<CompiledPlan>(*grid_, partition_,
                                               &timing_.format_base_s);
        timing_.format_extra_s =
            monotonicSeconds() - t3 - timing_.format_base_s;
        recordPeakRss();
    }

    // Mirror the Fig 18 stage breakdown into the metrics registry so
    // `--metrics` reports phase timings without a bench harness.
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.timer("preprocess.scan").observe(timing_.scan_s);
    reg.timer("preprocess.model").observe(timing_.model_s);
    reg.timer("preprocess.partition").observe(timing_.partition_s);
    if (opts_.build_formats) {
        reg.timer("preprocess.format_base").observe(timing_.format_base_s);
        reg.timer("preprocess.format_extra").observe(timing_.format_extra_s);
    }
}

DeltaUpdateStats
HotTiles::applyDelta(const DeltaBatch& d)
{
    const double t0 = monotonicSeconds();
    if (opts_.progress)
        opts_.progress("update");

    DeltaUpdateStats st;
    st.inserts = d.inserts();
    st.deletes = d.deletes();

    // Stage 1': re-tile the dirty row panels only.  Throws before any
    // mutation on a contract breach, so `*this` stays valid.
    TileGridDelta gd = [&] {
        ScopedTimer t("preprocess.update_tiling");
        return grid_->applyDelta(d);
    }();
    st.dirty_panels = gd.dirty_panels.size();
    if (gd.empty()) {
        st.update_s = monotonicSeconds() - t0;
        timing_.update_s += st.update_s;
        return st;
    }

    // Stage 2': splice the per-tile estimates.  The model is a pure
    // function of tile statistics — never storage offsets — so clean
    // panels' entries are copied over bit-identically and only dirty
    // panels' tiles are re-evaluated.
    ScopedTimer model_timer("preprocess.update_model");
    const size_t np = grid_->numPanels();
    std::vector<TileEstimate> old_est = std::move(ctx_.estimates);
    std::vector<TileEstimate> est = std::move(est_scratch_);
    est.resize(grid_->numTiles());
    std::vector<size_t> dirty_count(np, 0);
    parallelFor(0, np, kGrainPanels, [&](size_t pb, size_t pe) {
        for (size_t p = pb; p < pe; ++p) {
            auto [nb, ne] = grid_->panelTiles(Index(p));
            if (!gd.panelDirty(Index(p))) {
                const size_t ob = gd.old_panel_begin[p];
                HT_ASSERT(gd.old_panel_begin[p + 1] - ob == ne - nb,
                          "clean panel changed tile count");
                std::copy_n(old_est.data() + ob, ne - nb, est.data() + nb);
            } else {
                for (size_t i = nb; i < ne; ++i)
                    est[i] = estimateTile(grid_->tile(i), *ctx_.hot,
                                          *ctx_.cold, ctx_.kernel);
                dirty_count[p] = ne - nb;
            }
        }
    });
    ctx_.estimates = std::move(est);
    est_scratch_ = std::move(old_est);
    for (size_t p = 0; p < np; ++p)
        st.dirty_tiles += dirty_count[p];
    model_timer.stop();

    // Stage 3': incremental re-partitioning.  The first update seeds
    // the per-heuristic sweep cache (full cost, same arithmetic as a
    // fresh hotTilesPartition); every later update merges the dirty
    // tiles into each cached sorted order, re-sweeps, and re-scores
    // only the panels whose data or membership pattern moved — the
    // dominant preprocessing stage drops from O(nnz) per heuristic to
    // O(dirty + tiles).
    Partition old_part = std::move(partition_);
    if (!sweep_cache_.seeded())
        partition_ = hotTilesPartition(ctx_, &sweep_cache_);
    else
        partition_ = hotTilesPartitionDelta(ctx_, gd, sweep_cache_);

    // Migration accounting: on a clean panel, old tile j and new tile j
    // are the same tile, so a flipped class bit is a migrated tile.
    ScopedTimer migrate_timer("preprocess.update_migrate");
    std::vector<uint8_t> panel_class_same(np, 0);
    for (size_t p = 0; p < np; ++p) {
        if (gd.panelDirty(Index(p)))
            continue;
        auto [nb, ne] = grid_->panelTiles(Index(p));
        const size_t ob = gd.old_panel_begin[p];
        size_t flips = 0;
        for (size_t j = 0; j < ne - nb; ++j)
            flips += old_part.is_hot[ob + j] != partition_.is_hot[nb + j];
        st.migrated_tiles += flips;
        panel_class_same[p] = flips == 0;
    }
    st.partition_changed = st.migrated_tiles > 0 ||
                           partition_.heuristic != old_part.heuristic;
    migrate_timer.stop();

    // Stage 4': patch the plan (CompiledPlan::applyDelta): the hot
    // format is rebuilt, and the cold one reuses every panel whose data
    // and cold membership stayed put.
    if (plan_) {
        ScopedTimer fmt_timer("preprocess.update_formats");
        plan_->applyDelta(*grid_, partition_, gd, panel_class_same, st);
    }

    st.update_s = monotonicSeconds() - t0;
    timing_.update_s += st.update_s;

    MetricsRegistry& reg = MetricsRegistry::global();
    reg.timer("preprocess.update").observe(st.update_s);
    reg.counter("preprocess.update.inserts").add(st.inserts);
    reg.counter("preprocess.update.deletes").add(st.deletes);
    reg.counter("preprocess.update.dirty_tiles").add(st.dirty_tiles);
    reg.counter("preprocess.update.migrated_tiles").add(st.migrated_tiles);
    reg.counter("preprocess.update.panels_reused").add(st.panels_reused);
    reg.counter("preprocess.update.panels_rebuilt").add(st.panels_rebuilt);
    return st;
}

std::vector<Partition>
HotTiles::allHeuristics() const
{
    return allHeuristicPartitions(ctx_);
}

Partition
HotTiles::iunaware(uint64_t seed) const
{
    return iunawarePartition(ctx_, seed);
}

double
HotTiles::predictedHotOnlyCycles() const
{
    return predictedHomogeneousCycles(ctx_, /*hot=*/true);
}

double
HotTiles::predictedColdOnlyCycles() const
{
    return predictedHomogeneousCycles(ctx_, /*hot=*/false);
}

size_t
HotTiles::patchValues(const ValueUpdateBatch& u)
{
    // Phase 1: resolve every coordinate (grid position + owning tile)
    // up front so a bad entry throws before anything was written.
    std::vector<size_t> pos(u.size()), tile(u.size());
    for (size_t i = 0; i < u.size(); ++i) {
        pos[i] = grid_->findNonzero(u.rows[i], u.cols[i], &tile[i]);
        HT_FATAL_IF(pos[i] == SIZE_MAX, "value update at empty coordinate (",
                    u.rows[i], ",", u.cols[i],
                    "); structural changes are delta inserts");
    }

    // Phase 2: write the grid, which the hot format reads through tile
    // ids, then the plan's cold format, which copies its values.
    grid_->setTiledValues(pos, u.vals);
    if (plan_)
        plan_->patchValues(*grid_, u, tile);
    MetricsRegistry::global().counter("preprocess.value_patches")
        .add(u.size());
    return u.size();
}

const CompiledPlan&
HotTiles::plan() const
{
    HT_ASSERT(plan_, "formats were not built; set build_formats");
    return *plan_;
}

bool
samePreprocessedState(const HotTiles& a, const HotTiles& b)
{
    const TileGrid& ga = a.grid();
    const TileGrid& gb = b.grid();
    if (ga.numTiles() != gb.numTiles() || ga.matrixNnz() != gb.matrixNnz())
        return false;
    for (size_t i = 0; i < ga.numTiles(); ++i) {
        const Tile& ta = ga.tile(i);
        const Tile& tb = gb.tile(i);
        if (std::memcmp(&ta, &tb, sizeof(Tile)) != 0)
            return false;
        auto ra = ga.tileRows(i), rb = gb.tileRows(i);
        auto ca = ga.tileCols(i), cb = gb.tileCols(i);
        auto va = ga.tileVals(i), vb = gb.tileVals(i);
        if (std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(Index)) ||
            std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(Index)) ||
            std::memcmp(va.data(), vb.data(), va.size() * sizeof(Value)))
            return false;
    }
    const Partition& pa = a.partition();
    const Partition& pb = b.partition();
    if (pa.is_hot != pb.is_hot || pa.serial != pb.serial ||
        pa.heuristic != pb.heuristic ||
        std::memcmp(&pa.predicted_cycles, &pb.predicted_cycles,
                    sizeof(double)) != 0)
        return false;
    const CompiledPlan& qa = a.plan();
    const CompiledPlan& qb = b.plan();
    if (qa.isHot() != qb.isHot() || qa.tasks(0) != qb.tasks(0) ||
        qa.tasks(1) != qb.tasks(1) || qa.hotTiles() != qb.hotTiles() ||
        qa.joins() != qb.joins() || qa.idlePanels() != qb.idlePanels())
        return false;
    const UntiledWork& ca = qa.cold();
    const UntiledWork& cb = qb.cold();
    if (ca.total_nnz != cb.total_nnz || ca.panels.size() != cb.panels.size())
        return false;
    for (size_t i = 0; i < ca.panels.size(); ++i) {
        const PanelWork& wa = ca.panels[i];
        const PanelWork& wb = cb.panels[i];
        if (wa.panel != wb.panel || wa.row_ptr != wb.row_ptr ||
            wa.cols != wb.cols ||
            std::memcmp(wa.vals.data(), wb.vals.data(),
                        wa.vals.size() * sizeof(Value)) != 0)
            return false;
    }
    const TiledWork& ha = qa.hot();
    const TiledWork& hb = qb.hot();
    return ha.total_nnz == hb.total_nnz && ha.panel_ids == hb.panel_ids &&
           ha.panel_tiles == hb.panel_tiles;
}

} // namespace hottiles
