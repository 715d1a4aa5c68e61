#include "sparse/tiling.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "sparse/delta.hpp"

namespace hottiles {

TileGrid::TileGrid(const CooMatrix& a, Index tile_height, Index tile_width)
    : rows_(a.rows()), cols_(a.cols()), tile_h_(tile_height),
      tile_w_(tile_width)
{
    HT_ASSERT(tile_height > 0 && tile_width > 0, "tile dims must be > 0");
    num_panels_ = static_cast<Index>(ceilDiv(rows_, tile_h_));
    num_tcols_ = static_cast<Index>(ceilDiv(cols_, tile_w_));

    // Row-major-sorted input keeps (row, col) order inside each tile after
    // a stable counting sort by tile key.
    const CooMatrix* src = &a;
    CooMatrix sorted;
    if (!a.isRowMajorSorted()) {
        sorted = a;
        sorted.sortRowMajor();
        src = &sorted;
    }
    build(src->rowIds(), src->colIds(), src->values());
}

TileGrid::TileGrid(Index rows, Index cols, std::span<const Index> row_ids,
                   std::span<const Index> col_ids,
                   std::span<const Value> vals, Index tile_height,
                   Index tile_width)
    : rows_(rows), cols_(cols), tile_h_(tile_height), tile_w_(tile_width)
{
    HT_ASSERT(tile_height > 0 && tile_width > 0, "tile dims must be > 0");
    HT_ASSERT(row_ids.size() == col_ids.size() &&
                  row_ids.size() == vals.size(),
              "parallel arrays must have equal length");
    num_panels_ = static_cast<Index>(ceilDiv(rows_, tile_h_));
    num_tcols_ = static_cast<Index>(ceilDiv(cols_, tile_w_));
    // Validate instead of sorting: the spans typically alias a read-only
    // mapped file, and a malformed file must be a clean FatalError.
    for (size_t i = 0; i < row_ids.size(); ++i) {
        HT_FATAL_IF(row_ids[i] >= rows_ || col_ids[i] >= cols_,
                    "mapped entry ", i, " (", row_ids[i], ",", col_ids[i],
                    ") outside the ", rows_, "x", cols_, " matrix");
        HT_FATAL_IF(i > 0 && (row_ids[i] < row_ids[i - 1] ||
                              (row_ids[i] == row_ids[i - 1] &&
                               col_ids[i] < col_ids[i - 1])),
                    "mapped entries not row-major sorted at ", i);
    }
    build(row_ids, col_ids, vals);
}

void
TileGrid::build(std::span<const Index> row_ids,
                std::span<const Index> col_ids, std::span<const Value> vals)
{
    const size_t n = row_ids.size();

    // Row-major-sorted input makes each row panel a contiguous nonzero
    // range, and panels also own disjoint (contiguous) ranges of the
    // tiled output.  The build therefore parallelizes over panels with
    // no shared state, and the result is the exact serial counting sort
    // no matter how panels are chunked.  Panel boundaries come from one
    // binary search per panel over the sorted row ids.
    std::vector<size_t> panel_start(size_t(num_panels_) + 1, n);
    for (Index p = 0; p < num_panels_; ++p) {
        Index first_row = static_cast<Index>(
            std::min<uint64_t>(uint64_t(p) * tile_h_, rows_));
        panel_start[p] =
            std::lower_bound(row_ids.begin(), row_ids.end(), first_row) -
            row_ids.begin();
    }

    // Pass 1: per-panel compact histograms — the occupied tile columns
    // in ascending order and their nonzero counts.  The flat per-chunk
    // scratch counter is reset by visiting only the occupied entries.
    struct PanelHist
    {
        std::vector<Index> tcols;
        std::vector<size_t> counts;
    };
    std::vector<PanelHist> hist(num_panels_);
    parallelFor(0, num_panels_, kGrainPanels, [&](size_t pb, size_t pe) {
        std::vector<size_t> cnt(num_tcols_, 0);
        for (size_t p = pb; p < pe; ++p) {
            PanelHist& h = hist[p];
            for (size_t i = panel_start[p]; i < panel_start[p + 1]; ++i) {
                Index tc = col_ids[i] / tile_w_;
                if (cnt[tc]++ == 0)
                    h.tcols.push_back(tc);
            }
            std::sort(h.tcols.begin(), h.tcols.end());
            h.counts.resize(h.tcols.size());
            for (size_t j = 0; j < h.tcols.size(); ++j) {
                h.counts[j] = cnt[h.tcols[j]];
                cnt[h.tcols[j]] = 0;
            }
        }
    });

    // Tile directory in (panel, tcol) order, plus each panel's first
    // tile (which doubles as the panel index built at the end).
    std::vector<size_t> panel_tile0(size_t(num_panels_) + 1);
    size_t ntiles = 0;
    for (const PanelHist& h : hist)
        ntiles += h.tcols.size();
    tiles_.reserve(ntiles);
    size_t offset = 0;
    for (Index p = 0; p < num_panels_; ++p) {
        panel_tile0[p] = tiles_.size();
        const PanelHist& h = hist[p];
        for (size_t j = 0; j < h.tcols.size(); ++j) {
            Tile t{};
            t.panel = p;
            t.tcol = h.tcols[j];
            t.row0 = p * tile_h_;
            t.col0 = t.tcol * tile_w_;
            t.height = std::min<Index>(tile_h_, rows_ - t.row0);
            t.width = std::min<Index>(tile_w_, cols_ - t.col0);
            t.offset = offset;
            t.nnz = h.counts[j];
            offset += t.nnz;
            tiles_.push_back(t);
        }
    }
    panel_tile0[num_panels_] = tiles_.size();

    // Pass 2: stable counting-sort scatter, again parallel over panels.
    // Each panel seeds its occupied cursor entries from the tile
    // offsets and walks its own nonzeros; destinations are unique, so
    // the scatter is race-free and bit-identical to the serial walk.
    tiled_rows_.resize(n);
    tiled_cols_.resize(n);
    tiled_vals_.resize(n);
    parallelFor(0, num_panels_, kGrainPanels, [&](size_t pb, size_t pe) {
        std::vector<size_t> cursor(num_tcols_);
        for (size_t p = pb; p < pe; ++p) {
            const PanelHist& h = hist[p];
            for (size_t j = 0; j < h.tcols.size(); ++j)
                cursor[h.tcols[j]] = tiles_[panel_tile0[p] + j].offset;
            for (size_t i = panel_start[p]; i < panel_start[p + 1]; ++i) {
                size_t pos = cursor[col_ids[i] / tile_w_]++;
                tiled_rows_[pos] = row_ids[i];
                tiled_cols_[pos] = col_ids[i];
                tiled_vals_[pos] = vals[i];
            }
        }
    });

    // Pass 3: per-tile unique row/column counts.  Rows are sorted within
    // a tile, so unique rows are row transitions; columns use a stamped
    // scratch array of tile_width entries (one per chunk — tiles are
    // disjoint, so the pass parallelizes over tiles).
    parallelFor(0, tiles_.size(), kGrainTiles, [&](size_t tb, size_t te) {
        std::vector<uint32_t> col_stamp(tile_w_, 0);
        uint32_t generation = 0;
        for (size_t ti = tb; ti < te; ++ti) {
            Tile& t = tiles_[ti];
            ++generation;
            Index uniq_r = 0;
            Index uniq_c = 0;
            Index prev_row = ~Index(0);
            for (size_t i = t.offset; i < t.offset + t.nnz; ++i) {
                if (tiled_rows_[i] != prev_row) {
                    ++uniq_r;
                    prev_row = tiled_rows_[i];
                }
                Index local_c = tiled_cols_[i] - t.col0;
                if (col_stamp[local_c] != generation) {
                    col_stamp[local_c] = generation;
                    ++uniq_c;
                }
            }
            t.uniq_rids = uniq_r;
            t.uniq_cids = uniq_c;
        }
    });

    // Panel index: first tile of each panel (empty panels collapse to
    // the next panel's start, keeping ranges well formed).
    panel_begin_ = std::move(panel_tile0);
}

size_t
TileGrid::emptyTiles() const
{
    return size_t(num_panels_) * num_tcols_ - tiles_.size();
}

std::span<const Index>
TileGrid::tileRows(size_t i) const
{
    const Tile& t = tiles_.at(i);
    return {tiled_rows_.data() + t.offset, t.nnz};
}

std::span<const Index>
TileGrid::tileCols(size_t i) const
{
    const Tile& t = tiles_.at(i);
    return {tiled_cols_.data() + t.offset, t.nnz};
}

std::span<const Value>
TileGrid::tileVals(size_t i) const
{
    const Tile& t = tiles_.at(i);
    return {tiled_vals_.data() + t.offset, t.nnz};
}

std::pair<size_t, size_t>
TileGrid::panelTiles(Index p) const
{
    HT_ASSERT(p < num_panels_, "panel out of range");
    return {panel_begin_[p], panel_begin_[p + 1]};
}

size_t
TileGrid::findNonzero(Index r, Index c, size_t* tile_out) const
{
    if (r >= rows_ || c >= cols_)
        return SIZE_MAX;
    const Index tc = c / tile_w_;
    auto [first, last] = panelTiles(r / tile_h_);
    // Tiles of a panel are sorted by tile column.
    size_t lo = first, hi = last;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (tiles_[mid].tcol < tc)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == last || tiles_[lo].tcol != tc)
        return SIZE_MAX;
    // Within a tile, nonzeros are sorted by (row, col).
    const Tile& t = tiles_[lo];
    size_t a = t.offset, b = t.offset + t.nnz;
    while (a < b) {
        size_t mid = a + (b - a) / 2;
        if (tiled_rows_[mid] < r ||
            (tiled_rows_[mid] == r && tiled_cols_[mid] < c))
            a = mid + 1;
        else
            b = mid;
    }
    if (a == t.offset + t.nnz || tiled_rows_[a] != r || tiled_cols_[a] != c)
        return SIZE_MAX;
    if (tile_out)
        *tile_out = lo;
    return a;
}

void
TileGrid::setTiledValues(std::span<const size_t> pos,
                         std::span<const Value> vals)
{
    HT_ASSERT(pos.size() == vals.size(), "one value per tiled position");
    if (pos.empty())
        return;
    token_ = std::make_shared<char>();
    for (size_t i = 0; i < pos.size(); ++i) {
        HT_ASSERT(pos[i] < tiled_vals_.size(), "tiled position out of range");
        tiled_vals_[pos[i]] = vals[i];
    }
}

double
TileGrid::tileNnzCv() const
{
    const double positions =
        static_cast<double>(num_panels_) * num_tcols_;
    if (positions == 0.0)
        return 0.0;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const auto& t : tiles_) {
        sum += static_cast<double>(t.nnz);
        sum_sq += static_cast<double>(t.nnz) * t.nnz;
    }
    double mean = sum / positions;
    if (mean == 0.0)
        return 0.0;
    double var = sum_sq / positions - mean * mean;
    return std::sqrt(std::max(var, 0.0)) / mean;
}

CooMatrix
TileGrid::tileCoo(size_t i) const
{
    const Tile& t = tiles_.at(i);
    CooMatrix m(rows_, cols_);
    m.reserve(t.nnz);
    for (size_t j = t.offset; j < t.offset + t.nnz; ++j)
        m.push(tiled_rows_[j], tiled_cols_[j], tiled_vals_[j]);
    return m;
}

TileGridDelta
TileGrid::applyDelta(const DeltaBatch& d)
{
    TileGridDelta out;
    out.old_panel_begin = panel_begin_;
    out.old_num_tiles = tiles_.size();
    out.panel_dirty.assign(num_panels_, 0);
    out.inserted = d.inserts();
    out.deleted = d.deletes();
    if (d.empty())
        return out;

    // Bucket the batch by row panel; everything before the splice is
    // validation or scratch work, so a FatalError leaves the grid
    // unmodified.
    struct Op
    {
        Index row, col;
        Value val;
        bool is_insert;
    };
    std::vector<std::vector<Op>> panel_ops(num_panels_);
    for (size_t i = 0; i < d.inserts(); ++i) {
        HT_FATAL_IF(d.ins_rows[i] >= rows_ || d.ins_cols[i] >= cols_,
                    "delta insert (", d.ins_rows[i], ",", d.ins_cols[i],
                    ") outside the ", rows_, "x", cols_, " matrix");
        panel_ops[d.ins_rows[i] / tile_h_].push_back(
            {d.ins_rows[i], d.ins_cols[i], d.ins_vals[i], true});
    }
    for (size_t i = 0; i < d.deletes(); ++i) {
        HT_FATAL_IF(d.del_rows[i] >= rows_ || d.del_cols[i] >= cols_,
                    "delta delete (", d.del_rows[i], ",", d.del_cols[i],
                    ") outside the ", rows_, "x", cols_, " matrix");
        panel_ops[d.del_rows[i] / tile_h_].push_back(
            {d.del_rows[i], d.del_cols[i], Value(0), false});
    }
    for (Index p = 0; p < num_panels_; ++p) {
        if (!panel_ops[p].empty()) {
            out.panel_dirty[p] = 1;
            out.dirty_panels.push_back(p);
        }
    }

    // Per-dirty-panel re-tile: merge the panel's old per-tile nonzero
    // runs with its ops, tile column by tile column, producing new tiled
    // arrays and tile stats with panel-local offsets.  Panels are
    // independent, so the rebuild parallelizes race-free.
    struct PanelRebuild
    {
        std::vector<Tile> tiles;  // offsets are panel-local
        std::vector<Index> rows, cols;
        std::vector<Value> vals;
    };
    std::vector<PanelRebuild> rebuilt(out.dirty_panels.size());
    std::vector<int64_t> rb_of_panel(num_panels_, -1);
    for (size_t i = 0; i < out.dirty_panels.size(); ++i)
        rb_of_panel[out.dirty_panels[i]] = int64_t(i);

    parallelFor(0, out.dirty_panels.size(), 1, [&](size_t rb0, size_t rb1) {
        std::vector<uint32_t> col_stamp(tile_w_, 0);
        uint32_t generation = 0;
        for (size_t ri = rb0; ri < rb1; ++ri) {
            const Index p = out.dirty_panels[ri];
            PanelRebuild& rb = rebuilt[ri];
            std::vector<Op>& ops = panel_ops[p];
            // (tcol, row, col) order groups ops by tile column while
            // keeping each group mergeable against the tile's sorted
            // (row, col) run; equal coordinates are a contract breach.
            std::sort(ops.begin(), ops.end(), [&](const Op& a, const Op& b) {
                Index ta = a.col / tile_w_, tb = b.col / tile_w_;
                if (ta != tb)
                    return ta < tb;
                if (a.row != b.row)
                    return a.row < b.row;
                return a.col < b.col;
            });
            for (size_t i = 1; i < ops.size(); ++i)
                HT_FATAL_IF(ops[i - 1].row == ops[i].row &&
                                ops[i - 1].col == ops[i].col,
                            "delta touches (", ops[i].row, ",", ops[i].col,
                            ") more than once");
            const size_t old_tb = panel_begin_[p];
            const size_t old_te = panel_begin_[size_t(p) + 1];
            size_t old_nnz = 0;
            for (size_t ti = old_tb; ti < old_te; ++ti)
                old_nnz += tiles_[ti].nnz;
            rb.rows.reserve(old_nnz + ops.size());
            rb.cols.reserve(old_nnz + ops.size());
            rb.vals.reserve(old_nnz + ops.size());

            // Walk the union of old tile columns and op tile columns in
            // ascending tcol order, merging each pair of sorted runs.
            size_t ti = old_tb;
            size_t oi = 0;
            while (ti < old_te || oi < ops.size()) {
                Index tc;
                if (ti < old_te && oi < ops.size())
                    tc = std::min(tiles_[ti].tcol, ops[oi].col / tile_w_);
                else if (ti < old_te)
                    tc = tiles_[ti].tcol;
                else
                    tc = ops[oi].col / tile_w_;

                const size_t tile_off = rb.rows.size();
                size_t ei = 0, en = 0;  // old entries of this tcol
                if (ti < old_te && tiles_[ti].tcol == tc) {
                    ei = tiles_[ti].offset;
                    en = ei + tiles_[ti].nnz;
                    ++ti;
                }
                auto opHere = [&] {
                    return oi < ops.size() && ops[oi].col / tile_w_ == tc;
                };
                auto opLess = [&](size_t e) {
                    return ops[oi].row < tiled_rows_[e] ||
                           (ops[oi].row == tiled_rows_[e] &&
                            ops[oi].col < tiled_cols_[e]);
                };
                auto opSame = [&](size_t e) {
                    return ops[oi].row == tiled_rows_[e] &&
                           ops[oi].col == tiled_cols_[e];
                };
                while (ei < en || opHere()) {
                    if (ei == en || (opHere() && opLess(ei))) {
                        // Op strictly before the next old entry: only an
                        // insert can land on an empty coordinate.
                        HT_FATAL_IF(!ops[oi].is_insert,
                                    "delta deletes missing nonzero (",
                                    ops[oi].row, ",", ops[oi].col, ")");
                        rb.rows.push_back(ops[oi].row);
                        rb.cols.push_back(ops[oi].col);
                        rb.vals.push_back(ops[oi].val);
                        ++oi;
                    } else if (opHere() && opSame(ei)) {
                        HT_FATAL_IF(ops[oi].is_insert,
                                    "delta inserts existing nonzero (",
                                    ops[oi].row, ",", ops[oi].col, ")");
                        ++oi;  // delete: drop the old entry
                        ++ei;
                    } else {
                        rb.rows.push_back(tiled_rows_[ei]);
                        rb.cols.push_back(tiled_cols_[ei]);
                        rb.vals.push_back(tiled_vals_[ei]);
                        ++ei;
                    }
                }
                const size_t tile_nnz = rb.rows.size() - tile_off;
                if (tile_nnz == 0)
                    continue;  // tile went empty: eliminated, like fresh
                Tile t{};
                t.panel = p;
                t.tcol = tc;
                t.row0 = p * tile_h_;
                t.col0 = tc * tile_w_;
                t.height = std::min<Index>(tile_h_, rows_ - t.row0);
                t.width = std::min<Index>(tile_w_, cols_ - t.col0);
                t.offset = tile_off;
                t.nnz = tile_nnz;
                // Unique row/col stats exactly as constructor Pass 3.
                ++generation;
                Index uniq_r = 0, uniq_c = 0;
                Index prev_row = ~Index(0);
                for (size_t i = tile_off; i < tile_off + tile_nnz; ++i) {
                    if (rb.rows[i] != prev_row) {
                        ++uniq_r;
                        prev_row = rb.rows[i];
                    }
                    Index local_c = rb.cols[i] - t.col0;
                    if (col_stamp[local_c] != generation) {
                        col_stamp[local_c] = generation;
                        ++uniq_c;
                    }
                }
                t.uniq_rids = uniq_r;
                t.uniq_cids = uniq_c;
                rb.tiles.push_back(t);
            }
        }
    });

    // Old per-panel data offsets, needed by the in-place move below;
    // tiles are stored with contiguous running offsets, so this is a
    // running sum of panel nnz.
    std::vector<size_t> old_data_off(size_t(num_panels_) + 1);
    {
        size_t run = 0;
        for (Index p = 0; p < num_panels_; ++p) {
            old_data_off[p] = run;
            for (size_t ti = panel_begin_[p]; ti < panel_begin_[size_t(p) + 1];
                 ++ti)
                run += tiles_[ti].nnz;
        }
        old_data_off[num_panels_] = run;
    }

    // Validation is over and the grid changes from here on.
    token_ = std::make_shared<char>();

    // Splice: rebuild the tile directory with fresh running offsets
    // (identical to the constructor's walk), then move each panel's
    // contiguous nonzero range — old arrays for clean panels, rebuild
    // buffers for dirty ones — to its new position.
    std::vector<Tile> new_tiles = std::move(tiles_scratch_);
    new_tiles.clear();
    new_tiles.reserve(tiles_.size() + out.inserted);
    std::vector<size_t> new_panel_begin = std::move(panel_begin_scratch_);
    new_panel_begin.assign(size_t(num_panels_) + 1, 0);
    std::vector<size_t> panel_data_off(num_panels_, 0);
    size_t offset = 0;
    for (Index p = 0; p < num_panels_; ++p) {
        new_panel_begin[p] = new_tiles.size();
        panel_data_off[p] = offset;
        if (rb_of_panel[p] < 0) {
            for (size_t ti = panel_begin_[p]; ti < panel_begin_[size_t(p) + 1];
                 ++ti) {
                Tile t = tiles_[ti];
                t.offset = offset;
                offset += t.nnz;
                new_tiles.push_back(t);
            }
        } else {
            for (Tile t : rebuilt[size_t(rb_of_panel[p])].tiles) {
                t.offset = offset;
                offset += t.nnz;
                new_tiles.push_back(t);
            }
        }
    }
    new_panel_begin[num_panels_] = new_tiles.size();

    const size_t old_total = tiled_rows_.size();
    const size_t new_total = offset;
    if (new_total <= tiled_rows_.capacity() &&
        new_total <= tiled_cols_.capacity() &&
        new_total <= tiled_vals_.capacity()) {
        // In-place splice: maximal runs of consecutive clean panels
        // keep their internal layout and shift by one per-run constant,
        // so each run is a single overlapping memmove.  Left-shifting
        // runs move in ascending order, right-shifting ones in
        // descending order — either way a run's destination never
        // covers a not-yet-moved run's source (sources and destinations
        // are both monotone in panel order) — and dirty panels, whose
        // data lives in the rebuild buffers, are written last.  Runs
        // with zero shift (everything before the first dirty panel and,
        // for nnz-neutral batches, everything after the last) cost
        // nothing, and no 3x-nnz reallocation happens at all.
        if (new_total > old_total) {
            tiled_rows_.resize(new_total);
            tiled_cols_.resize(new_total);
            tiled_vals_.resize(new_total);
        }
        struct Run
        {
            size_t src, dst, len;
        };
        std::vector<Run> runs;
        for (Index p = 0; p < num_panels_;) {
            if (rb_of_panel[p] >= 0) {
                ++p;
                continue;
            }
            Index q = p;
            while (q < num_panels_ && rb_of_panel[q] < 0)
                ++q;
            const size_t src = old_data_off[p];
            const size_t dst = panel_data_off[p];
            const size_t len = old_data_off[q] - src;
            if (len != 0 && src != dst)
                runs.push_back({src, dst, len});
            p = q;
        }
        auto moveRun = [&](const Run& r) {
            std::memmove(tiled_rows_.data() + r.dst,
                         tiled_rows_.data() + r.src, r.len * sizeof(Index));
            std::memmove(tiled_cols_.data() + r.dst,
                         tiled_cols_.data() + r.src, r.len * sizeof(Index));
            std::memmove(tiled_vals_.data() + r.dst,
                         tiled_vals_.data() + r.src, r.len * sizeof(Value));
        };
        for (const Run& r : runs)
            if (r.dst < r.src)
                moveRun(r);
        for (auto it = runs.rbegin(); it != runs.rend(); ++it)
            if (it->dst > it->src)
                moveRun(*it);
        parallelFor(0, out.dirty_panels.size(), 1,
                    [&](size_t rb0, size_t rb1) {
                        for (size_t ri = rb0; ri < rb1; ++ri) {
                            const PanelRebuild& rb = rebuilt[ri];
                            const size_t dst =
                                panel_data_off[out.dirty_panels[ri]];
                            std::copy_n(rb.rows.data(), rb.rows.size(),
                                        tiled_rows_.data() + dst);
                            std::copy_n(rb.cols.data(), rb.cols.size(),
                                        tiled_cols_.data() + dst);
                            std::copy_n(rb.vals.data(), rb.vals.size(),
                                        tiled_vals_.data() + dst);
                        }
                    });
        if (new_total < old_total) {
            tiled_rows_.resize(new_total);
            tiled_cols_.resize(new_total);
            tiled_vals_.resize(new_total);
        }
    } else {
        // The batch outgrew the arrays: allocate fresh ones with some
        // headroom so subsequent updates splice in place again, and
        // copy every panel to its new position in parallel.
        const size_t slack = new_total + new_total / 8;
        std::vector<Index> new_rows, new_cols;
        std::vector<Value> new_vals;
        new_rows.reserve(slack);
        new_cols.reserve(slack);
        new_vals.reserve(slack);
        new_rows.resize(new_total);
        new_cols.resize(new_total);
        new_vals.resize(new_total);
        parallelFor(0, num_panels_, kGrainPanels, [&](size_t pb, size_t pe) {
            for (size_t p = pb; p < pe; ++p) {
                const size_t dst = panel_data_off[p];
                if (rb_of_panel[p] < 0) {
                    const size_t src = old_data_off[p];
                    const size_t len = old_data_off[p + 1] - src;
                    if (len == 0)
                        continue;
                    std::copy_n(tiled_rows_.data() + src, len,
                                new_rows.data() + dst);
                    std::copy_n(tiled_cols_.data() + src, len,
                                new_cols.data() + dst);
                    std::copy_n(tiled_vals_.data() + src, len,
                                new_vals.data() + dst);
                } else {
                    const PanelRebuild& rb = rebuilt[size_t(rb_of_panel[p])];
                    std::copy_n(rb.rows.data(), rb.rows.size(),
                                new_rows.data() + dst);
                    std::copy_n(rb.cols.data(), rb.cols.size(),
                                new_cols.data() + dst);
                    std::copy_n(rb.vals.data(), rb.vals.size(),
                                new_vals.data() + dst);
                }
            }
        });
        tiled_rows_ = std::move(new_rows);
        tiled_cols_ = std::move(new_cols);
        tiled_vals_ = std::move(new_vals);
    }

    std::swap(tiles_, new_tiles);
    std::swap(panel_begin_, new_panel_begin);
    tiles_scratch_ = std::move(new_tiles);
    panel_begin_scratch_ = std::move(new_panel_begin);
    return out;
}

CooMatrix
TileGrid::gatherTiles(const std::vector<size_t>& tile_ids) const
{
    size_t total = 0;
    for (size_t id : tile_ids)
        total += tiles_.at(id).nnz;
    CooMatrix m(rows_, cols_);
    m.reserve(total);
    for (size_t id : tile_ids) {
        const Tile& t = tiles_[id];
        for (size_t j = t.offset; j < t.offset + t.nnz; ++j)
            m.push(tiled_rows_[j], tiled_cols_[j], tiled_vals_[j]);
    }
    m.sortRowMajor();
    return m;
}

} // namespace hottiles
