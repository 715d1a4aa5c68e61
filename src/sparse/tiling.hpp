#pragma once

/**
 * @file
 * The tiling engine.  Partitions a sparse matrix into tile_height x
 * tile_width tiles, reorders nonzeros into tiled row-major order
 * (Fig 6(b)), gathers the per-tile statistics the analytical model needs
 * (nnz, unique row ids, unique column ids), and eliminates empty tiles —
 * the paper's preprocessing "matrix scan" step (Fig 7).
 */

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/types.hpp"

namespace hottiles {

struct DeltaBatch;

/**
 * What TileGrid::applyDelta changed — the dirty-panel map downstream
 * layers (model splice, partition re-eval, format patch) key off, plus
 * the pre-patch tile directory shape so old tile indices can be mapped
 * to new ones on clean panels (docs/INCREMENTAL.md).
 */
struct TileGridDelta
{
    /** panel_begin_ snapshot from before the patch (size numPanels()+1);
     *  clean panel p's tile j maps old_panel_begin[p]+j -> new begin+j. */
    std::vector<size_t> old_panel_begin;
    size_t old_num_tiles = 0;
    /** Per-panel dirty flag (size numPanels()); a panel is dirty iff the
     *  batch touched at least one of its nonzeros. */
    std::vector<uint8_t> panel_dirty;
    std::vector<Index> dirty_panels;  //!< ascending list of dirty panels
    size_t inserted = 0;
    size_t deleted = 0;

    bool panelDirty(Index p) const { return panel_dirty[p] != 0; }
    bool empty() const { return dirty_panels.empty(); }
};

/** Statistics and extent of one (non-empty) sparse matrix tile. */
struct Tile
{
    Index panel;      //!< row-panel index (row0 / tile_height)
    Index tcol;       //!< tile-column index (col0 / tile_width)
    Index row0;       //!< first row covered
    Index col0;       //!< first column covered
    Index height;     //!< rows covered (clipped at the matrix edge)
    Index width;      //!< columns covered (clipped at the matrix edge)
    size_t offset;    //!< first nonzero in the tiled-order arrays
    size_t nnz;       //!< nonzeros in this tile (> 0; empty tiles dropped)
    Index uniq_rids;  //!< distinct row ids among the tile's nonzeros
    Index uniq_cids;  //!< distinct column ids among the tile's nonzeros
};

/**
 * A sparse matrix partitioned into tiles.
 *
 * Nonzeros are stored once, in tiled row-major order: sorted by
 * (panel, tcol) and, within a tile, by (row, col).  Empty tiles are not
 * represented ("we completely eliminate empty tiles during
 * preprocessing", §IX).  Tiles appear sorted by (panel, tcol), so all
 * tiles of a row panel are contiguous.
 */
class TileGrid
{
  public:
    /**
     * Tile @p a into tiles of @p tile_height x @p tile_width.
     * @pre tile dims > 0.  @p a need not be sorted.
     */
    TileGrid(const CooMatrix& a, Index tile_height, Index tile_width);

    /**
     * Tile raw parallel arrays without owning or copying the input —
     * the zero-copy entry point for memory-mapped `.htb` matrices
     * (docs/OUTOFCORE.md).  The arrays must be row-major sorted with
     * in-range indices; violations throw FatalError (the spans usually
     * alias an on-disk file, so this is input validation, not an
     * internal invariant).  Produces bit-identical state to the
     * CooMatrix constructor on equal input.
     */
    TileGrid(Index rows, Index cols, std::span<const Index> row_ids,
             std::span<const Index> col_ids, std::span<const Value> vals,
             Index tile_height, Index tile_width);

    Index matrixRows() const { return rows_; }
    Index matrixCols() const { return cols_; }
    size_t matrixNnz() const { return tiled_rows_.size(); }
    Index tileHeight() const { return tile_h_; }
    Index tileWidth() const { return tile_w_; }

    /** Row panels in the grid (including ones with no nonzeros). */
    Index numPanels() const { return num_panels_; }
    /** Tile columns in the grid. */
    Index numTileCols() const { return num_tcols_; }

    size_t numTiles() const { return tiles_.size(); }
    const Tile& tile(size_t i) const { return tiles_[i]; }
    const std::vector<Tile>& tiles() const { return tiles_; }

    /** Grid positions with zero nonzeros (eliminated). */
    size_t emptyTiles() const;

    /** Row ids of tile @p i's nonzeros (tiled order). */
    std::span<const Index> tileRows(size_t i) const;
    /** Column ids of tile @p i's nonzeros. */
    std::span<const Index> tileCols(size_t i) const;
    /** Values of tile @p i's nonzeros. */
    std::span<const Value> tileVals(size_t i) const;

    /** [first, last) range of tile indices belonging to panel @p p. */
    std::pair<size_t, size_t> panelTiles(Index p) const;

    /**
     * Coefficient of variation of per-tile nnz across all grid positions
     * (empty ones included) — a quantitative intra-matrix-heterogeneity
     * (IMH) metric; 0 for perfectly uniform matrices.
     */
    double tileNnzCv() const;

    /** Extract tile @p i as a global-coordinate COO matrix. */
    CooMatrix tileCoo(size_t i) const;

    /**
     * Extract the union of the given tiles as one global-coordinate COO
     * matrix sorted row-major (used to build untiled worker formats).
     */
    CooMatrix gatherTiles(const std::vector<size_t>& tile_ids) const;

    /**
     * Position of the nonzero at (@p r, @p c) in the tiled-order arrays,
     * or SIZE_MAX when that coordinate is empty (or out of bounds).
     * When @p tile_out is non-null it receives the owning tile's index.
     * Two binary searches (tile column within the panel, coordinate
     * within the tile) — O(log tiles + log nnz-per-tile), no allocation.
     */
    size_t findNonzero(Index r, Index c, size_t* tile_out = nullptr) const;

    /**
     * Overwrite the value at each tiled-array position @p pos[i] (from
     * findNonzero) with @p vals[i], renewing identity() once for the
     * batch (not at all for an empty one).  Values affect neither the
     * tiling nor any per-tile statistic, so this is the whole of a
     * value-only update at the grid level — no re-tiling, no dirty
     * panels (docs/INCREMENTAL.md).
     */
    void setTiledValues(std::span<const size_t> pos,
                        std::span<const Value> vals);

    /**
     * Patch the grid in place with one DeltaBatch: only the row panels
     * the batch touches are re-tiled (per-tile merge + stats recompute);
     * clean panels keep their tiles and have their nonzero ranges
     * spliced over unchanged.  The result is bit-identical to
     * constructing a fresh TileGrid from the patched matrix
     * (TileGrid(applyDeltaToCoo(m, d), h, w)), including tile order,
     * offsets and per-tile statistics.
     * @throws FatalError on any batch-contract violation (delta.hpp);
     * the grid is left unmodified in that case.
     */
    TileGridDelta applyDelta(const DeltaBatch& d);

    /**
     * Identity of the grid's contents, for memos of what is derived
     * from them (an execution backend keeps its compiled plans by it).
     * A copy shares it, since its contents are the same; setTiledValues
     * and applyDelta renew it; a moved-from grid has none (an empty
     * reference that matches nothing).  Compare references by owner
     * (owner_before): while a memo holds one, no other grid can be
     * handed the same, so neither a changed grid nor a new grid built
     * at a freed grid's address meets an entry made earlier.  Once it
     * expires, every grid that had it is gone or changed.
     */
    std::weak_ptr<const void> identity() const { return token_; }

  private:
    /** Shared build core (the three counting-sort passes); @p row_ids
     *  must already be row-major sorted. */
    void build(std::span<const Index> row_ids, std::span<const Index> col_ids,
               std::span<const Value> vals);

    Index rows_ = 0;
    Index cols_ = 0;
    Index tile_h_ = 0;
    Index tile_w_ = 0;
    Index num_panels_ = 0;
    Index num_tcols_ = 0;
    std::vector<Tile> tiles_;
    std::vector<size_t> panel_begin_;  // per panel: first tile index
    std::vector<Index> tiled_rows_;
    std::vector<Index> tiled_cols_;
    std::vector<Value> tiled_vals_;
    /** Owner of identity(): shared by copies, replaced on every change. */
    std::shared_ptr<const void> token_ = std::make_shared<char>();

    /** Retired directory buffers recycled by the next applyDelta, so a
     *  steady update stream re-tiles without reallocating them. */
    std::vector<Tile> tiles_scratch_;
    std::vector<size_t> panel_begin_scratch_;
};

} // namespace hottiles
