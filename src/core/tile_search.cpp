#include "core/tile_search.hpp"

#include <limits>

#include "common/error.hpp"
#include "core/hottiles.hpp"
#include "sim/scratchpad.hpp"

namespace hottiles {

Index
maxTileWidth(const Architecture& arch, const KernelConfig& kernel,
             Index free_cap)
{
    if (arch.hot.din_reuse != ReuseType::IntraTileStream ||
        arch.hot.scratchpad_bytes == 0)
        return free_cap;
    uint64_t dim = Scratchpad::maxTileDim(arch.hot.scratchpad_bytes,
                                          kernel.k, arch.hot.value_bytes,
                                          /*buffers=*/2);
    return static_cast<Index>(std::min<uint64_t>(dim, free_cap));
}

TileSizeSearchResult
searchTileSize(const Architecture& arch, const CooMatrix& a,
               const KernelConfig& kernel,
               const std::vector<Index>& candidates)
{
    const Index cap = maxTileWidth(arch, kernel);
    TileSizeSearchResult result;
    result.best.predicted_cycles = std::numeric_limits<double>::infinity();

    for (Index size : candidates) {
        if (size == 0 || size > cap)
            continue;
        Architecture probe = arch;
        probe.tile_height = size;
        probe.tile_width = size;
        HotTilesOptions opts;
        opts.kernel = kernel;
        opts.build_formats = false;
        HotTiles ht(probe, a, opts);

        TileSizeCandidate cand;
        cand.tile_height = size;
        cand.tile_width = size;
        cand.predicted_cycles = ht.partition().predicted_cycles;
        cand.tiles = ht.grid().numTiles();
        result.candidates.push_back(cand);
        if (cand.predicted_cycles < result.best.predicted_cycles)
            result.best = cand;
    }
    HT_FATAL_IF(result.candidates.empty(), "no tile-size candidate fits ",
                "the hot scratchpad at K = ", kernel.k, " (",
                arch.hot.scratchpad_bytes, " bytes; largest tile width ",
                cap, ")");
    return result;
}

} // namespace hottiles
