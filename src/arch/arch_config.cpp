#include "arch/arch_config.hpp"

#include <algorithm>
#include <charconv>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace hottiles {

namespace {

WorkerTraits
spadeTraits(int scale)
{
    WorkerTraits w;
    w.name = "SPADE PE";
    w.role = WorkerRole::Cold;
    w.count = 4 * scale;
    w.macs_per_cycle = 1.0;
    w.format = SparseFormat::CooLike;
    w.din_reuse = ReuseType::None;          // model ignores the L1 (§IV-C)
    w.dout_reuse = ReuseType::InterTile;    // untiled row-major traversal
    w.traversal = TraversalOrder::UntiledRowMajor;
    w.scratchpad_bytes = 0;
    w.index_bytes = 4;
    w.value_bytes = 4;
    w.access_granularity = 64;              // cache-line transfers
    w.overlap_group = {0, 0, 0, 0, 0};      // OoO PE overlaps everything
    w.vis_lat = 0.05;                       // placeholder until calibration
    return w;
}

WorkerTraits
sextansTraits(int scale)
{
    WorkerTraits w;
    w.name = "Sextans";
    w.role = WorkerRole::Hot;
    w.count = 1;
    w.macs_per_cycle = 5.0 * scale;
    w.format = SparseFormat::CooLike;
    w.din_reuse = ReuseType::IntraTileStream;
    w.dout_reuse = ReuseType::InterTile;    // output buffer per row panel
    w.traversal = TraversalOrder::TiledRowMajor;
    w.scratchpad_bytes = uint64_t(32) * kKiB * scale;  // double-buffered tile
    w.index_bytes = 4;
    w.value_bytes = 4;
    w.access_granularity = 64;
    // The sparse, Din, and Dout streams share the PE's memory port and
    // serialize; compute overlaps the dominant Din stream (double
    // buffering).
    w.overlap_group = {0, 1, 2, 1, 2};
    w.vis_lat = 0.02;
    return w;
}

} // namespace

Architecture
makeSpadeSextansSkewed(int cold_scale, int hot_scale)
{
    HT_ASSERT(cold_scale >= 0 && hot_scale >= 0, "negative scale");
    Architecture a;
    a.name = strPrintf("SPADE-Sextans %d-%d", cold_scale, hot_scale);
    a.freq_ghz = 0.8;
    a.mem_gbps = 205.0;
    a.mem_latency = 80;
    a.cold = spadeTraits(cold_scale);
    a.hot = sextansTraits(hot_scale);
    a.cold_pe.depth = 12;        // OoO window of outstanding requests
    a.cold_pe.segment_nnz = 32;
    // Table IV lists 32 kB L1s; capacities scale with the 32x matrix
    // substitution (DESIGN.md) so the cache:tile-working-set ratio of the
    // paper is preserved (a dense region must not fit in the L1).
    a.cold_pe.l1_bytes = 8 * kKiB;
    a.cold_pe.l1_ways = 8;
    a.cold_pe.port_bytes_per_cycle = 16;  // per-PE L1/BBF port width
    a.hot_pe.depth = 2;          // double buffering
    a.hot_pe.tile_overhead_cycles = 8;
    // The Sextans stream engine widens with the system scale; at scale 4
    // this reproduces the paper's Table VII HotOnly bandwidth (~82 GB/s).
    a.hot_pe.port_bytes_per_cycle = 32.0 * hot_scale;
    a.tile_height = 256;
    a.tile_width = 256;
    a.atomic_rmw = false;
    return a;
}

Architecture
makeSpadeSextans(int scale)
{
    HT_ASSERT(scale == 1 || scale == 2 || scale == 4 || scale == 8,
              "Table IV defines scales 1, 2, 4 and 8; got ", scale);
    Architecture a = makeSpadeSextansSkewed(scale, scale);
    a.name = strPrintf("SPADE-Sextans scale %d", scale);
    return a;
}

Architecture
makeSpadeSextansPcie()
{
    Architecture a = makeSpadeSextansSkewed(4, 4);
    a.name = "SPADE-Sextans+PCIe";
    a.pcie_gbps = 32.0;
    a.pcie_latency = 400;
    // Enhanced off-die Sextans: 20 nonzeros/cycle independent of AI.
    a.hot.name = "Sextans (enhanced)";
    a.hot.macs_per_cycle = 20.0;
    a.hot.compute_scales_with_ai = false;
    return a;
}

Architecture
makePiuma()
{
    Architecture a;
    a.name = "PIUMA";
    a.freq_ghz = 1.0;
    a.mem_gbps = 64.0;
    a.mem_latency = 100;
    a.atomic_rmw = true;  // atomic engine: race-free RMW, no Merger
    a.tile_height = 256;
    a.tile_width = 256;

    WorkerTraits mtp;
    mtp.name = "PIUMA MTP";
    mtp.role = WorkerRole::Cold;
    mtp.count = 4;
    mtp.macs_per_cycle = 0.5;   // fine-grained multithreaded scalar-SIMD
    mtp.format = SparseFormat::CsrLike;
    mtp.din_reuse = ReuseType::None;
    mtp.dout_reuse = ReuseType::InterTile;  // untiled CSR: one RMW per row
    mtp.traversal = TraversalOrder::UntiledRowMajor;
    mtp.index_bytes = 4;
    mtp.value_bytes = 8;        // double precision (§VII-A)
    mtp.access_granularity = 64;
    mtp.overlap_group = {0, 0, 0, 0, 0};    // multithreading overlaps all
    mtp.vis_lat = 0.05;
    a.cold = mtp;

    WorkerTraits stp;
    stp.name = "PIUMA STP";
    stp.role = WorkerRole::Hot;
    stp.count = 2;
    stp.macs_per_cycle = 2.0;   // DMA-fed SIMD pipeline
    stp.format = SparseFormat::CsrLike;
    stp.din_reuse = ReuseType::IntraTileStream;
    stp.dout_reuse = ReuseType::IntraTileDemand;  // DMA row gathers
    stp.traversal = TraversalOrder::TiledRowMajor;
    stp.scratchpad_bytes = 128 * kKiB;  // 256 rows x 32 x 8 B, double-buffered
    stp.index_bytes = 4;
    stp.value_bytes = 8;
    stp.access_granularity = 64;
    // In-order core: the on-demand sparse read serializes with the rest;
    // the DMA streams share the port and serialize among themselves,
    // while compute overlaps the Din stream.
    stp.overlap_group = {0, 1, 2, 1, 2};
    stp.vis_lat = 0.02;
    a.hot = stp;

    a.cold_pe.depth = 16;       // thread count
    a.cold_pe.segment_nnz = 8;  // fine-grained round-robin multithreading
    a.cold_pe.l1_bytes = kKiB;  // much smaller caches than SPADE
    a.cold_pe.l1_ways = 4;
    a.cold_pe.port_bytes_per_cycle = 12;
    a.hot_pe.depth = 2;
    a.hot_pe.tile_overhead_cycles = 16;  // DMA descriptor issue
    a.hot_pe.port_bytes_per_cycle = 24;
    return a;
}

std::vector<int>
spadeSextansScales()
{
    return {1, 2, 4, 8};
}

Architecture
architectureFromSpec(std::string_view spec)
{
    const std::vector<std::string_view> parts = splitChar(spec, ':');
    const std::string base = toLower(parts[0]);
    if (base == "spade-sextans" && parts.size() <= 2) {
        if (parts.size() == 1)
            return makeSpadeSextans(4);
        const std::string_view v = parts[1];
        const std::vector<int> scales = spadeSextansScales();
        int scale = 0;
        auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), scale);
        HT_FATAL_IF(ec != std::errc() || end != v.data() + v.size() ||
                        std::find(scales.begin(), scales.end(), scale) ==
                            scales.end(),
                    "bad architecture '", spec,
                    "': the spade-sextans scale must be 1, 2, 4 or 8");
        return makeSpadeSextans(scale);
    }
    if (parts.size() == 1 && base == "pcie")
        return makeSpadeSextansPcie();
    if (parts.size() == 1 && base == "piuma")
        return makePiuma();
    HT_FATAL("unknown architecture '", spec,
             "' (try spade-sextans[:1|2|4|8], pcie, piuma)");
}

} // namespace hottiles
