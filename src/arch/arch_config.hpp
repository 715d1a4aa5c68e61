#pragma once

/**
 * @file
 * The three heterogeneous architectures of §VI-A / Fig 9 and the
 * SPADE-Sextans system scales of Table IV, expressed as a single
 * Architecture description consumed by both the analytical model (via
 * WorkerTraits) and the simulator (via the PE microarchitecture knobs).
 *
 * Scaling note (DESIGN.md): matrices are ~32x smaller than the paper's,
 * and the 8192x8192 sparse tiles become 256x256; scratchpad capacities
 * scale with them so that the Fig 3 over-fetch ratio per tile is
 * preserved.
 */

#include <string>
#include <string_view>

#include "model/worker_traits.hpp"
#include "sim/demand_pe.hpp"
#include "sim/stream_pe.hpp"
#include "sparse/types.hpp"

namespace hottiles {

/** A full heterogeneous platform description. */
struct Architecture
{
    std::string name;

    double freq_ghz = 0.8;
    double mem_gbps = 205.0;   //!< shared main-memory bandwidth
    Tick mem_latency = 80;     //!< DRAM access latency (cycles)
    uint32_t line_bytes = 64;

    /** >0 places the hot workers behind a PCIe-like link (§VI-A(b)). */
    double pcie_gbps = 0.0;
    Tick pcie_latency = 400;

    WorkerTraits hot;
    WorkerTraits cold;

    DemandPeParams cold_pe;  //!< cold microarchitecture knobs
    StreamPeParams hot_pe;   //!< hot microarchitecture knobs

    Index tile_height = 256;
    Index tile_width = 256;

    /**
     * True when the architecture supports race-free read-modify-write
     * from both worker types (PIUMA's atomic engine): no private output
     * buffers, no Merger, Parallel heuristics only.
     */
    bool atomic_rmw = false;

    /** Memory bandwidth in bytes per clock cycle. */
    double bwBytesPerCycle() const { return mem_gbps / freq_ghz; }

    /** Peak GFLOP/s of one worker type at dense width @p k. */
    double
    peakGflops(bool hot_type, uint32_t k) const
    {
        const WorkerTraits& w = hot_type ? hot : cold;
        return w.peakGflops(k, freq_ghz);
    }
};

/**
 * SPADE-Sextans on one die (Fig 9(a)) at a Table IV system scale
 * (1, 2, 4 or 8): scale s has 4s SPADE PEs (cold) and one Sextans PE
 * with 5s SIMD MACs/cycle and an s-scaled scratchpad (hot).
 */
Architecture makeSpadeSextans(int scale);

/**
 * "Skewed" iso-scale SPADE-Sextans (§VIII-B): cold workers at
 * @p cold_scale and hot workers at @p hot_scale, e.g. (3, 5).  A zero
 * scale produces a worker type with count 0 — only usable through the
 * homogeneous execution paths.
 */
Architecture makeSpadeSextansSkewed(int cold_scale, int hot_scale);

/**
 * SPADE + off-die enhanced Sextans behind a 32 GB/s PCIe link
 * (Fig 9(b)); the enhanced Sextans processes 20 nonzeros/cycle
 * regardless of gSpMM arithmetic intensity (§VII-A).
 */
Architecture makeSpadeSextansPcie();

/**
 * Intel PIUMA (Fig 9(c)): 4 MTPs (cold) + 2 STPs with scratchpads and
 * DMA engines (hot), CSR formats, double-precision values, and an
 * atomic engine providing race-free RMW (t_merge = 0).
 */
Architecture makePiuma();

/** All four Table IV scales, for the Fig 12 sweep. */
std::vector<int> spadeSextansScales();

/**
 * The architecture that @p spec names, as `hottiles --arch` and the
 * wire's `arch=` spell it: `spade-sextans[:SCALE]` (a Table IV scale,
 * default 4), `pcie` or `piuma`, the name in any case.  Anything else
 * (an unknown name, a scale outside Table IV, trailing characters, an
 * extra `:` field) is a FatalError that names the spec.
 */
Architecture architectureFromSpec(std::string_view spec);

} // namespace hottiles
