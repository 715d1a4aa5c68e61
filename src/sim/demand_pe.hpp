#pragma once

/**
 * @file
 * Segment construction for *demand-access cold PEs*: the out-of-order
 * SPADE PE (Fig 2(a), untiled COO through a bypass buffer with a
 * private Din L1) and the multithreaded PIUMA MTP (Fig 2(c), untiled
 * CSR, on-demand accesses, small cache).  Both walk their matrix subset
 * in untiled row-major order; latency tolerance comes from the pipeline
 * depth (reorder window / thread count).
 *
 * Per nonzero the PE touches: the sparse stream (COO/CSR bytes through
 * the bypass buffer — never cached), the Din row (through the L1 when
 * present; the analytical model deliberately ignores this reuse), and
 * once per row the Dout row (read at the first nonzero, written back at
 * the last — the untiled inter-tile reuse of Table III).
 */

#include <cstdint>

#include "model/worker_traits.hpp"
#include "sim/worker.hpp"
#include "sim/worklist.hpp"

namespace hottiles {

/** Microarchitectural knobs of a demand-access PE (not model traits). */
struct DemandPeParams
{
    uint32_t depth = 8;        //!< in-flight segments (latency tolerance)
    uint32_t segment_nnz = 32; //!< nonzeros grouped per pipeline segment
    uint64_t l1_bytes = 0;     //!< Din cache capacity; 0 disables
    uint32_t l1_ways = 8;
    /** Per-PE memory-port width (bytes/cycle); 0 = unconstrained. */
    double port_bytes_per_cycle = 0;
    /** Work-distribution granularity in contiguous rows (§VII-A: each
     *  SPADE PE operates on a chunk of 64 continuous rows at a time). */
    Index chunk_rows = 64;
};

/** A row range of one untiled panel (a 64-row SPADE chunk). */
struct PanelSlice
{
    size_t panel = 0;     //!< index into UntiledWork::panels
    Index row_begin = 0;  //!< first panel-local row (never empty)
    Index row_end = 0;    //!< one past the last panel-local row
    size_t nnz = 0;       //!< nonzeros in [row_begin, row_end)
};

/**
 * Split untiled work into chunks of at most @p chunk_rows rows each
 * (the unit of PE work distribution).  A chunk starts at a non-empty
 * row; empty rows between chunks belong to none.
 */
std::vector<PanelSlice> sliceUntiledWork(const UntiledWork& work,
                                         Index chunk_rows);

/** Segment list plus the cache behaviour observed while building it. */
struct DemandBuild
{
    std::vector<SegSpec> segs;
    uint64_t din_hits = 0;
    uint64_t din_misses = 0;
    uint64_t nnz = 0;
    double flops = 0;
};

/**
 * Build the pipeline segments for one demand PE processing the given
 * slices (its load-balanced share of the worker type's row chunks).
 * The cache simulation runs in traversal order here; this is sound
 * because the L1 is private and the traversal is static.  One access
 * decides gcd(row lines, L1 sets) adjacent Din lines, a whole Din row
 * when its line count divides the set count, with the hits and misses
 * of the line-by-line replay (docs/SIMULATOR.md, "Din L1 replay").
 */
DemandBuild buildDemandSegments(const UntiledWork& work,
                                const std::vector<PanelSlice>& slices,
                                const WorkerTraits& traits,
                                const KernelConfig& kernel,
                                const DemandPeParams& params,
                                uint32_t line_bytes = 64);

} // namespace hottiles
