#include "sim/demand_pe.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/cache.hpp"

namespace hottiles {

std::vector<PanelSlice>
sliceUntiledWork(const UntiledWork& work, Index chunk_rows)
{
    HT_ASSERT(chunk_rows > 0, "chunk_rows must be positive");
    std::vector<PanelSlice> slices;
    for (size_t p = 0; p < work.panels.size(); ++p) {
        const std::vector<size_t>& rp = work.panels[p].row_ptr;
        const Index height = Index(rp.size() - 1);
        for (Index r = 0; r < height;) {
            if (rp[r] == rp[r + 1]) {
                ++r;
                continue;
            }
            const Index end = r + std::min(chunk_rows, height - r);
            slices.push_back({p, r, end, rp[end] - rp[r]});
            r = end;
        }
    }
    return slices;
}

DemandBuild
buildDemandSegments(const UntiledWork& work,
                    const std::vector<PanelSlice>& slices,
                    const WorkerTraits& traits, const KernelConfig& kernel,
                    const DemandPeParams& params, uint32_t line_bytes)
{
    DemandBuild out;
    const uint32_t dense_row_bytes = kernel.k * traits.value_bytes;
    const uint32_t row_lines =
        static_cast<uint32_t>(ceilDiv(dense_row_bytes, line_bytes));

    // Din line c * row_lines + j maps to set (c * row_lines + j) mod
    // sets.  With span = gcd(row_lines, sets), each aligned group of span
    // lines of a row fills span adjacent sets that all see the same
    // sequence of groups, so one access to a cache of span-times-wider
    // lines decides the group: a whole row when row_lines divides sets.
    std::optional<Cache> l1;
    uint32_t span = 1;
    if (params.l1_bytes > 0) {
        span = std::gcd(row_lines, Cache::setsFor(params.l1_bytes,
                                                  params.l1_ways, line_bytes));
        l1.emplace(params.l1_bytes, params.l1_ways, line_bytes * span);
    }
    const uint32_t l1_accesses = row_lines / span;  // per Din row
    const double sparse_bytes_per_nnz =
        traits.format == SparseFormat::CooLike
            ? 2.0 * traits.index_bytes + traits.value_bytes
            : double(traits.index_bytes) + traits.value_bytes;
    const double sparse_bytes_per_row =
        traits.format == SparseFormat::CsrLike ? traits.index_bytes : 0.0;
    const double cycles_per_nnz =
        (traits.compute_scales_with_ai ? kernel.ai_factor : 1.0) /
        traits.macs_per_cycle;

    const bool sddmm = kernel.kind == SparseKernel::Sddmm;
    double sparse_acc = 0.0;  // sparse stream bytes not yet a full line
    double out_acc = 0.0;     // SDDMM scalar-output bytes not yet a line

    SegSpec seg{};
    auto flush = [&]() {
        if (seg.nnz > 0 || seg.read_lines > 0 || seg.write_lines > 0) {
            const uint32_t unit = seg.unit;
            out.segs.push_back(seg);
            seg = SegSpec{};
            seg.unit = unit;  // successor stays in the same row panel
        }
    };
    auto addSparseBytes = [&](double bytes) {
        sparse_acc += bytes;
        while (sparse_acc >= double(line_bytes)) {
            sparse_acc -= double(line_bytes);
            ++seg.read_lines;
        }
    };
    auto addOutputBytes = [&](double bytes) {
        out_acc += bytes;
        while (out_acc >= double(line_bytes)) {
            out_acc -= double(line_bytes);
            ++seg.write_lines;
        }
    };

    for (const PanelSlice& sl : slices) {
        const PanelWork& pw = work.panels.at(sl.panel);
        // Demand segments never straddle slices (flush() below), so the
        // whole segment belongs to this slice's row panel.
        seg.unit = static_cast<uint32_t>(pw.panel);
        for (Index r = sl.row_begin; r < sl.row_end; ++r) {
            const size_t rb = pw.row_ptr[r];
            const size_t re = pw.row_ptr[r + 1];
            for (size_t i = rb; i < re; ++i) {
                const Index c = pw.cols[i];
                const bool row_start = i == rb;
                const bool row_end = i + 1 == re;

                addSparseBytes(sparse_bytes_per_nnz +
                               (row_start ? sparse_bytes_per_row : 0.0));

                if (row_start)
                    seg.read_lines += row_lines;  // Dout/U row fetch (bypass)

                // Din row through the L1 when present; every line otherwise.
                if (l1) {
                    for (uint32_t j = 0; j < l1_accesses; ++j)
                        if (!l1->access(uint64_t(c) * l1_accesses + j))
                            seg.read_lines += span;  // hits cost nothing
                } else {
                    seg.read_lines += row_lines;
                }

                seg.compute_cycles += static_cast<float>(cycles_per_nnz);
                ++seg.nnz;
                ++out.nnz;
                out.flops += kernel.flopsPerNnz();

                if (sddmm)
                    addOutputBytes(traits.value_bytes);  // one output scalar
                else if (row_end)
                    seg.write_lines += row_lines;  // Dout row write-back

                if (seg.nnz >= params.segment_nnz && row_end)
                    flush();
                else if (seg.nnz >= 4 * params.segment_nnz)
                    flush();  // very long rows still get pipelined
            }
        }
        flush();
    }
    flush();

    if (l1) {
        out.din_hits = l1->hits() * span;
        out.din_misses = l1->misses() * span;
    }
    return out;
}

} // namespace hottiles
