#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/error.hpp"
#include "kernels/dispatch.hpp"
#include "sim/fault_injector.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/memory_system.hpp"
#include "sim/merger.hpp"
#include "sim/trace.hpp"
#include "sim/work_cache.hpp"
#include "sim/worker.hpp"

namespace hottiles {

namespace {

struct TypeRun
{
    std::vector<std::unique_ptr<PipelinedWorker>> pes;
    std::vector<std::unique_ptr<Link>> ports;  //!< per-PE port width limits
    uint64_t nnz = 0;
    double flops = 0;
    Tick start = 0;
    Tick finish = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t stream_lines = 0;

    bool empty() const { return pes.empty(); }

    void
    tally(const DemandBuild& b)
    {
        cache_hits += b.din_hits;
        cache_misses += b.din_misses;
    }

    void tally(const StreamBuild& b) { stream_lines += b.din_stream_lines; }

    /** One PE per non-empty share of @p cls, each on its own port of
     *  width params.port_bytes_per_cycle to @p base when that is set. */
    template <typename Work, typename PeBuild, typename Params>
    void
    addPes(const ClassBuild<Work, PeBuild>& cls, const WorkerTraits& traits,
           const Params& params, EventQueue& eq, MemPort& base,
           uint32_t line_bytes)
    {
        size_t bi = 0;
        for (size_t w = 0; w < cls.shares.size(); ++w) {
            if (cls.shares[w].empty())
                continue;
            const PeBuild& b = cls.builds[bi++];
            nnz += b.nnz;
            flops += b.flops;
            tally(b);
            MemPort* port = &base;
            if (params.port_bytes_per_cycle > 0) {
                ports.push_back(std::make_unique<Link>(
                    eq, base, params.port_bytes_per_cycle, Tick(0),
                    line_bytes));
                port = ports.back().get();
            }
            pes.push_back(std::make_unique<PipelinedWorker>(
                traits.name + " #" + std::to_string(w), eq, *port,
                params.depth, b.segs));
        }
    }

    void
    startAll(EventQueue& eq)
    {
        start = eq.now();
        for (auto& pe : pes)
            pe->start();
    }

    void
    collectFinish()
    {
        for (auto& pe : pes)
            finish = std::max(finish, pe->stats().finish);
    }
};

} // namespace

SimOutput
simulateExecution(const Architecture& arch, const TileGrid& grid,
                  const std::vector<uint8_t>& is_hot, bool serial,
                  const KernelConfig& kernel, const SimConfig& cfg)
{
    HT_ASSERT(is_hot.size() == grid.numTiles(), "assignment size mismatch");

    // A non-empty fault plan routes through the supervised executor;
    // everything below is the unperturbed fast path, bit-identical to a
    // build without the fault subsystem.  (`serial` is ignored under
    // faults: a degraded run cannot keep a serial type schedule.)
    if (cfg.faults && !cfg.faults->empty())
        return simulateWithFaults(arch, grid, is_hot, kernel, cfg);

    std::vector<size_t> hot_ids;
    std::vector<size_t> cold_ids;
    for (size_t i = 0; i < is_hot.size(); ++i)
        (is_hot[i] ? hot_ids : cold_ids).push_back(i);
    HT_ASSERT(hot_ids.empty() || arch.hot.count > 0,
              "hot tiles assigned but architecture has no hot workers");
    HT_ASSERT(cold_ids.empty() || arch.cold.count > 0,
              "cold tiles assigned but architecture has no cold workers");

    // Each class's setup (work list, shares, per-PE segments) comes from
    // the caller's memo when one is configured (evaluateMatrix runs four
    // strategies on one grid), otherwise from a private one.
    WorkListCache own;
    WorkListCache& memo = cfg.work_cache ? *cfg.work_cache : own;
    const ColdClassBuild& cold_class = memo.cold(arch, grid, kernel, cold_ids);
    const HotClassBuild& hot_class = memo.hot(arch, grid, kernel, hot_ids);

    EventQueue eq;
    MemorySystem mem(eq, arch.bwBytesPerCycle(), arch.mem_latency,
                     arch.line_bytes);
    std::unique_ptr<Link> pcie;
    MemPort* hot_port = &mem;
    if (arch.pcie_gbps > 0) {
        pcie = std::make_unique<Link>(eq, mem, arch.pcie_gbps / arch.freq_ghz,
                                      arch.pcie_latency, arch.line_bytes);
        hot_port = pcie.get();
    }

    // The cold PEs (demand access, untiled row-major panels), then the
    // hot PEs (streaming, tiled row-major panels).
    TypeRun cold;
    cold.addPes(cold_class, arch.cold, arch.cold_pe, eq, mem,
                arch.line_bytes);
    TypeRun hot;
    hot.addPes(hot_class, arch.hot, arch.hot_pe, eq, *hot_port,
               arch.line_bytes);

    SimOutput out;
    if (cfg.trace) {
        for (auto& pe : cold.pes)
            pe->setTrace(cfg.trace);
        for (auto& pe : hot.pes)
            pe->setTrace(cfg.trace);
        mem.setTrace(cfg.trace);
        if (pcie)
            pcie->setTrace(cfg.trace, "pcie");
    }
    if (cfg.collect_spans) {
        for (auto& pe : cold.pes)
            pe->setSpanCollector(&out.cold_spans);
        for (auto& pe : hot.pes)
            pe->setSpanCollector(&out.hot_spans);
    }
    std::unique_ptr<BandwidthProbe> probe;
    if (cfg.bw_probe_interval > 0) {
        probe = std::make_unique<BandwidthProbe>(eq, mem,
                                                 cfg.bw_probe_interval);
        probe->start();
    }

    // Execute.
    const auto loop_t0 = std::chrono::steady_clock::now();
    const Tick exec_start = eq.now();
    Tick merge_start = 0;
    if (serial) {
        cold.startAll(eq);
        eq.runUntilEmpty();
        cold.collectFinish();
        hot.startAll(eq);
        eq.runUntilEmpty();
        hot.collectFinish();
        merge_start = eq.now();
    } else {
        cold.startAll(eq);
        hot.startAll(eq);
        eq.runUntilEmpty();
        cold.collectFinish();
        hot.collectFinish();
        merge_start = eq.now();
        // Private output buffers need merging when both types wrote and
        // the architecture lacks race-free RMW.  SDDMM outputs are
        // per-nonzero and disjoint across worker types: never merged.
        if (!arch.atomic_rmw && !hot.empty() && !cold.empty() &&
            kernel.kind != SparseKernel::Sddmm) {
            bool merged = false;
            startMerge(eq, mem, grid.matrixRows(), kernel.k,
                       arch.cold.value_bytes, [&]() { merged = true; },
                       arch.line_bytes);
            eq.runUntilEmpty();
            HT_ASSERT(merged, "merge did not complete");
        }
    }

    const double loop_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - loop_t0)
            .count();

    if (cfg.trace) {
        cfg.trace->span("simulator", "execute", exec_start, merge_start);
        if (eq.now() > merge_start)
            cfg.trace->span("simulator", "merge", merge_start, eq.now());
        cfg.trace->flush();
    }

    if (probe)
        out.bw_samples = probe->samples();
    SimStats& st = out.stats;
    st.cycles = eq.now();
    st.ms = cyclesToMs(double(st.cycles), arch.freq_ghz);
    st.hot_nnz = hot.nnz;
    st.cold_nnz = cold.nnz;
    st.total_nnz = hot.nnz + cold.nnz;
    st.mem_bytes = mem.bytesTransferred();
    st.avg_bw_gbps =
        bytesPerCycleToGbps(mem.achievedBytesPerCycle(st.cycles),
                            arch.freq_ghz);
    st.lines_per_nnz =
        st.total_nnz ? double(mem.linesTotal()) / double(st.total_nnz) : 0;
    st.hot_finish = hot.finish;
    st.cold_finish = cold.finish;
    st.merge_cycles = eq.now() - merge_start;
    st.cold_cache_hits = cold.cache_hits;
    st.cold_cache_misses = cold.cache_misses;
    st.hot_stream_lines = hot.stream_lines;
    st.events_processed = eq.processed();
    st.loop_ms = loop_ms;
    st.peak_queue_depth = eq.peakPending();
    st.batched_events = mem.coalescedDrains();
    if (pcie)
        st.batched_events += pcie->batchedEvents();
    for (const TypeRun* run : {&cold, &hot}) {
        for (const auto& pe : run->pes)
            st.batched_events += pe->stats().batched;
        for (const auto& port : run->ports)
            st.batched_events += port->batchedEvents();
    }

    auto typeGflops = [&](const TypeRun& run) {
        if (run.empty() || run.finish <= run.start)
            return 0.0;
        return gflops(run.flops, double(run.finish - run.start),
                      arch.freq_ghz);
    };
    st.hot_gflops = typeGflops(hot);
    st.cold_gflops = typeGflops(cold);

    // Functional output from exactly the work lists the PEs executed:
    // the cold panels, then the hot tiles.  The COO kernels take a row
    // id per nonzero, so each cold panel's row pointers are expanded.
    if (cfg.compute_values) {
        const UntiledWork& cold_work = cold_class.work;
        std::vector<std::vector<Index>> cold_rows(cold_work.panels.size());
        std::vector<kernels::CooView> sets;
        for (size_t p = 0; p < cold_work.panels.size(); ++p) {
            const PanelWork& pw = cold_work.panels[p];
            for (size_t r = 0; r + 1 < pw.row_ptr.size(); ++r)
                cold_rows[p].resize(pw.row_ptr[r + 1],
                                    pw.panel * grid.tileHeight() + Index(r));
            sets.push_back({cold_rows[p].data(), pw.cols.data(),
                            pw.vals.data(), pw.cols.size()});
        }
        for (const auto& tiles : hot_class.work.panel_tiles)
            for (size_t tid : tiles)
                sets.push_back({grid.tileRows(tid).data(),
                                grid.tileCols(tid).data(),
                                grid.tileVals(tid).data(),
                                grid.tile(tid).nnz});
        computeValues(grid, kernel, cfg, sets, out);
    }
    return out;
}

void
computeValues(const TileGrid& grid, const KernelConfig& kernel,
              const SimConfig& cfg, const std::vector<kernels::CooView>& sets,
              SimOutput& out)
{
    HT_ASSERT(cfg.din, "compute_values requires din");
    HT_ASSERT(cfg.din->rows() == grid.matrixCols(), "din shape mismatch");
    const bool sddmm = kernel.kind == SparseKernel::Sddmm;
    const Index k = cfg.din->cols();
    if (sddmm) {
        HT_ASSERT(cfg.u, "SDDMM compute_values requires u");
        HT_ASSERT(cfg.u->rows() == grid.matrixRows(), "u shape mismatch");
        HT_ASSERT(cfg.u->cols() == k, "U/V K mismatch");
        out.sddmm_out = CooMatrix(grid.matrixRows(), grid.matrixCols());
        out.sddmm_out.reserve(grid.matrixNnz());
    } else {
        out.dout = DenseMatrix(grid.matrixRows(), k);
    }
    const kernels::KernelOps& ops = kernels::activeOps();
    std::vector<Value> dots;
    for (const kernels::CooView& v : sets) {
        if (!sddmm) {
            ops.spmm_coo_fast(v, k, cfg.din->row(0), out.dout.row(0), 0,
                              v.nnz);
            continue;
        }
        dots.resize(v.nnz);
        ops.sddmm_fast(v, k, cfg.u->row(0), cfg.din->row(0), dots.data(), 0,
                       v.nnz);
        for (size_t i = 0; i < v.nnz; ++i)
            out.sddmm_out.push(v.row_ids[i], v.col_ids[i], dots[i]);
    }
    if (sddmm)
        out.sddmm_out.sortRowMajor();
}

SimOutput
simulateHomogeneous(const Architecture& arch, const TileGrid& grid, bool hot,
                    const KernelConfig& kernel, const SimConfig& cfg)
{
    std::vector<uint8_t> is_hot(grid.numTiles(), hot ? 1 : 0);
    return simulateExecution(arch, grid, is_hot, /*serial=*/false, kernel,
                             cfg);
}

} // namespace hottiles
