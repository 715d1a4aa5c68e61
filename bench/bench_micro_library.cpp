/**
 * @file
 * google-benchmark micro-benchmarks for the library's building blocks:
 * tiling throughput, per-tile model evaluation, the O(N log N)
 * partitioning heuristics (demonstrating their scaling), cache lookups,
 * and the event queue.  These back the paper's preprocessing-cost
 * claims (§V-B, §VIII-C) at the component level.  The SIMD kernels are
 * timed by bench_kernel_throughput alone.
 */

#include <algorithm>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "model/time_model.hpp"
#include "partition/heuristics.hpp"
#include "sim/cache.hpp"
#include "sim/event_queue.hpp"
#include "sim/memory_system.hpp"
#include "sparse/generators.hpp"
#include "sparse/tiling.hpp"

using namespace hottiles;

namespace {

const CooMatrix&
benchMatrix()
{
    static CooMatrix m =
        bench::smokeMode()
            ? genRmat(2048, 20000, 0.57, 0.19, 0.19, 0.05, 0xBEEF)
            : genRmat(16384, 500000, 0.57, 0.19, 0.19, 0.05, 0xBEEF);
    return m;
}

WorkerTraits
hotTraits()
{
    WorkerTraits w;
    w.role = WorkerRole::Hot;
    w.macs_per_cycle = 20.0;
    w.din_reuse = ReuseType::IntraTileStream;
    w.dout_reuse = ReuseType::InterTile;
    w.traversal = TraversalOrder::TiledRowMajor;
    w.vis_lat = 0.01;
    return w;
}

WorkerTraits
coldTraits()
{
    WorkerTraits w;
    w.role = WorkerRole::Cold;
    w.count = 16;
    w.macs_per_cycle = 1.0;
    w.din_reuse = ReuseType::None;
    w.dout_reuse = ReuseType::InterTile;
    w.vis_lat = 0.05;
    return w;
}

void
BM_TilingScan(benchmark::State& state)
{
    const CooMatrix& m = benchMatrix();
    auto tile = static_cast<Index>(state.range(0));
    for (auto _ : state) {
        TileGrid grid(m, tile, tile);
        benchmark::DoNotOptimize(grid.numTiles());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * m.nnz());
}
BENCHMARK(BM_TilingScan)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void
BM_ModelEstimation(benchmark::State& state)
{
    const CooMatrix& m = benchMatrix();
    TileGrid grid(m, 256, 256);
    WorkerTraits hot = hotTraits();
    WorkerTraits cold = coldTraits();
    for (auto _ : state) {
        PartitionContext ctx = makePartitionContext(
            grid, hot, cold, KernelConfig{}, 256.0, 0.0, false);
        benchmark::DoNotOptimize(ctx.estimates.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * grid.numTiles());
}
BENCHMARK(BM_ModelEstimation)->Unit(benchmark::kMillisecond);

void
BM_HeuristicPartitioning(benchmark::State& state)
{
    // Scaling of the N log N cutoff heuristics with the tile count.
    auto rows = static_cast<Index>(state.range(0));
    if (bench::smokeMode())
        rows = std::min<Index>(rows, 2048);
    CooMatrix m = genRmat(rows, size_t(rows) * 30, 0.57, 0.19, 0.19, 0.05,
                          0xFEED);
    TileGrid grid(m, 128, 128);
    WorkerTraits hot = hotTraits();
    WorkerTraits cold = coldTraits();
    PartitionContext ctx = makePartitionContext(grid, hot, cold,
                                                KernelConfig{}, 256.0,
                                                1000.0, false);
    for (auto _ : state) {
        Partition p = hotTilesPartition(ctx);
        benchmark::DoNotOptimize(p.predicted_cycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * grid.numTiles());
    state.counters["tiles"] = double(grid.numTiles());
}
BENCHMARK(BM_HeuristicPartitioning)->Arg(2048)->Arg(8192)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

void
BM_CacheAccess(benchmark::State& state)
{
    Cache cache(32 * kKiB, 8);
    Rng rng(1);
    std::vector<uint64_t> lines(4096);
    for (auto& l : lines)
        l = rng.nextBounded(2048);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(lines[i % lines.size()]));
        ++i;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void
BM_EventQueueThroughput(benchmark::State& state)
{
    for (auto _ : state) {
        EventQueue eq;
        int fired = 0;
        for (Tick t = 0; t < 10000; ++t)
            eq.schedule(t, [&fired] { ++fired; });
        eq.runUntilEmpty();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 10000);
}
BENCHMARK(BM_EventQueueThroughput)->Unit(benchmark::kMillisecond);

void
BM_MemorySystemContention(benchmark::State& state)
{
    for (auto _ : state) {
        EventQueue eq;
        MemorySystem mem(eq, 256.0, 80);
        for (int i = 0; i < 5000; ++i)
            mem.access(4, i % 4 == 0, {});
        eq.runUntilEmpty();
        benchmark::DoNotOptimize(mem.linesTotal());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 5000);
}
BENCHMARK(BM_MemorySystemContention)->Unit(benchmark::kMillisecond);

} // namespace

// Hand-rolled main: the shared bench flags (--smoke/--threads) must be
// stripped before benchmark::Initialize, which rejects unknown flags.
int
main(int argc, char** argv)
{
    hottiles::bench::init(&argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
