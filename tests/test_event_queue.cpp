/** @file Tests for the discrete-event simulation core: scheduling
 *  semantics, the wheel and overflow machinery, a seeded workload whose
 *  every pop must be the minimum pending (when, seq), and simulator
 *  SimStats pinned on fixture grids. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "sparse/generators.hpp"

using namespace hottiles;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntilEmpty();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.processed(), 3u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runUntilEmpty();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PastSchedulesClampToNow)
{
    EventQueue eq;
    Tick seen = 999;
    eq.schedule(50, [&] {
        eq.schedule(10, [&] { seen = eq.now(); });  // in the past
    });
    eq.runUntilEmpty();
    EXPECT_EQ(seen, 50u);
}

TEST(EventQueue, ClampedEventRunsAfterCurrentTickFifo)
{
    // A clamped-to-now event lands *behind* events already queued at
    // the current tick (it got a later sequence number).
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] {
        order.push_back(0);
        eq.schedule(7, [&] { order.push_back(2); });  // clamps to 50
    });
    eq.schedule(50, [&] { order.push_back(1); });
    eq.runUntilEmpty();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CascadingEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            eq.scheduleIn(2, chain);
    };
    eq.schedule(0, chain);
    eq.runUntilEmpty();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 198u);
}

TEST(EventQueue, RunOneSteps)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.runOne());
    EXPECT_FALSE(eq.runOne());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilLimitStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.runUntilEmpty(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntilEmpty();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CountersTrackDepthAndVolume)
{
    EventQueue eq;
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.peakPending(), 0u);
    for (int i = 0; i < 5; ++i)
        eq.schedule(Tick(i + 1), [] {});
    EXPECT_EQ(eq.pending(), 5u);
    EXPECT_EQ(eq.peakPending(), 5u);
    EXPECT_EQ(eq.scheduled(), 5u);
    eq.runOne();
    eq.runOne();
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_EQ(eq.peakPending(), 5u);  // high-water mark sticks
    // Fan-out from a callback pushes the high-water mark further (the
    // firing event is popped before its callback runs, so 7 children
    // from the last event leave 7 pending at once).
    eq.schedule(10, [&] {
        for (int i = 0; i < 7; ++i)
            eq.scheduleIn(Tick(i + 1), [] {});
    });
    eq.runUntilEmpty();
    EXPECT_EQ(eq.peakPending(), 7u);
    EXPECT_EQ(eq.scheduled(), 13u);
    EXPECT_EQ(eq.processed(), 13u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, FarFutureEventsOrderWithNearOnes)
{
    // Deltas beyond the calendar wheel horizon (>= 4096 ticks out) take
    // the overflow path; they must still interleave correctly with
    // near events and preserve same-tick FIFO among themselves.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10000, [&] { order.push_back(3); });  // overflow
    eq.schedule(5, [&] { order.push_back(0); });      // wheel
    eq.schedule(10000, [&] { order.push_back(4); });  // overflow, same tick
    eq.schedule(20000, [&] { order.push_back(6); });  // overflow, later
    eq.schedule(4095, [&] { order.push_back(1); });   // last wheel slot
    eq.schedule(4096, [&] { order.push_back(2); });   // first overflow tick
    eq.schedule(10000, [&] { order.push_back(5); });  // overflow, same tick
    eq.runUntilEmpty();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(eq.now(), 20000u);
}

TEST(EventQueue, OverflowMigratesToWheelAsTimeAdvances)
{
    // An event scheduled far out is beyond the wheel when inserted but
    // within it once `now` advances; it must fire at the right tick and
    // in FIFO position relative to an event scheduled later (higher
    // seq) directly onto the wheel for the same tick.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(9000, [&] { order.push_back(0); });  // overflow at insert
    eq.schedule(8000, [&] {
        // now == 8000, so tick 9000 is wheel-range for this insert.
        eq.schedule(9000, [&] { order.push_back(1); });
    });
    eq.runUntilEmpty();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, WheelWrapLongHorizon)
{
    // March time through many wheel wraps (4096-slot wheel, steps of
    // 1500 do not divide it) and check every hop executes exactly once
    // at a strictly increasing tick.
    EventQueue eq;
    int hops = 0;
    Tick last = 0;
    std::function<void()> hop = [&] {
        EXPECT_TRUE(eq.now() == 0 || eq.now() > last);
        last = eq.now();
        if (++hops < 64)
            eq.scheduleIn(1500, hop);
    };
    eq.schedule(0, hop);
    eq.runUntilEmpty();
    EXPECT_EQ(hops, 64);
    EXPECT_EQ(eq.now(), 63u * 1500u);
    EXPECT_EQ(eq.processed(), 64u);
}

TEST(EventQueue, StressManyEventsStayOrdered)
{
    // A few thousand pseudo-random deltas across wheel and overflow
    // ranges; verifies global (when, seq) order and conservation.
    EventQueue eq;
    uint64_t lcg = 12345;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    std::vector<std::pair<Tick, uint64_t>> fired;
    uint64_t id = 0;
    for (int i = 0; i < 4000; ++i) {
        const Tick when = next() % 30000;
        const uint64_t my = id++;
        eq.schedule(when, [&fired, &eq, my] {
            fired.emplace_back(eq.now(), my);
        });
    }
    eq.runUntilEmpty();
    ASSERT_EQ(fired.size(), 4000u);
    for (size_t i = 1; i < fired.size(); ++i)
        EXPECT_TRUE(fired[i - 1].first < fired[i].first ||
                    (fired[i - 1].first == fired[i].first &&
                     fired[i - 1].second < fired[i].second))
            << "order violated at " << i;
}

TEST(EventQueue, EmptyCallbackDies)
{
    EventQueue eq;
    EXPECT_DEATH(eq.schedule(1, EventQueue::Callback{}), "empty callback");
}


TEST(EventQueue, ScriptedWorkloadPopsTheMinimumPending)
{
    // A seeded self-rescheduling workload with near, far (overflow) and
    // past (clamped) schedules.  The test keeps its own set of pending
    // (when, seq) pairs, clamping as the queue does, and every event
    // that runs must be that set's minimum.
    for (uint64_t seed : {uint64_t(1), uint64_t(99), uint64_t(20240)}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        EventQueue eq;
        uint64_t lcg = seed;
        auto next = [&lcg] {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            return lcg >> 33;
        };
        std::set<std::pair<Tick, uint64_t>> pending;
        uint64_t budget = 3000;
        std::function<void(Tick, uint64_t)> fire;
        auto add = [&](Tick when) {
            const Tick due = std::max(when, eq.now());
            const uint64_t seq = eq.scheduled();
            pending.emplace(due, seq);
            eq.schedule(when, [&fire, due, seq] { fire(due, seq); });
        };
        fire = [&](Tick due, uint64_t seq) {
            ASSERT_FALSE(pending.empty());
            EXPECT_EQ(*pending.begin(), std::make_pair(due, seq));
            EXPECT_EQ(eq.now(), due);
            pending.erase({due, seq});
            // Fan out 0..2 children while the budget lasts; the RNG is
            // consumed in execution order.
            const uint64_t kids = next() % 3;
            for (uint64_t k = 0; k < kids && budget > 0; ++k) {
                --budget;
                switch (next() % 3) {
                case 0:
                    add(eq.now() + next() % 100);
                    break;
                case 1:
                    add(eq.now() + 4000 + next() % 9000);
                    break;
                default:
                    add(eq.now() - std::min<Tick>(eq.now(), next() % 100));
                }
            }
        };
        for (int i = 0; i < 50; ++i)
            add(next() % 5000);
        eq.runUntilEmpty();
        EXPECT_TRUE(pending.empty());
        EXPECT_EQ(eq.processed(), eq.scheduled());
        EXPECT_GT(eq.processed(), 2000u);
    }
}

// ---------------------------------------------------------------------
// SimStats pinned end to end through the simulator, the event-loop
// observability fields included.
// ---------------------------------------------------------------------

namespace {

/** All SimStats fields the simulation derives deterministically. */
void
expectStatsIdentical(const SimStats& a, const SimStats& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ms, b.ms);
    EXPECT_EQ(a.total_nnz, b.total_nnz);
    EXPECT_EQ(a.hot_nnz, b.hot_nnz);
    EXPECT_EQ(a.cold_nnz, b.cold_nnz);
    EXPECT_DOUBLE_EQ(a.mem_bytes, b.mem_bytes);
    EXPECT_DOUBLE_EQ(a.avg_bw_gbps, b.avg_bw_gbps);
    EXPECT_DOUBLE_EQ(a.lines_per_nnz, b.lines_per_nnz);
    EXPECT_EQ(a.hot_finish, b.hot_finish);
    EXPECT_EQ(a.cold_finish, b.cold_finish);
    EXPECT_DOUBLE_EQ(a.hot_gflops, b.hot_gflops);
    EXPECT_DOUBLE_EQ(a.cold_gflops, b.cold_gflops);
    EXPECT_EQ(a.merge_cycles, b.merge_cycles);
    EXPECT_EQ(a.cold_cache_hits, b.cold_cache_hits);
    EXPECT_EQ(a.cold_cache_misses, b.cold_cache_misses);
    EXPECT_EQ(a.hot_stream_lines, b.hot_stream_lines);
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
    EXPECT_EQ(a.batched_events, b.batched_events);
    EXPECT_EQ(a.faults.injected, b.faults.injected);
    EXPECT_EQ(a.faults.workers_failed, b.faults.workers_failed);
    EXPECT_EQ(a.faults.tiles_migrated, b.faults.tiles_migrated);
    EXPECT_EQ(a.faults.migration_retries, b.faults.migration_retries);
    EXPECT_EQ(a.faults.nnz_redispatched, b.faults.nnz_redispatched);
    EXPECT_EQ(a.faults.degraded_mode, b.faults.degraded_mode);
}

SimStats
simulate(const TileGrid& grid, const std::vector<uint8_t>& is_hot,
         bool serial, const SimConfig& cfg = {})
{
    return simulateExecution(makeSpadeSextans(4), grid, is_hot, serial,
                             KernelConfig{}, cfg)
        .stats;
}

} // namespace

/**
 * Four plans on the smoke benches' community matrix, and a fault plan
 * below.  The constants are the stats that the calendar queue and the
 * binary heap it replaced both produced.
 */
TEST(EventQueue, SimulatorStatsPinnedOnFixtureGrid)
{
    static const SimStats kWant[] = {
        // all hot
        {.cycles = 8483, .ms = 0.01060375, .total_nnz = 11702,
         .hot_nnz = 11702, .cold_nnz = 0, .mem_bytes = 927296,
         .avg_bw_gbps = 87.44981728162207,
         .lines_per_nnz = 1.2381644163390872, .hot_finish = 8019,
         .cold_finish = 0, .hot_gflops = 74.71535104127697,
         .cold_gflops = 0, .merge_cycles = 0, .cold_cache_hits = 0,
         .cold_cache_misses = 0, .hot_stream_lines = 8192,
         .events_processed = 56, .peak_queue_depth = 3,
         .batched_events = 0, .faults = {}},
        // all cold
        {.cycles = 8806, .ms = 0.0110075, .total_nnz = 11702, .hot_nnz = 0,
         .cold_nnz = 11702, .mem_bytes = 1345344,
         .avg_bw_gbps = 122.22066772655008,
         .lines_per_nnz = 1.7963595966501453, .hot_finish = 0,
         .cold_finish = 8583, .hot_gflops = 0,
         .cold_gflops = 69.80570895957125, .merge_cycles = 0,
         .cold_cache_hits = 8664, .cold_cache_misses = 14740,
         .hot_stream_lines = 0, .events_processed = 1328,
         .peak_queue_depth = 304, .batched_events = 310, .faults = {}},
        // every third tile hot, parallel
        {.cycles = 7296, .ms = 0.00912, .total_nnz = 11702,
         .hot_nnz = 5554, .cold_nnz = 6148, .mem_bytes = 1703232,
         .avg_bw_gbps = 186.7578947368421,
         .lines_per_nnz = 2.27422662792685, .hot_finish = 5210,
         .cold_finish = 5376, .hot_gflops = 54.58057581573896,
         .cold_gflops = 58.55238095238096, .merge_cycles = 1615,
         .cold_cache_hits = 4666, .cold_cache_misses = 7630,
         .hot_stream_lines = 3072, .events_processed = 740,
         .peak_queue_depth = 149, .batched_events = 179, .faults = {}},
        // every third tile hot, serial
        {.cycles = 10688, .ms = 0.01336, .total_nnz = 11702,
         .hot_nnz = 5554, .cold_nnz = 6148, .mem_bytes = 1310016,
         .avg_bw_gbps = 98.05508982035929,
         .lines_per_nnz = 1.7491881729618868, .hot_finish = 10224,
         .cold_finish = 5346, .hot_gflops = 61.89917283413147,
         .cold_gflops = 58.880957725402176, .merge_cycles = 0,
         .cold_cache_hits = 4666, .cold_cache_misses = 7630,
         .hot_stream_lines = 3072, .events_processed = 782,
         .peak_queue_depth = 151, .batched_events = 165, .faults = {}},
    };
    const Architecture arch = makeSpadeSextans(4);
    const CooMatrix m = genCommunity(1024, 12.0, 32, 128, 0.8, 7);
    const TileGrid grid(m, arch.tile_height, arch.tile_width);
    std::vector<uint8_t> all_hot(grid.numTiles(), 1);
    std::vector<uint8_t> all_cold(grid.numTiles(), 0);
    std::vector<uint8_t> mixed(grid.numTiles(), 0);
    for (size_t i = 0; i < mixed.size(); i += 3)
        mixed[i] = 1;

    struct Case
    {
        const std::vector<uint8_t>* is_hot;
        bool serial;
    };
    const Case cases[] = {{&all_hot, false},
                          {&all_cold, false},
                          {&mixed, false},
                          {&mixed, true}};
    for (size_t i = 0; i < std::size(cases); ++i) {
        SCOPED_TRACE(testing::Message() << "case " << i);
        expectStatsIdentical(
            simulate(grid, *cases[i].is_hot, cases[i].serial), kWant[i]);
    }
}

TEST(EventQueue, SimulatorStatsPinnedUnderFaults)
{
    const SimStats kWant = {
        .cycles = 17999, .ms = 0.02249875, .total_nnz = 11702,
        .hot_nnz = 6108, .cold_nnz = 5594, .mem_bytes = 1979328,
        .avg_bw_gbps = 87.9750208344908,
        .lines_per_nnz = 2.6428815587079133, .hot_finish = 6631,
        .cold_finish = 15189, .hot_gflops = 47.161755391343696,
        .cold_gflops = 18.856593587464612, .merge_cycles = 1615,
        .cold_cache_hits = 5586, .cold_cache_misses = 5602,
        .hot_stream_lines = 4096, .events_processed = 801,
        .peak_queue_depth = 88, .batched_events = 142,
        .faults = {.injected = 3}};
    const Architecture arch = makeSpadeSextans(4);
    const CooMatrix m = genCommunity(1024, 12.0, 32, 128, 0.8, 7);
    const TileGrid grid(m, arch.tile_height, arch.tile_width);
    std::vector<uint8_t> mixed(grid.numTiles(), 0);
    for (size_t i = 0; i < mixed.size(); i += 2)
        mixed[i] = 1;

    FaultSpec spec;
    spec.fail_stops = 1;
    spec.slowdowns = 1;
    spec.mem_spikes = 1;
    spec.horizon = 20000;
    const FaultPlan plan = makeFaultPlan(7, arch, spec);
    SimConfig cfg;
    cfg.faults = &plan;
    expectStatsIdentical(simulate(grid, mixed, false, cfg), kWant);
}
