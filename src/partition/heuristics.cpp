#include "partition/heuristics.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "partition/predicted_runtime.hpp"
#include "sparse/tiling.hpp"

namespace hottiles {

const char*
heuristicName(Heuristic h)
{
    switch (h) {
      case Heuristic::MinTimeParallel: return "MinTime Parallel";
      case Heuristic::MinTimeSerial: return "MinTime Serial";
      case Heuristic::MinByteParallel: return "MinByte Parallel";
      case Heuristic::MinByteSerial: return "MinByte Serial";
    }
    HT_PANIC("unreachable heuristic");
}

namespace {

bool
isMinTime(Heuristic h)
{
    return h == Heuristic::MinTimeParallel || h == Heuristic::MinTimeSerial;
}

bool
isSerial(Heuristic h)
{
    return h == Heuristic::MinTimeSerial || h == Heuristic::MinByteSerial;
}

/** The heuristics hotTilesPartition runs for @p ctx, in run order. */
std::vector<Heuristic>
applicableHeuristics(const PartitionContext& ctx)
{
    if (ctx.atomic_rmw) {
        // Race-free RMW: no merge cost, serial operation never pays off
        // under the model (§V-B), so only the Parallel heuristics run.
        return {Heuristic::MinTimeParallel, Heuristic::MinByteParallel};
    }
    return {Heuristic::MinTimeParallel, Heuristic::MinTimeSerial,
            Heuristic::MinByteParallel, Heuristic::MinByteSerial};
}

/** @p h's sort key for tile @p i: hot - cold time or byte difference. */
double
tileKey(const PartitionContext& ctx, bool min_time, size_t i)
{
    const TileEstimate& e = ctx.estimates[i];
    return min_time ? e.th - e.tc : e.bh - e.bc;
}

/**
 * Sort tile indices by increasing hot - cold difference of the
 * heuristic's key (execution time or bytes): tiles that favor hot
 * workers come first (Fig 8 "tile ordering").  Ties break by tile id,
 * making the sequence a total order — a pure function of the estimates,
 * independent of the sort algorithm — so the delta path can maintain it
 * by merging instead of re-sorting (docs/INCREMENTAL.md).
 */
std::vector<size_t>
sortedOrder(const PartitionContext& ctx, Heuristic h)
{
    const size_t n = ctx.estimates.size();
    const bool min_time = isMinTime(h);
    // Sort (key, id) pairs instead of bare indices: every compare then
    // reads contiguous memory instead of gathering two estimates, which
    // more than pays for carrying the id alongside.
    struct KeyId
    {
        double key;
        size_t id;
    };
    std::vector<KeyId> kv(n);
    parallelFor(0, n, kGrainTiles, [&](size_t b, size_t e_end) {
        for (size_t i = b; i < e_end; ++i)
            kv[i] = {tileKey(ctx, min_time, i), i};
    });
    std::sort(kv.begin(), kv.end(), [](const KeyId& a, const KeyId& b) {
        return a.key != b.key ? a.key < b.key : a.id < b.id;
    });
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = kv[i].id;
    return order;
}

/**
 * Subproblem objective at a given cutoff (tiles [0, cutoff) of the
 * sorted order are hot).  Uses prefix sums of the sorted th/tc or bh/bc
 * arrays; no bandwidth or merge terms — those enter only in the final
 * predicted runtime (§V-B).
 */
double
objective(Heuristic h, const PartitionContext& ctx, double hot_prefix,
          double cold_suffix)
{
    switch (h) {
      case Heuristic::MinTimeParallel:
        return std::max(hot_prefix / ctx.hot->count,
                        cold_suffix / ctx.cold->count);
      case Heuristic::MinTimeSerial:
        return hot_prefix / ctx.hot->count + cold_suffix / ctx.cold->count;
      case Heuristic::MinByteParallel:
      case Heuristic::MinByteSerial:
        return hot_prefix + cold_suffix;
    }
    HT_PANIC("unreachable heuristic");
}

/**
 * The cutoff sweep over a sorted order with its per-tile costs already
 * gathered (hot_cost[i]/cold_cost[i] belong to order[i]): prefix/suffix
 * sums, move the cutoff right while the subproblem objective decreases,
 * roll back at the first increase (§V-B).  Fills everything but
 * predicted_cycles.  Shared by the fresh and delta paths so their
 * arithmetic (including the ordered-combine cold-cost reduction) is the
 * same code.
 */
Partition
sweepFromCosts(const PartitionContext& ctx, Heuristic h,
               const std::vector<size_t>& order,
               const std::vector<double>& hot_cost,
               const std::vector<double>& cold_cost)
{
    const size_t n = order.size();
    double cold_total = parallelReduce(
        0, n, kGrainTiles, 0.0,
        [&](size_t b, size_t e) {
            return std::accumulate(cold_cost.begin() + b,
                                   cold_cost.begin() + e, 0.0);
        },
        [](double a, double b) { return a + b; });

    size_t cutoff = 0;
    double hot_prefix = 0.0;
    double cold_suffix = cold_total;
    double best = objective(h, ctx, hot_prefix, cold_suffix);
    while (cutoff < n) {
        double next_hot = hot_prefix + hot_cost[cutoff];
        double next_cold = cold_suffix - cold_cost[cutoff];
        double candidate = objective(h, ctx, next_hot, next_cold);
        if (candidate >= best)
            break;
        best = candidate;
        hot_prefix = next_hot;
        cold_suffix = next_cold;
        ++cutoff;
    }

    Partition p;
    p.is_hot.assign(n, 0);
    for (size_t i = 0; i < cutoff; ++i)
        p.is_hot[order[i]] = 1;
    p.serial = isSerial(h);
    p.heuristic = heuristicName(h);
    return p;
}

/** Gather the sweep costs of @p order from the estimates. */
void
gatherCosts(const PartitionContext& ctx, bool min_time,
            const std::vector<size_t>& order, std::vector<double>& hot_cost,
            std::vector<double>& cold_cost)
{
    const size_t n = order.size();
    hot_cost.resize(n);
    cold_cost.resize(n);
    parallelFor(0, n, kGrainTiles, [&](size_t b, size_t e_end) {
        for (size_t i = b; i < e_end; ++i) {
            const TileEstimate& e = ctx.estimates[order[i]];
            hot_cost[i] = min_time ? e.th : e.bh;
            cold_cost[i] = min_time ? e.tc : e.bc;
        }
    });
}

/** Sweep a sorted order, gathering its costs first (fresh path). */
Partition
sweepFromOrder(const PartitionContext& ctx, Heuristic h,
               const std::vector<size_t>& order)
{
    std::vector<double> hot_cost, cold_cost;
    gatherCosts(ctx, isMinTime(h), order, hot_cost, cold_cost);
    return sweepFromCosts(ctx, h, order, hot_cost, cold_cost);
}

/** Finish a candidate from its totals (Eq 5 / Eq 7). */
double
cyclesFromTotals(const PartitionContext& ctx, bool serial,
                 const AssignmentTotals& t)
{
    return serial ? predictedSerialCycles(ctx, t)
                  : predictedParallelCycles(ctx, t);
}

/** runHeuristic that also captures the sweep state for delta updates. */
Partition
runHeuristicSeed(const PartitionContext& ctx, Heuristic h,
                 HeuristicState& st)
{
    st.h = h;
    st.order = sortedOrder(ctx, h);
    gatherCosts(ctx, isMinTime(h), st.order, st.hot_cost, st.cold_cost);
    st.panel.resize(st.order.size());
    parallelFor(0, st.order.size(), kGrainTiles, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            st.panel[i] = ctx.grid->tile(st.order[i]).panel;
    });
    Partition p = sweepFromCosts(ctx, h, st.order, st.hot_cost, st.cold_cost);
    assignmentScore(ctx, p.is_hot, st.score);
    p.predicted_cycles = cyclesFromTotals(
        ctx, p.serial, reduceAssignmentScore(ctx, p.is_hot, st.score));
    st.is_hot = p.is_hot;
    return p;
}

/**
 * One heuristic's incremental step: merge dirty-panel tiles into the
 * cached order, re-sweep, and score with per-panel reuse.  A panel's
 * cached score entries are spliced when the panel is clean and its
 * membership pattern is unchanged; every other panel is recomputed.
 */
Partition
runHeuristicDelta(const PartitionContext& ctx, Heuristic h,
                  const TileGridDelta& gd, HeuristicState& st)
{
    const TileGrid& grid = *ctx.grid;
    const size_t n = grid.numTiles();
    HT_ASSERT(st.h == h, "sweep cache heuristic mismatch");
    HT_ASSERT(st.order.size() == gd.old_num_tiles,
              "sweep cache is stale: order does not match the old grid");

    // Per-panel old->new tile-id shift (clean panels move as a block).
    const size_t np = grid.numPanels();
    std::vector<ptrdiff_t> shift(np);
    for (size_t p = 0; p < np; ++p)
        shift[p] = ptrdiff_t(grid.panelTiles(Index(p)).first) -
                   ptrdiff_t(gd.old_panel_begin[p]);
    const bool min_time = isMinTime(h);
    auto less = [&](size_t a, size_t b) {
        const double ka = tileKey(ctx, min_time, a);
        const double kb = tileKey(ctx, min_time, b);
        return ka != kb ? ka < kb : a < b;
    };

    // Fresh tiles: every tile of a dirty panel, sorted by (key, id).
    std::vector<size_t> fresh;
    for (Index p : gd.dirty_panels) {
        auto [first, last] = grid.panelTiles(p);
        for (size_t t = first; t < last; ++t)
            fresh.push_back(t);
    }
    std::sort(fresh.begin(), fresh.end(), less);

    // Survivors keep their keys (clean-panel estimates were spliced
    // bit-identically) and their relative order (the old->new id remap
    // shifts whole panels, so it is monotonic); one linear merge
    // rebuilds the total order without re-sorting the clean majority.
    // The sweep costs ride along: survivors copy their cached value
    // (the estimate did not move), fresh tiles read theirs once — the
    // values match a from-scratch gather bit-for-bit, so the shared
    // sweep does too.
    std::vector<size_t> merged = std::move(st.order_scratch);
    std::vector<Index> merged_panel = std::move(st.panel_scratch);
    std::vector<double> merged_hot = std::move(st.hot_scratch);
    std::vector<double> merged_cold = std::move(st.cold_scratch);
    merged.clear();
    merged_panel.clear();
    merged_hot.clear();
    merged_cold.clear();
    merged.reserve(n);
    merged_panel.reserve(n);
    merged_hot.reserve(n);
    merged_cold.reserve(n);
    auto emitFresh = [&](size_t t) {
        const TileEstimate& e = ctx.estimates[t];
        merged.push_back(t);
        merged_panel.push_back(grid.tile(t).panel);
        merged_hot.push_back(min_time ? e.th : e.bh);
        merged_cold.push_back(min_time ? e.tc : e.bc);
    };
    size_t fi = 0;
    for (size_t oi = 0; oi < st.order.size(); ++oi) {
        const Index p = st.panel[oi];
        if (gd.panelDirty(p))
            continue;
        const size_t t_new = size_t(ptrdiff_t(st.order[oi]) + shift[p]);
        while (fi < fresh.size() && less(fresh[fi], t_new))
            emitFresh(fresh[fi++]);
        merged.push_back(t_new);
        merged_panel.push_back(p);
        merged_hot.push_back(st.hot_cost[oi]);
        merged_cold.push_back(st.cold_cost[oi]);
    }
    while (fi < fresh.size())
        emitFresh(fresh[fi++]);
    HT_ASSERT(merged.size() == n, "order merge lost tiles");
    std::swap(st.order, merged);
    std::swap(st.panel, merged_panel);
    std::swap(st.hot_cost, merged_hot);
    std::swap(st.cold_cost, merged_cold);
    st.order_scratch = std::move(merged);
    st.panel_scratch = std::move(merged_panel);
    st.hot_scratch = std::move(merged_hot);
    st.cold_scratch = std::move(merged_cold);

    Partition p = sweepFromCosts(ctx, h, st.order, st.hot_cost, st.cold_cost);

    // Score the candidate: splice cached per-tile entries for panels
    // that are clean and whose membership pattern is unchanged (their
    // extras, and therefore their contributions, are identical);
    // recompute the rest.  The final reduce runs over the whole grid in
    // the same chunk order as a fresh score, so the totals match
    // bit-for-bit.
    AssignmentScore s = std::move(st.score_scratch);
    s.bytes.resize(n);
    s.time.resize(n);
    std::vector<uint8_t> reuse(np, 0);
    parallelFor(0, np, kGrainPanels, [&](size_t pb, size_t pe) {
        for (size_t pp = pb; pp < pe; ++pp) {
            if (gd.panelDirty(Index(pp)))
                continue;
            auto [nb, ne] = grid.panelTiles(Index(pp));
            const size_t ob = gd.old_panel_begin[pp];
            const size_t len = ne - nb;
            if (len != 0 && std::memcmp(p.is_hot.data() + nb,
                                        st.is_hot.data() + ob, len) != 0)
                continue;
            reuse[pp] = 1;
            if (len == 0)
                continue;
            std::copy_n(st.score.bytes.data() + ob, len, s.bytes.data() + nb);
            std::copy_n(st.score.time.data() + ob, len, s.time.data() + nb);
        }
    });
    std::vector<Index> recompute;
    for (size_t pp = 0; pp < np; ++pp)
        if (!reuse[pp])
            recompute.push_back(Index(pp));
    assignmentScorePanels(ctx, p.is_hot, recompute, s);

    p.predicted_cycles = cyclesFromTotals(
        ctx, p.serial, reduceAssignmentScore(ctx, p.is_hot, s));
    std::swap(st.score, s);
    st.score_scratch = std::move(s);
    st.is_hot = p.is_hot;
    return p;
}

/** Lowest predicted runtime wins; ties keep the earlier heuristic. */
size_t
bestCandidate(const std::vector<Partition>& candidates)
{
    HT_ASSERT(!candidates.empty(), "no heuristics ran");
    size_t best = 0;
    for (size_t i = 1; i < candidates.size(); ++i)
        if (candidates[i].predicted_cycles < candidates[best].predicted_cycles)
            best = i;
    return best;
}

} // namespace

Partition
runHeuristic(const PartitionContext& ctx, Heuristic h)
{
    const size_t n = ctx.estimates.size();
    HT_ASSERT(n == ctx.numTiles(), "context/grid mismatch");
    Partition p = sweepFromOrder(ctx, h, sortedOrder(ctx, h));
    p.predicted_cycles = predictedRuntimeCycles(ctx, p.is_hot, p.serial);
    return p;
}

std::vector<Heuristic>
applicableHeuristicSet(const PartitionContext& ctx)
{
    return applicableHeuristics(ctx);
}

Partition
heuristicSweepCandidate(const PartitionContext& ctx, Heuristic h)
{
    HT_ASSERT(ctx.estimates.size() == ctx.numTiles(),
              "context/estimates mismatch");
    return sweepFromOrder(ctx, h, sortedOrder(ctx, h));
}

size_t
bestPartitionIndex(const std::vector<Partition>& candidates)
{
    return bestCandidate(candidates);
}

std::vector<Partition>
allHeuristicPartitions(const PartitionContext& ctx)
{
    std::vector<Heuristic> hs = applicableHeuristics(ctx);
    // The heuristics are independent; run them concurrently.  Each slot
    // is written by exactly one chunk, and nested parallel loops inside
    // runHeuristic degrade gracefully to inline execution.
    std::vector<Partition> out(hs.size());
    parallelFor(0, hs.size(), 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            out[i] = runHeuristic(ctx, hs[i]);
    });
    return out;
}

Partition
hotTilesPartition(const PartitionContext& ctx)
{
    return hotTilesPartition(ctx, nullptr);
}

Partition
hotTilesPartition(const PartitionContext& ctx, PartitionSweepCache* cache)
{
    ScopedTimer timer("partition.heuristics");
    if (!cache) {
        std::vector<Partition> candidates = allHeuristicPartitions(ctx);
        return candidates[bestCandidate(candidates)];
    }
    std::vector<Heuristic> hs = applicableHeuristics(ctx);
    cache->states.assign(hs.size(), HeuristicState{});
    std::vector<Partition> out(hs.size());
    parallelFor(0, hs.size(), 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            out[i] = runHeuristicSeed(ctx, hs[i], cache->states[i]);
    });
    return out[bestCandidate(out)];
}

Partition
hotTilesPartitionDelta(const PartitionContext& ctx, const TileGridDelta& gd,
                       PartitionSweepCache& cache)
{
    ScopedTimer timer("partition.heuristics_delta");
    std::vector<Heuristic> hs = applicableHeuristics(ctx);
    HT_ASSERT(cache.states.size() == hs.size(),
              "sweep cache does not match the applicable heuristic set");

    std::vector<Partition> out(hs.size());
    parallelFor(0, hs.size(), 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            out[i] = runHeuristicDelta(ctx, hs[i], gd, cache.states[i]);
    });
    return out[bestCandidate(out)];
}

} // namespace hottiles
