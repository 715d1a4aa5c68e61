#include "core/execution.hpp"

#include <iterator>
#include <memory>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "sim/fault_injector.hpp"
#include "sim/trace.hpp"
#include "sim/work_cache.hpp"

namespace hottiles {

const char*
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::HotOnly: return "HotOnly";
      case Strategy::ColdOnly: return "ColdOnly";
      case Strategy::BestHomogeneous: return "BestHomogeneous";
      case Strategy::IUnaware: return "IUnaware";
      case Strategy::HotTiles: return "HotTiles";
    }
    HT_PANIC("unreachable strategy");
}

StrategyOutcome
simulatePartition(const HotTiles& ht, const Partition& p, Strategy tag,
                  const SimConfig& scfg, SimOutput* raw)
{
    StrategyOutcome o;
    o.strategy = tag;
    o.partition = p;
    o.predicted_cycles = p.predicted_cycles;
    SimConfig cfg = scfg;
    cfg.compute_values = false;
    cfg.din = nullptr;
    cfg.u = nullptr;
    SimOutput sim = simulateExecution(ht.arch(), ht.grid(), p.is_hot,
                                      p.serial, ht.kernel(), cfg);
    o.stats = sim.stats;
    if (raw)
        *raw = std::move(sim);
    return o;
}

MatrixEvaluation
evaluateMatrix(const Architecture& arch, const CooMatrix& a,
               const std::string& name, const HotTilesOptions& opts,
               const FaultPlan* faults, const EvalObservability& obs)
{
    HotTilesOptions o = opts;
    o.build_formats = false;  // the simulator builds work lists itself
    HotTiles ht(arch, a, o);

    MatrixEvaluation ev;
    ev.matrix = name;
    ev.preprocess = ht.timing();
    MetricsRegistry::global().counter("evaluate.matrices").add();

    // The four strategy simulations only read the shared pipeline state
    // (grid, partition context), so they run concurrently; each closure
    // writes its own MatrixEvaluation slot.  Any fault plan applies to
    // every strategy while the predictions stay fault-free, so the
    // evaluation exposes predicted-vs-achieved under faults.
    // One memo serves all four concurrent simulations, so a class whose
    // tile set two strategies share builds once: a homogeneous HotTiles
    // plan and the matching HotOnly or ColdOnly run, and every strategy's
    // empty class.
    WorkListCache work_cache;
    SimConfig scfg;
    scfg.faults = faults;
    scfg.work_cache = &work_cache;

    // One shared sink serves all four concurrent strategies; a
    // per-strategy prefix decorator keeps their sources separable.
    std::unique_ptr<PrefixedTraceSink> prefixed[4];
    auto strategyCfg = [&](size_t slot, Strategy s) {
        SimConfig cfg = scfg;
        if (obs.trace) {
            prefixed[slot] = std::make_unique<PrefixedTraceSink>(
                *obs.trace, strategyName(s));
            cfg.trace = prefixed[slot].get();
        }
        return cfg;
    };

    // Per-unit prediction error is charged against the HotTiles
    // partition (it is the one exercising both model columns at once).
    // Fault-injected runs skip span collection by design.
    const bool want_prediction =
        (obs.collect_prediction_error || obs.prediction) &&
        (!faults || faults->empty());
    SimOutput hottiles_raw;

    const std::function<void()> sims[] = {
        [&] {
            ScopedTimer t("evaluate.HotOnly");
            ev.hot_only.strategy = Strategy::HotOnly;
            ev.hot_only.stats =
                simulateHomogeneous(arch, ht.grid(), /*hot=*/true, o.kernel,
                                    strategyCfg(0, Strategy::HotOnly))
                    .stats;
            ev.hot_only.predicted_cycles = ht.predictedHotOnlyCycles();
        },
        [&] {
            ScopedTimer t("evaluate.ColdOnly");
            ev.cold_only.strategy = Strategy::ColdOnly;
            ev.cold_only.stats =
                simulateHomogeneous(arch, ht.grid(), /*hot=*/false, o.kernel,
                                    strategyCfg(1, Strategy::ColdOnly))
                    .stats;
            ev.cold_only.predicted_cycles = ht.predictedColdOnlyCycles();
        },
        [&] {
            ScopedTimer t("evaluate.IUnaware");
            ev.iunaware =
                simulatePartition(ht, ht.iunaware(), Strategy::IUnaware,
                                  strategyCfg(2, Strategy::IUnaware));
        },
        [&] {
            ScopedTimer t("evaluate.HotTiles");
            SimConfig cfg = strategyCfg(3, Strategy::HotTiles);
            cfg.collect_spans = want_prediction;
            ev.hottiles =
                simulatePartition(ht, ht.partition(), Strategy::HotTiles,
                                  cfg, want_prediction ? &hottiles_raw
                                                       : nullptr);
        },
    };
    parallelFor(0, std::size(sims), 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            sims[i]();
    });
    MetricsRegistry::global().counter("evaluate.strategy_runs")
        .add(std::size(sims));

    if (want_prediction) {
        PredictionErrorTelemetry pred = computePredictionError(
            ht.grid(), ht.context(), ev.hottiles.partition.is_hot,
            hottiles_raw);
        recordPredictionError(pred, strategyName(Strategy::HotTiles));
        if (obs.prediction)
            *obs.prediction = std::move(pred);
    }
    return ev;
}

} // namespace hottiles
