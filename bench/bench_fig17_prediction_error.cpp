/**
 * @file
 * Fig 17 reproduction: relative error of the model's predicted execution
 * time vs the simulated one, for HotOnly, ColdOnly and HotTiles, on
 * SPADE-Sextans and PIUMA.  Paper signature: averages 4.8% / 19.6% /
 * 12.4%, with the largest ColdOnly errors on the matrices with strong
 * Din cache reuse (the model deliberately ignores caches, §IV-C), and
 * larger errors on SPADE-Sextans than on PIUMA because the SPADE L1s
 * are bigger than the MTP caches.
 *
 * Beyond the paper's whole-run aggregates, each HotTiles run also
 * collects per-unit prediction-error telemetry (core/telemetry.hpp):
 * per-tile th_i error on the hot side (exact) and per-panel tc error on
 * the cold side (latency-weighted approximation), summarised here as a
 * distribution per architecture and recorded into the global metrics
 * registry under prediction_error.<arch>.*.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/telemetry.hpp"

using namespace hottiles;
using namespace hottiles::bench;

namespace {

double
relError(double predicted, double actual)
{
    return 100.0 * std::abs(predicted - actual) / actual;
}

/** One line summarising a per-unit error sample set: exact order
 *  statistics over the sorted samples. */
void
printUnitErrors(const char* kind, const std::vector<PredictionErrorSample>&
                samples)
{
    if (samples.empty()) {
        std::cout << "  " << kind << ": no units\n";
        return;
    }
    const PredictionErrorSummary s = summarizePredictionError(samples);
    std::cout << "  " << kind << ": " << s.count << " units, mean "
              << Table::num(s.mean_pct, 1) << "%, p50 "
              << Table::num(s.p50_pct, 1) << "%, p90 "
              << Table::num(s.p90_pct, 1) << "%, max "
              << Table::num(s.max_pct, 1) << "%\n";
}

void
runArch(const std::string& label, Architecture arch, Summary err[3],
        Summary& cold_err_this_arch)
{
    // Per-matrix evaluation with telemetry: per-unit errors of the
    // HotTiles strategy accumulate across the suite for this arch.
    PredictionErrorTelemetry arch_pred;
    std::vector<MatrixEvaluation> evs;
    for (const auto& name : tableVNames()) {
        PredictionErrorTelemetry pred;
        EvalObservability obs;
        obs.collect_prediction_error = true;
        obs.prediction = &pred;
        evs.push_back(evaluateMatrix(arch, suiteMatrix(name), name, {},
                                     nullptr, obs));
        arch_pred.hot_tiles.insert(arch_pred.hot_tiles.end(),
                                   pred.hot_tiles.begin(),
                                   pred.hot_tiles.end());
        arch_pred.cold_panels.insert(arch_pred.cold_panels.end(),
                                     pred.cold_panels.begin(),
                                     pred.cold_panels.end());
    }
    Table t({"Matrix", "HotOnly err %", "ColdOnly err %", "HotTiles err %",
             "Cold cache hit %"});
    for (const auto& ev : evs) {
        double e_hot = relError(ev.hot_only.predicted_cycles,
                                ev.hot_only.cycles());
        double e_cold = relError(ev.cold_only.predicted_cycles,
                                 ev.cold_only.cycles());
        double e_ht = relError(ev.hottiles.predicted_cycles,
                               ev.hottiles.cycles());
        err[0].add(e_hot);
        err[1].add(e_cold);
        err[2].add(e_ht);
        cold_err_this_arch.add(e_cold);
        uint64_t acc = ev.cold_only.stats.cold_cache_hits +
                       ev.cold_only.stats.cold_cache_misses;
        double hit = acc ? 100.0 * ev.cold_only.stats.cold_cache_hits / acc
                         : 0.0;
        t.addRow({ev.matrix, Table::num(e_hot, 1), Table::num(e_cold, 1),
                  Table::num(e_ht, 1), Table::num(hit, 1)});
    }
    std::cout << "\n" << label << ":\n";
    t.print(std::cout);
    std::cout << "per-unit HotTiles prediction error (hot exact, cold "
                 "latency-weighted approx):\n";
    printUnitErrors("hot tiles ", arch_pred.hot_tiles);
    printUnitErrors("cold panels", arch_pred.cold_panels);
    // Per-arch registry histograms alongside the strategy-level ones
    // recorded by evaluateMatrix itself.
    recordPredictionError(arch_pred, label);
}

} // namespace

int
main(int argc, char** argv)
{
    init(&argc, argv);
    banner("Figure 17", "HPCA'24 HotTiles, Fig 17",
           "Model prediction error vs simulation");

    Summary err[3];
    Summary ss_cold_err;
    Summary piuma_cold_err;
    runArch("SPADE-Sextans scale 4", calibrated(makeSpadeSextans(4)), err,
            ss_cold_err);
    runArch("PIUMA", calibrated(makePiuma()), err, piuma_cold_err);

    std::cout << "\naverage error: HotOnly " << Table::num(err[0].mean(), 1)
              << "% (paper 4.8%), ColdOnly " << Table::num(err[1].mean(), 1)
              << "% (paper 19.6%), HotTiles "
              << Table::num(err[2].mean(), 1) << "% (paper 12.4%)\n";
    std::cout << "ColdOnly error SPADE-Sextans vs PIUMA: "
              << Table::num(ss_cold_err.mean(), 1) << "% vs "
              << Table::num(piuma_cold_err.mean(), 1)
              << "% (paper: larger on SPADE-Sextans — bigger caches)\n";
    return 0;
}
