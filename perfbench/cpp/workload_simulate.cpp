/**
 * @file
 * simulate: the architecture researcher.  One round runs evaluateMatrix
 * on pap, ser and del under spade-sextans:4 and on pap under piuma; the
 * simulated statistics of every evaluation must repeat exactly from
 * round to round.  Its inputs are the fixed Table V proxies (the seed
 * only shapes the tiny test matrices): a seeded IMH-unaware baseline
 * made the round's cost depend on the seed.
 */

#include <iostream>
#include <map>

#include "arch/arch_config.hpp"
#include "core/calibrate.hpp"
#include "core/execution.hpp"
#include "core/preprocess.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace hottiles;

const std::vector<std::string> kClasses = {"spade/pap", "spade/ser",
                                           "spade/del", "piuma/pap"};

struct Pair
{
    std::string name;
    const Architecture* arch = nullptr;
    const CooMatrix* coo = nullptr;
};

/** The simulated (deterministic) statistics of one evaluation. */
std::vector<double>
simulatedStats(const MatrixEvaluation& ev)
{
    std::vector<double> v;
    for (const StrategyOutcome* o :
         {&ev.hot_only, &ev.cold_only, &ev.iunaware, &ev.hottiles}) {
        v.push_back(double(o->stats.cycles));
        v.push_back(double(o->stats.events_processed));
        v.push_back(double(o->stats.batched_events));
        v.push_back(o->stats.mem_bytes);
    }
    return v;
}

class Simulate final : public Workload
{
  public:
    Simulate(const Options& o, Checks& checks) : o_(o), checks_(checks)
    {
        opts_.kernel.kind = SparseKernel::Spmm;
        opts_.kernel.k = 32;
    }


    void
    setup() override
    {
        pairs_.clear();
        expected_.clear();
        matrices_.clear();
        spade_ = calibrated(makeSpadeSextans(4));
        piuma_ = calibrated(makePiuma());
        for (const char* name : {"pap", "ser", "del"})
            matrices_[name] = o_.tiny ? tinyMatrix(name) : makeSuiteMatrix(name);
        for (const std::string& cls : kClasses) {
            const bool piuma = cls.rfind("piuma/", 0) == 0;
            pairs_.push_back({cls, piuma ? &piuma_ : &spade_,
                              &matrices_.at(cls.substr(cls.find('/') + 1))});
        }
    }

    Window
    run(double seconds) override
    {
        Window w = emptyWindow(kClasses);
        rounds_ms_.clear();
        const double t0 = monotonicSeconds();
        // Whole rounds only, at least one.
        do {
            const double r0 = monotonicSeconds();
            for (size_t i = 0; i < pairs_.size(); ++i) {
                const Pair& p = pairs_[i];
                OpClass& cls = w.classes[i];
                ++cls.attempted;
                const double s0 = monotonicSeconds();
                MatrixEvaluation ev;
                {
                    Span span("core.evaluate_matrix", p.name);
                    ev = evaluateMatrix(*p.arch, *p.coo, p.name, opts_);
                }
                const double ms = (monotonicSeconds() - s0) * 1e3;
                const std::vector<double> stats = simulatedStats(ev);
                auto [it, first] = expected_.emplace(p.name, stats);
                if (checks_.expect(!first ? it->second == stats
                                          : stats.front() > 0,
                                   p.name + ": simulated statistics differ "
                                            "from the first round"))
                    cls.ok(ms, monotonicSeconds() - t0);
                else
                    ++cls.failed;
            }
            rounds_ms_.push_back((monotonicSeconds() - r0) * 1e3);
        } while (monotonicSeconds() < t0 + seconds);
        w.seconds = monotonicSeconds() - t0;
        return w;
    }

    void verify() override {}

    void
    layerMetrics(double, std::vector<Metric>& out) override
    {
        // One round again, each simulation timed serially.
        uint64_t events = 0, batched = 0;
        double sim_s = 0;
        std::map<std::string, double> strategy_ms;
        double preprocess_ms = 0;
        for (const Pair& p : pairs_) {
            double t0 = monotonicSeconds();
            std::unique_ptr<HotTiles> ht;
            {
                Span s("sim.preprocess", p.name);
                HotTilesOptions o = opts_;
                o.build_formats = false;
                ht = std::make_unique<HotTiles>(*p.arch, *p.coo, o);
            }
            preprocess_ms += (monotonicSeconds() - t0) * 1e3;
            auto timed = [&](const char* strategy, auto&& simulate) {
                const double s0 = monotonicSeconds();
                SimStats st;
                {
                    Span s("sim.strategy", strategy);
                    st = simulate();
                }
                const double dt = monotonicSeconds() - s0;
                strategy_ms[strategy] += dt * 1e3;
                sim_s += dt;
                events += st.events_processed;
                batched += st.batched_events;
            };
            const TileGrid& grid = ht->grid();
            timed("HotOnly", [&] {
                return simulateHomogeneous(*p.arch, grid, true, opts_.kernel)
                    .stats;
            });
            timed("ColdOnly", [&] {
                return simulateHomogeneous(*p.arch, grid, false, opts_.kernel)
                    .stats;
            });
            timed("IUnaware", [&] {
                return simulatePartition(*ht, ht->iunaware(),
                                         Strategy::IUnaware)
                    .stats;
            });
            timed("HotTiles", [&] {
                return simulatePartition(*ht, ht->partition(),
                                         Strategy::HotTiles)
                    .stats;
            });
        }
        out.push_back({"sim.preprocess_ms", preprocess_ms, "ms"});
        for (const auto& [name, ms] : strategy_ms)
            out.push_back({"sim.strategy_ms." + name, ms, "ms"});
        out.push_back({"sim.events", double(events), "count"});
        out.push_back({"sim.ns_per_event",
                       events ? sim_s * 1e9 / double(events) : 0, "ns"});
        out.push_back({"sim.batched_frac",
                       events + batched
                           ? double(batched) / double(events + batched)
                           : 0,
                       "ratio"});
    }

    void
    describe(const Window&, std::ostream& out) const override
    {
        out << "sim_round_s = " << median(rounds_ms_) / 1e3
            << " s (median of " << rounds_ms_.size() << " rounds)\n";
    }

  private:
    /** Small stand-ins of the three shapes for the benchmark's tests. */
    CooMatrix
    tinyMatrix(const std::string& name) const
    {
        if (name == "pap")
            return genCommunity(1024, 16.0, 32, 128, 0.75, subSeed(o_.seed, 1));
        if (name == "ser")
            return genFemBlocks(1024, 6, 10, 200, subSeed(o_.seed, 2));
        return genMesh(2048, 6.0, 64.0, subSeed(o_.seed, 3));
    }

    Options o_;
    Checks& checks_;
    HotTilesOptions opts_;
    Architecture spade_, piuma_;
    std::map<std::string, CooMatrix> matrices_;
    std::vector<Pair> pairs_;
    std::map<std::string, std::vector<double>> expected_;
    std::vector<double> rounds_ms_;
};

} // namespace

std::unique_ptr<Workload>
makeSimulate(const Options& o, Checks& checks)
{
    return std::make_unique<Simulate>(o, checks);
}

} // namespace perfbench
