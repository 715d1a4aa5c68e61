/**
 * @file
 * Serving-layer throughput and resilience harness (docs/SERVING.md):
 * closed-loop clients drive the partition-plan service and the harness
 * emits BENCH_serving.json with plans/sec, latency percentiles, cache
 * hit rate and shed rate per scenario:
 *
 *   - plan throughput at 1..64 clients, cold (cache disabled) vs warm
 *     (cache enabled, pre-warmed) — the cache's whole value proposition
 *     is the warm/cold ratio;
 *   - an overload scenario (tiny queue, one worker) measuring the shed
 *     rate under pressure;
 *   - a chaos scenario (--chaos-style seed, every fault class enabled)
 *     proving each request still reaches a terminal state;
 *   - delta frames patching a live session vs a cold re-plan, and a
 *     coalescing scenario whose identical twins share one execution.
 *
 * Every scenario runs on a fresh service per call of the bench runner;
 * the scenarios a gate compares (cold vs warm at one client count, patch
 * vs re-plan) are interleaved, and a gate ratio is the median of the
 * per-round ratios.
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE   JSON output path (default BENCH_serving.json, or
 *                BENCH_serving.smoke.json under --smoke)
 *   --check      self-check gates, exit 1 on violation: warm plan
 *                throughput at 16 clients must be >= 5x cold, no
 *                request may be lost in any scenario, the chaos
 *                scenario must end every request terminally with zero
 *                errors, and overload must actually shed.
 */

#include <algorithm>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/preprocess.hpp"
#include "serve/service.hpp"
#include "sparse/delta.hpp"
#include "sparse/generators.hpp"
#include "stats.hpp"

using namespace hottiles;

namespace {

using Matrices = std::vector<std::shared_ptr<const CooMatrix>>;

/** One scenario run: throughput, latency percentiles and the count of
 *  each terminal status over @p replies. */
bench::Sample
summarize(const std::vector<serve::ServeReply>& replies, double wall_s,
          double cache_hit_rate)
{
    std::vector<double> latencies;
    double counts[5] = {};  // indexed by ServeStatus
    for (const serve::ServeReply& r : replies) {
        latencies.push_back(r.latency_ms);
        ++counts[int(r.status)];
    }
    const double served =
        counts[int(serve::ServeStatus::Ok)] +
        counts[int(serve::ServeStatus::Degraded)];
    const double shed = counts[int(serve::ServeStatus::Shed)];
    return {{"wall_s", wall_s},
            {"plans_per_sec", wall_s > 0 ? served / wall_s : 0},
            {"p50_ms", perfbench::percentile(latencies, 0.50)},
            {"p99_ms", perfbench::percentile(latencies, 0.99)},
            {"cache_hit_rate", cache_hit_rate},
            {"shed_rate", replies.empty() ? 0 : shed / replies.size()},
            {"ok", counts[int(serve::ServeStatus::Ok)]},
            {"degraded", counts[int(serve::ServeStatus::Degraded)]},
            {"shed", shed},
            {"timeout", counts[int(serve::ServeStatus::Timeout)]},
            {"error", counts[int(serve::ServeStatus::Error)]}};
}

serve::ServeRequest
request(uint64_t id, std::shared_ptr<const CooMatrix> m,
        const std::string& label, serve::RequestMode mode)
{
    serve::ServeRequest req;
    req.id = id;
    req.matrix_data = std::move(m);
    req.matrix = label;
    req.mode = mode;
    req.kernel.k = 8;
    req.deadline_ms = 60000;
    return req;
}

/** Closed-loop client sweep against a fresh service. */
bench::Sample
runScenario(unsigned clients, unsigned per_client, serve::ServiceConfig cfg,
            serve::RequestMode mode, const Matrices& mats, bool prewarm)
{
    serve::PlanService service(cfg);
    auto makeReq = [&](uint64_t id, size_t mat_idx) {
        serve::ServeRequest req =
            request(id, mats[mat_idx % mats.size()], "#bench", mode);
        req.deadline_ms = cfg.default_deadline_ms;
        return req;
    };
    if (prewarm)
        for (size_t i = 0; i < mats.size(); ++i)
            service.call(makeReq(1000000 + i, i));

    std::mutex mu;
    std::vector<serve::ServeReply> replies;
    const double t0 = monotonicSeconds();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<serve::ServeReply> local;
            for (unsigned i = 0; i < per_client; ++i)
                local.push_back(service.call(
                    makeReq(uint64_t(c) * per_client + i + 1,
                            (c + i) % mats.size())));
            std::lock_guard<std::mutex> lock(mu);
            replies.insert(replies.end(), local.begin(), local.end());
        });
    }
    for (auto& t : threads)
        t.join();
    service.drain();
    const double wall_s = monotonicSeconds() - t0;
    const serve::PlanCacheStats cs = service.cache().stats();
    const uint64_t lookups = cs.hits + cs.misses + cs.shared_builds;
    service.stop();
    return summarize(replies, wall_s,
                     lookups ? double(cs.hits) / double(lookups) : 0);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(&argc, argv);
    const char* usage = "usage: bench_serving [--smoke] [--threads N] "
                        "[--out FILE] [--check]\n"
                        "  --out FILE    JSON output path (default "
                        "BENCH_serving.json, BENCH_serving.smoke.json "
                        "under --smoke)\n"
                        "  --check       exit 1 when a serving gate "
                        "fails\n";
    std::string out_path = bench::defaultOut("serving");
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--out")
            out_path = bench::flagValue(argc, argv, i, usage);
        else if (a == "--check")
            check = true;
        else if (a == "--help" || a == "-h")
            bench::exitUsage(usage);
        else
            bench::exitUsage(usage, "unknown option '" + a + "'");
    }

    bench::banner("bench_serving", "serving layer",
                  "Partition-plan service under closed-loop load "
                  "(docs/SERVING.md): plans/sec cold vs warm, latency "
                  "percentiles, shed rate, chaos terminality");

    // Plans must cost enough that the cache ratio measures plan
    // construction, not queue dispatch overhead — hence a non-trivial
    // structure even under --smoke.
    const bool smoke = bench::smokeMode();
    const Index rows_n = smoke ? 2048 : 6144;
    Matrices mats;
    for (uint64_t seed : {11ull, 22ull, 33ull, 44ull})
        mats.push_back(std::make_shared<CooMatrix>(
            genCommunity(rows_n, 16.0, 32, 96, 0.8, seed)));
    const unsigned per_client = smoke ? 3 : 8;

    std::vector<bench::Row> results;
    std::vector<std::string> failures;
    Table table({"Scenario", "Clients", "Requests", "Plans/s", "p50 ms",
                 "p99 ms", "Hit rate", "Shed rate"});
    // One JSON and table row per scenario cell, and the per-round
    // terminal-status checks every scenario is held to.
    auto report = [&](const bench::Runner& runner, size_t cell,
                      const std::string& scenario, unsigned clients,
                      uint64_t requests) {
        results.push_back(bench::Row()
                              .put("scenario", scenario)
                              .put("clients", clients)
                              .put("requests", requests)
                              .put(runner, cell));
        auto median = [&](const char* f) {
            return runner.spread(cell, f).median;
        };
        table.addRow({scenario, std::to_string(clients),
                      std::to_string(requests),
                      Table::num(median("plans_per_sec"), 1),
                      Table::num(median("p50_ms"), 2),
                      Table::num(median("p99_ms"), 2),
                      Table::num(median("cache_hit_rate"), 2),
                      Table::num(median("shed_rate"), 2)});
        auto total = [&](const char* f) {
            double sum = 0;
            for (double v : runner.samples(cell, f))
                sum += v;
            return sum;
        };
        const double terminal = total("ok") + total("degraded") +
                                total("shed") + total("timeout") +
                                total("error");
        const std::vector<double> shed = runner.samples(cell, "shed");
        if (terminal != double(requests) * bench::rounds())
            failures.push_back(scenario + ": lost requests");
        if (scenario == "chaos" && total("error") != 0)
            failures.push_back("chaos: unexpected ERROR replies");
        if (scenario == "overload" &&
            *std::min_element(shed.begin(), shed.end()) == 0)
            failures.push_back("overload: a round shed nothing");
        if (scenario != "overload" && scenario != "chaos" &&
            total("shed") + total("error") != 0)
            failures.push_back(scenario + ": unexpected shed/error replies");
    };

    // Cold vs warm plan throughput, interleaved at each client count.
    bench::Spread warm_over_cold16;
    for (unsigned clients :
         smoke ? std::vector<unsigned>{1, 16}
               : std::vector<unsigned>{1, 4, 16, 64}) {
        serve::ServiceConfig cfg;
        cfg.workers = std::min(clients, 8u);
        cfg.queue_capacity = size_t(clients) + 8;
        cfg.default_deadline_ms = 60000;
        serve::ServiceConfig cold_cfg = cfg;
        cold_cfg.cache_capacity = 0;
        bench::Runner runner;
        runner.add([&] {
            return runScenario(clients, per_client, cold_cfg,
                               serve::RequestMode::Plan, mats, false);
        });
        runner.add([&] {
            return runScenario(clients, per_client, cfg,
                               serve::RequestMode::Plan, mats, true);
        });
        runner.run();
        report(runner, 0, "plan-cold", clients, clients * per_client);
        report(runner, 1, "plan-warm", clients, clients * per_client);
        if (clients == 16)
            warm_over_cold16 =
                bench::ratioSpread(runner.samples(1, "plans_per_sec"),
                                   runner.samples(0, "plans_per_sec"));
    }

    // Overload: one worker behind a two-slot queue, 16 impatient
    // clients.  Chaos: every fault class enabled, run mode (executes for
    // real).
    {
        serve::ServiceConfig over;
        over.workers = 1;
        over.queue_capacity = 2;
        over.default_deadline_ms = 60000;
        serve::ServiceConfig chaos;
        chaos.workers = 8;
        chaos.queue_capacity = 24;
        chaos.default_deadline_ms = smoke ? 2000 : 5000;
        chaos.chaos.seed = 0xC0FFEE;
        const unsigned chaos_clients = smoke ? 8 : 16;
        const unsigned chaos_each = smoke ? 2 : 4;
        bench::Runner overload, chaotic;
        overload.add([&] {
            return runScenario(16, per_client, over,
                               serve::RequestMode::Plan, mats, true);
        });
        chaotic.add([&] {
            return runScenario(chaos_clients, chaos_each, chaos,
                               serve::RequestMode::Run, mats, false);
        });
        overload.run();
        chaotic.run();
        report(overload, 0, "overload", 16, 16 * per_client);
        report(chaotic, 0, "chaos", chaos_clients,
               chaos_clients * chaos_each);
    }

    // Delta frames: one live session absorbing structural batches vs a
    // cold service re-planning each patched matrix from scratch.  The
    // whole point of cmd=delta is that patching the cached plan in
    // place beats invalidate-and-rebuild by a wide margin.  Each round
    // patches the session with one batch and re-plans the same patched
    // matrix cold.
    bench::Spread rebuild_over_patch;
    uint64_t delta_checksum = 0, rebuild_checksum = 0;
    {
        const size_t batch_n = smoke ? 2 : 4;
        serve::ServiceConfig cfg;
        cfg.workers = 1;
        cfg.default_deadline_ms = 60000;
        serve::PlanService live(cfg);
        serve::ServiceConfig ccfg = cfg;
        ccfg.cache_capacity = 0;  // every plan built from scratch
        serve::PlanService cold(ccfg);

        // The patch-vs-rebuild ratio only means something when the full
        // scan -> model -> partition pipeline costs real time, so this
        // scenario uses a much larger matrix than the throughput sweep
        // (the bench_incremental RMAT shape, where a small delta dirties
        // well under 1% of the tiles).
        const Index drows = Index(1) << (smoke ? 17 : 18);
        std::shared_ptr<const CooMatrix> cur = std::make_shared<CooMatrix>(
            genRmat(drows, size_t(16) * drows, 0.57, 0.19, 0.19, 0.05, 55));
        auto sessionPlan = [&](uint64_t id) {
            serve::ServeRequest req =
                request(id, cur, "#bench-delta", serve::RequestMode::Plan);
            req.session = "bench-delta";
            return req;
        };
        serve::ServeReply created = live.call(sessionPlan(1));
        HT_FATAL_IF(created.status != serve::ServeStatus::Ok,
                    "delta scenario: session creation failed (",
                    created.detail, ")");

        // The warm-up round's patch seeds the partition sweep cache at
        // full cost (see bench_incremental), a one-time charge the
        // steady state never pays again.
        DeltaBatch batch;
        std::shared_ptr<const CooMatrix> patched;
        uint64_t id = 100;
        bench::Runner runner;
        runner.add([&] {
            auto frame = std::make_shared<serve::DeltaFrame>();
            frame->batch = batch;
            serve::ServeRequest req =
                request(++id, nullptr, "", serve::RequestMode::Delta);
            req.session = "bench-delta";
            req.delta = frame;
            const double t0 = monotonicSeconds();
            const serve::ServeReply rep = live.call(req);
            return summarize({rep}, monotonicSeconds() - t0, 0);
        });
        runner.add([&] {
            const double t0 = monotonicSeconds();
            const serve::ServeReply rep = cold.call(request(
                ++id, patched, "#bench-delta", serve::RequestMode::Plan));
            rebuild_checksum = rep.checksum;
            return summarize({rep}, monotonicSeconds() - t0, 0);
        });
        runner.run([&](unsigned r) {
            // Client-side bookkeeping of the patched matrix (untimed).
            if (patched)
                cur = patched;
            batch = genDeltaBatch(*cur, batch_n, batch_n, 899 + r);
            patched = std::make_shared<CooMatrix>(applyDeltaToCoo(*cur, batch));
        });
        cur = patched;
        delta_checksum = live.call(sessionPlan(2)).checksum;
        live.stop();
        cold.stop();
        report(runner, 0, "delta-patch", 1, 1);
        report(runner, 1, "delta-cold-rebuild", 1, 1);
        rebuild_over_patch = bench::ratioSpread(runner.samples(1, "wall_s"),
                                                runner.samples(0, "wall_s"));
    }

    // Coalescing: one worker pinned by a blocker request, then N
    // structurally identical Run requests — the first becomes the
    // queued leader, the other N-1 must join it and share one build
    // and one execution.
    const unsigned twins = smoke ? 8 : 16;
    {
        bench::Runner runner;
        runner.add([&] {
            serve::ServiceConfig cfg;
            cfg.workers = 1;
            cfg.queue_capacity = size_t(twins) + 8;
            cfg.default_deadline_ms = 60000;
            serve::PlanService service(cfg);

            std::mutex mu;
            std::condition_variable cv;
            unsigned pending = 0;
            std::vector<serve::ServeReply> replies;
            auto submit = [&](serve::ServeRequest req) {
                {
                    std::lock_guard<std::mutex> lock(mu);
                    ++pending;
                }
                service.submit(std::move(req),
                               [&](const serve::ServeReply& r) {
                                   std::lock_guard<std::mutex> lock(mu);
                                   replies.push_back(r);
                                   --pending;
                                   cv.notify_all();
                               });
            };
            const double t0 = monotonicSeconds();
            submit(request(1, mats[1], "#bench-blocker",
                           serve::RequestMode::Run));
            for (unsigned i = 0; i < twins; ++i) {
                serve::ServeRequest req = request(
                    10 + i, mats[0], "#bench-coalesce", serve::RequestMode::Run);
                req.seed = 7;
                submit(req);
            }
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return pending == 0; });
            }
            const double wall_s = monotonicSeconds() - t0;
            const serve::ServiceStats st = service.stats();
            service.stop();

            uint64_t flagged = 0;
            bool same_checksum = true;
            const serve::ServeReply* leader = nullptr;
            for (const serve::ServeReply& r : replies) {
                if (r.id < 10)
                    continue;  // the blocker is not a twin
                if (!leader)
                    leader = &r;
                same_checksum = same_checksum && r.checksum == leader->checksum;
                flagged += r.coalesced;
            }
            if (st.coalesced != twins - 1)
                failures.push_back("coalesce: " +
                                   std::to_string(st.coalesced) +
                                   " twins joined, expected " +
                                   std::to_string(twins - 1));
            // The blocker's build and the twins' leader's.
            if (st.cache.misses > 2)
                failures.push_back(
                    "coalesce: identical twins triggered " +
                    std::to_string(st.cache.misses) +
                    " builds (cap 2 incl. blocker)");
            if (flagged != twins - 1)
                failures.push_back(
                    "coalesce: fanned-out replies not flagged coalesced");
            if (!same_checksum)
                failures.push_back(
                    "coalesce: twin checksums diverged from the leader");
            return summarize(replies, wall_s, 0);
        });
        runner.run();
        report(runner, 0, "coalesce", 1, twins + 1);
    }

    table.print(std::cout);
    std::cout << "(medians of " << bench::rounds()
              << " interleaved rounds, each on a fresh service)\n"
              << "warm/cold plans-per-sec ratio at 16 clients: "
              << Table::num(warm_over_cold16.median, 1) << "x\n"
              << "delta patch vs cold rebuild: "
              << Table::num(rebuild_over_patch.median, 1) << "x\n";

    bench::writeReport(out_path, "serving",
                       bench::Row()
                           .put("warm_over_cold_16", warm_over_cold16)
                           .put("rebuild_over_patch", rebuild_over_patch),
                       results);
    std::cout << "wrote " << out_path << "\n";

    if (check) {
        if (warm_over_cold16.median < 5.0)
            failures.push_back(
                "warm plan throughput at 16 clients below 5x cold (" +
                Table::num(warm_over_cold16.median, 2) + "x)");
        if (rebuild_over_patch.median < 3.0)
            failures.push_back("delta round trip below 3x cold re-plan (" +
                               Table::num(rebuild_over_patch.median, 2) +
                               "x)");
        if (delta_checksum != rebuild_checksum)
            failures.push_back(
                "delta-patched plan checksum diverged from the cold "
                "rebuild");
        if (!failures.empty()) {
            for (const auto& f : failures)
                std::cerr << "CHECK FAILED: " << f << "\n";
            return 1;
        }
        std::cout << "all serving checks passed\n";
    }
    return 0;
}
