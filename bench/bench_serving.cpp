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
 *     proving each request still reaches a terminal state.
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE   JSON output path (default BENCH_serving.json)
 *   --check      self-check gates, exit 1 on violation: warm plan
 *                throughput at 16 clients must be >= 5x cold, no
 *                request may be lost in any scenario, the chaos
 *                scenario must end every request terminally with zero
 *                errors, and overload must actually shed.
 */

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "core/preprocess.hpp"
#include "serve/service.hpp"
#include "sparse/delta.hpp"
#include "sparse/generators.hpp"

using namespace hottiles;

namespace {

struct Row
{
    std::string scenario;
    unsigned clients = 0;
    uint64_t requests = 0;
    double wall_s = 0;
    double plans_per_sec = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    double cache_hit_rate = 0;
    double shed_rate = 0;
    uint64_t ok = 0, degraded = 0, shed = 0, timeout = 0, error = 0;
};

double
percentile(std::vector<double>& sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(p * double(sorted.size() - 1));
    return sorted[idx];
}

/** Closed-loop client sweep against one service configuration. */
Row
runScenario(const std::string& name, unsigned clients, unsigned per_client,
            serve::ServiceConfig cfg, serve::RequestMode mode,
            const std::vector<std::shared_ptr<const CooMatrix>>& mats,
            bool prewarm)
{
    serve::PlanService service(cfg);

    auto makeReq = [&](uint64_t id, size_t mat_idx) {
        serve::ServeRequest req;
        req.id = id;
        req.matrix_data = mats[mat_idx % mats.size()];
        req.matrix = "#bench";
        req.mode = mode;
        req.kernel.k = 8;
        req.deadline_ms = cfg.default_deadline_ms;
        return req;
    };

    if (prewarm)
        for (size_t i = 0; i < mats.size(); ++i)
            service.call(makeReq(1000000 + i, i));

    std::mutex mu;
    std::vector<double> latencies;
    Row row;
    row.scenario = name;
    row.clients = clients;

    double t0 = monotonicSeconds();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<double> local;
            for (unsigned i = 0; i < per_client; ++i) {
                uint64_t id = uint64_t(c) * per_client + i + 1;
                serve::ServeReply r =
                    service.call(makeReq(id, (c + i) % mats.size()));
                local.push_back(r.latency_ms);
                std::lock_guard<std::mutex> lock(mu);
                switch (r.status) {
                case serve::ServeStatus::Ok: ++row.ok; break;
                case serve::ServeStatus::Degraded: ++row.degraded; break;
                case serve::ServeStatus::Shed: ++row.shed; break;
                case serve::ServeStatus::Timeout: ++row.timeout; break;
                case serve::ServeStatus::Error: ++row.error; break;
                }
            }
            std::lock_guard<std::mutex> lock(mu);
            latencies.insert(latencies.end(), local.begin(), local.end());
        });
    }
    for (auto& t : threads)
        t.join();
    service.drain();
    row.wall_s = monotonicSeconds() - t0;

    row.requests = uint64_t(clients) * per_client;
    row.plans_per_sec =
        row.wall_s > 0 ? double(row.ok + row.degraded) / row.wall_s : 0;
    std::sort(latencies.begin(), latencies.end());
    row.p50_ms = percentile(latencies, 0.50);
    row.p99_ms = percentile(latencies, 0.99);
    serve::PlanCacheStats cs = service.cache().stats();
    uint64_t lookups = cs.hits + cs.misses + cs.shared_builds;
    row.cache_hit_rate = lookups ? double(cs.hits) / double(lookups) : 0;
    row.shed_rate =
        row.requests ? double(row.shed) / double(row.requests) : 0;
    service.stop();
    return row;
}

void
writeJson(const std::string& path, const std::vector<Row>& rows,
          bool smoke)
{
    std::ofstream out(path);
    HT_FATAL_IF(!out, "cannot open '", path, "' for writing");
    out << "{\n"
        << "  \"schema\": \"hottiles.bench_serving.v1\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"metrics\": ";
    MetricsRegistry::global().writeJson(out);
    out << ",\n  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << "    {\"scenario\": \"" << r.scenario
            << "\", \"clients\": " << r.clients
            << ", \"requests\": " << r.requests
            << ", \"wall_s\": " << r.wall_s
            << ", \"plans_per_sec\": " << r.plans_per_sec
            << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
            << ", \"cache_hit_rate\": " << r.cache_hit_rate
            << ", \"shed_rate\": " << r.shed_rate << ", \"ok\": " << r.ok
            << ", \"degraded\": " << r.degraded << ", \"shed\": " << r.shed
            << ", \"timeout\": " << r.timeout
            << ", \"error\": " << r.error << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(&argc, argv);
    const char* usage = "usage: bench_serving [--smoke] [--threads N] "
                        "[--out FILE] [--check]\n"
                        "  --out FILE    JSON output path (default "
                        "BENCH_serving.json)\n"
                        "  --check       exit 1 when a serving gate "
                        "fails\n";
    std::string out_path = "BENCH_serving.json";
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
    std::vector<std::shared_ptr<const CooMatrix>> mats;
    for (uint64_t seed : {11ull, 22ull, 33ull, 44ull})
        mats.push_back(std::make_shared<CooMatrix>(
            genCommunity(rows_n, 16.0, 32, 96, 0.8, seed)));

    // One-time process warmup (architecture calibration, allocator) so
    // the first scenario is not charged for it.
    {
        serve::ServiceConfig cfg;
        cfg.workers = 1;
        serve::PlanService warmup(cfg);
        serve::ServeRequest req;
        req.id = 1;
        req.matrix_data = mats[0];
        req.matrix = "#bench";
        req.mode = serve::RequestMode::Plan;
        warmup.call(req);
        warmup.stop();
    }

    const std::vector<unsigned> client_counts =
        smoke ? std::vector<unsigned>{1, 16}
              : std::vector<unsigned>{1, 4, 16, 64};
    const unsigned per_client = smoke ? 3 : 8;

    std::vector<Row> rows;
    double cold16 = 0, warm16 = 0;

    for (unsigned clients : client_counts) {
        serve::ServiceConfig cfg;
        cfg.workers = std::min(clients, 8u);
        cfg.queue_capacity = size_t(clients) + 8;
        cfg.default_deadline_ms = 60000;

        serve::ServiceConfig cold_cfg = cfg;
        cold_cfg.cache_capacity = 0;
        Row cold = runScenario("plan-cold", clients, per_client, cold_cfg,
                               serve::RequestMode::Plan, mats, false);
        Row warm = runScenario("plan-warm", clients, per_client, cfg,
                               serve::RequestMode::Plan, mats, true);
        if (clients == 16) {
            cold16 = cold.plans_per_sec;
            warm16 = warm.plans_per_sec;
        }
        rows.push_back(cold);
        rows.push_back(warm);
    }

    // Overload: one worker behind a two-slot queue, 16 impatient clients.
    {
        serve::ServiceConfig cfg;
        cfg.workers = 1;
        cfg.queue_capacity = 2;
        cfg.default_deadline_ms = 60000;
        rows.push_back(runScenario("overload", 16, per_client, cfg,
                                   serve::RequestMode::Plan, mats, true));
    }

    // Chaos: every fault class enabled, run mode (executes for real).
    {
        serve::ServiceConfig cfg;
        cfg.workers = 8;
        cfg.queue_capacity = 24;
        cfg.default_deadline_ms = smoke ? 2000 : 5000;
        cfg.chaos.seed = 0xC0FFEE;
        rows.push_back(runScenario("chaos", smoke ? 8u : 16u,
                                   smoke ? 2u : 4u, cfg,
                                   serve::RequestMode::Run, mats, false));
    }

    // Delta frames: one live session absorbing structural batches vs a
    // cold service re-planning each patched matrix from scratch.  The
    // whole point of cmd=delta is that patching the cached plan in
    // place beats invalidate-and-rebuild by a wide margin.
    double delta_mean_ms = 0, rebuild_mean_ms = 0;
    uint64_t delta_checksum = 0, rebuild_checksum = 0;
    {
        const unsigned rounds = smoke ? 4 : 8;
        const size_t batch_n = smoke ? 2 : 4;

        serve::ServiceConfig cfg;
        cfg.workers = 1;
        cfg.default_deadline_ms = 60000;
        serve::PlanService live(cfg);

        // The patch-vs-rebuild ratio only means something when the full
        // scan -> model -> partition pipeline costs real time, so this
        // scenario uses a much larger matrix than the throughput sweep
        // (the bench_incremental RMAT shape, where a small delta dirties
        // well under 1% of the tiles).
        const Index drows = Index(1) << (smoke ? 17 : 18);
        auto cur = std::make_shared<CooMatrix>(
            genRmat(drows, size_t(16) * drows, 0.57, 0.19, 0.19, 0.05, 55));
        auto sessionPlan = [&](uint64_t id) {
            serve::ServeRequest req;
            req.id = id;
            req.matrix_data = cur;
            req.matrix = "#bench-delta";
            req.session = "bench-delta";
            req.mode = serve::RequestMode::Plan;
            req.kernel.k = 8;
            req.deadline_ms = 60000;
            return req;
        };
        serve::ServeReply created = live.call(sessionPlan(1));
        HT_FATAL_IF(created.status != serve::ServeStatus::Ok,
                    "delta scenario: session creation failed (",
                    created.detail, ")");

        // Untimed warmup delta: the first patch seeds the partition
        // sweep cache at full cost (see bench_incremental), which is a
        // one-time charge the steady state never pays again.
        {
            DeltaBatch warm = genDeltaBatch(*cur, batch_n, batch_n, 899);
            auto frame = std::make_shared<serve::DeltaFrame>();
            frame->batch = warm;
            serve::ServeRequest req;
            req.id = 99;
            req.session = "bench-delta";
            req.mode = serve::RequestMode::Delta;
            req.kernel.k = 8;
            req.deadline_ms = 60000;
            req.delta = frame;
            serve::ServeReply rep = live.call(req);
            HT_FATAL_IF(rep.status != serve::ServeStatus::Ok,
                        "delta scenario: warmup delta failed (",
                        rep.detail, ")");
            cur = std::make_shared<CooMatrix>(applyDeltaToCoo(*cur, warm));
        }

        Row drow;
        drow.scenario = "delta-patch";
        drow.clients = 1;
        drow.requests = rounds;
        std::vector<std::shared_ptr<const CooMatrix>> patched;
        std::vector<double> dlat;
        double t0 = monotonicSeconds();
        for (unsigned r = 0; r < rounds; ++r) {
            DeltaBatch batch =
                genDeltaBatch(*cur, batch_n, batch_n, 900 + r);
            auto frame = std::make_shared<serve::DeltaFrame>();
            frame->batch = batch;
            serve::ServeRequest req;
            req.id = 100 + r;
            req.session = "bench-delta";
            req.mode = serve::RequestMode::Delta;
            req.kernel.k = 8;
            req.deadline_ms = 60000;
            req.delta = frame;
            double d0 = monotonicSeconds();
            serve::ServeReply rep = live.call(req);
            dlat.push_back((monotonicSeconds() - d0) * 1e3);
            if (rep.status == serve::ServeStatus::Ok)
                ++drow.ok;
            else
                ++drow.error;
            // Client-side bookkeeping of the patched matrix (untimed):
            // the cold baseline below re-plans these from scratch.
            cur = std::make_shared<CooMatrix>(applyDeltaToCoo(*cur, batch));
            patched.push_back(cur);
        }
        drow.wall_s = monotonicSeconds() - t0;
        delta_checksum = live.call(sessionPlan(2)).checksum;
        live.stop();
        for (double l : dlat)
            delta_mean_ms += l;
        delta_mean_ms /= double(dlat.size());
        drow.plans_per_sec =
            drow.wall_s > 0 ? double(drow.ok) / drow.wall_s : 0;
        std::sort(dlat.begin(), dlat.end());
        drow.p50_ms = percentile(dlat, 0.50);
        drow.p99_ms = percentile(dlat, 0.99);
        rows.push_back(drow);

        serve::ServiceConfig ccfg;
        ccfg.workers = 1;
        ccfg.cache_capacity = 0;  // every plan built from scratch
        ccfg.default_deadline_ms = 60000;
        serve::PlanService cold(ccfg);
        Row crow;
        crow.scenario = "delta-cold-rebuild";
        crow.clients = 1;
        crow.requests = rounds;
        std::vector<double> clat;
        t0 = monotonicSeconds();
        for (size_t i = 0; i < patched.size(); ++i) {
            serve::ServeRequest req;
            req.id = 200 + i;
            req.matrix_data = patched[i];
            req.matrix = "#bench-delta";
            req.mode = serve::RequestMode::Plan;
            req.kernel.k = 8;
            req.deadline_ms = 60000;
            double c0 = monotonicSeconds();
            serve::ServeReply rep = cold.call(req);
            clat.push_back((monotonicSeconds() - c0) * 1e3);
            if (rep.status == serve::ServeStatus::Ok)
                ++crow.ok;
            else
                ++crow.error;
            if (i + 1 == patched.size())
                rebuild_checksum = rep.checksum;
        }
        crow.wall_s = monotonicSeconds() - t0;
        cold.stop();
        for (double l : clat)
            rebuild_mean_ms += l;
        rebuild_mean_ms /= double(clat.size());
        crow.plans_per_sec =
            crow.wall_s > 0 ? double(crow.ok) / crow.wall_s : 0;
        std::sort(clat.begin(), clat.end());
        crow.p50_ms = percentile(clat, 0.50);
        crow.p99_ms = percentile(clat, 0.99);
        rows.push_back(crow);
    }

    // Coalescing: one worker pinned by a blocker request, then N
    // structurally identical Run requests — the first becomes the
    // queued leader, the other N-1 must join it and share one build
    // and one execution.
    uint64_t co_joined = 0, co_builds = 0, co_flagged = 0;
    bool co_checksums_equal = true;
    unsigned co_twins = 0;
    {
        const unsigned twins = smoke ? 8 : 16;
        co_twins = twins;
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

        Row corow;
        corow.scenario = "coalesce";
        corow.clients = 1;
        corow.requests = uint64_t(twins) + 1;
        double t0 = monotonicSeconds();

        serve::ServeRequest blocker;
        blocker.id = 1;
        blocker.matrix_data = mats[1];
        blocker.matrix = "#bench-blocker";
        blocker.mode = serve::RequestMode::Run;
        blocker.kernel.k = 8;
        blocker.deadline_ms = 60000;
        submit(blocker);
        for (unsigned i = 0; i < twins; ++i) {
            serve::ServeRequest req;
            req.id = 10 + i;
            req.matrix_data = mats[0];
            req.matrix = "#bench-coalesce";
            req.mode = serve::RequestMode::Run;
            req.kernel.k = 8;
            req.seed = 7;
            req.deadline_ms = 60000;
            submit(req);
        }
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return pending == 0; });
        }
        corow.wall_s = monotonicSeconds() - t0;

        serve::ServiceStats st = service.stats();
        co_joined = st.coalesced;
        co_builds = st.cache.misses;  // blocker's + the twins' leader's
        uint64_t ck = 0;
        bool first = true;
        std::vector<double> lats;
        for (const serve::ServeReply& r : replies) {
            lats.push_back(r.latency_ms);
            switch (r.status) {
            case serve::ServeStatus::Ok: ++corow.ok; break;
            case serve::ServeStatus::Degraded: ++corow.degraded; break;
            case serve::ServeStatus::Shed: ++corow.shed; break;
            case serve::ServeStatus::Timeout: ++corow.timeout; break;
            case serve::ServeStatus::Error: ++corow.error; break;
            }
            if (r.id < 10)
                continue;  // the blocker is not a twin
            if (first) {
                ck = r.checksum;
                first = false;
            } else if (r.checksum != ck) {
                co_checksums_equal = false;
            }
            if (r.coalesced)
                ++co_flagged;
        }
        service.stop();
        corow.plans_per_sec = corow.wall_s > 0
                                  ? double(corow.ok + corow.degraded) /
                                        corow.wall_s
                                  : 0;
        std::sort(lats.begin(), lats.end());
        corow.p50_ms = percentile(lats, 0.50);
        corow.p99_ms = percentile(lats, 0.99);
        rows.push_back(corow);
    }

    Table table({"Scenario", "Clients", "Requests", "Plans/s", "p50 ms",
                 "p99 ms", "Hit rate", "Shed rate"});
    for (const Row& r : rows)
        table.addRow({r.scenario, std::to_string(r.clients),
                      std::to_string(r.requests),
                      Table::num(r.plans_per_sec, 1),
                      Table::num(r.p50_ms, 2), Table::num(r.p99_ms, 2),
                      Table::num(r.cache_hit_rate, 2),
                      Table::num(r.shed_rate, 2)});
    table.print(std::cout);
    if (cold16 > 0)
        std::cout << "warm/cold plans-per-sec ratio at 16 clients: "
                  << Table::num(warm16 / cold16, 1) << "x\n";
    if (delta_mean_ms > 0)
        std::cout << "delta patch " << Table::num(delta_mean_ms, 2)
                  << " ms vs cold rebuild "
                  << Table::num(rebuild_mean_ms, 2) << " ms: "
                  << Table::num(rebuild_mean_ms / delta_mean_ms, 1)
                  << "x\n";
    std::cout << "coalesce: " << co_joined << "/" << co_twins - 1
              << " twins joined the leader, " << co_builds
              << " build(s) total\n";

    writeJson(out_path, rows, smoke);
    std::cout << "wrote " << out_path << "\n";

    if (check) {
        std::vector<std::string> failures;
        if (cold16 > 0 && warm16 < 5.0 * cold16)
            failures.push_back(
                "warm plan throughput at 16 clients below 5x cold (" +
                Table::num(warm16 / cold16, 2) + "x)");
        for (const Row& r : rows) {
            uint64_t terminal =
                r.ok + r.degraded + r.shed + r.timeout + r.error;
            if (terminal != r.requests)
                failures.push_back(r.scenario + ": lost requests (" +
                                   std::to_string(terminal) + "/" +
                                   std::to_string(r.requests) + ")");
            if (r.scenario == "chaos" && r.error != 0)
                failures.push_back("chaos: unexpected ERROR replies");
            if (r.scenario == "overload" && r.shed == 0)
                failures.push_back("overload: nothing was shed");
            if (r.scenario != "overload" && r.scenario != "chaos" &&
                (r.shed != 0 || r.error != 0))
                failures.push_back(r.scenario +
                                   ": unexpected shed/error replies");
        }
        if (delta_mean_ms <= 0 ||
            rebuild_mean_ms < 3.0 * delta_mean_ms)
            failures.push_back(
                "delta round trip below 3x cold re-plan (" +
                Table::num(delta_mean_ms > 0
                               ? rebuild_mean_ms / delta_mean_ms
                               : 0,
                           2) +
                "x)");
        if (delta_checksum != rebuild_checksum)
            failures.push_back(
                "delta-patched plan checksum diverged from the cold "
                "rebuild");
        if (co_joined != co_twins - 1)
            failures.push_back("coalesce: " + std::to_string(co_joined) +
                               " twins joined, expected " +
                               std::to_string(co_twins - 1));
        if (co_builds > 2)
            failures.push_back(
                "coalesce: identical twins triggered " +
                std::to_string(co_builds) + " builds (cap 2 incl. "
                "blocker)");
        if (co_flagged != co_twins - 1)
            failures.push_back(
                "coalesce: fanned-out replies not flagged coalesced");
        if (!co_checksums_equal)
            failures.push_back(
                "coalesce: twin checksums diverged from the leader");
        if (!failures.empty()) {
            for (const auto& f : failures)
                std::cerr << "CHECK FAILED: " << f << "\n";
            return 1;
        }
        std::cout << "all serving checks passed\n";
    }
    return 0;
}
