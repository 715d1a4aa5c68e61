/**
 * @file
 * The resilient partition-plan service (docs/SERVING.md), end to end:
 *
 *  - ServeFingerprint: structural identity is value-independent and
 *    order-independent; any structural change — including near
 *    collisions that preserve the per-panel histogram — changes the key.
 *  - ServePlanCache: hit/miss/LRU/bypass semantics, single-flight
 *    deduplication under concurrency, corruption detect-and-rebuild.
 *  - ServeAdmission: bounded-queue shedding, per-tenant fairness caps,
 *    deterministic close-and-drain.
 *  - ServeProtocol: frame round trips and malformed-input rejection.
 *  - ServeService: the degradation ladder in vivo — cached plans reused
 *    across value changes with bit-identical results against a
 *    from-scratch reference, watchdog-tripped wedges degrading cleanly,
 *    deadline timeouts, synchronous shedding.
 *  - ServeDelta: sessions patched by structural and value deltas stay
 *    bit-identical to from-scratch builds, and a session Run executes
 *    the session's own plan, patched or not, without rebuilding or
 *    recompiling it.
 *  - ServeResident: a handle's fingerprint, grid and formats are built
 *    once and reused by later stateless requests, within a byte budget,
 *    never for another matrix at a freed address, and formats only for
 *    the partition they were built for.
 *  - ServeChaos: a 16-client closed loop under full chaos (class
 *    kills, cache corruption, wedges, flaky builds): every request
 *    reaches a terminal state, successful replies stay bit-identical
 *    to the serial reference.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <latch>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "arch/arch_config.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/random.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "exec/backend.hpp"
#include "serve/admission.hpp"
#include "serve/fingerprint.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sparse/delta.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/suite.hpp"

namespace hottiles::serve {
namespace {

constexpr const char* kArch = "spade-sextans:4";

std::shared_ptr<const CooMatrix>
testMatrix(uint64_t seed)
{
    return std::make_shared<CooMatrix>(
        genCommunity(768, 10.0, 32, 96, 0.8, seed));
}

/** Same structure as @p m, every value rewritten from @p seed. */
std::shared_ptr<const CooMatrix>
withOtherValues(const CooMatrix& m, uint64_t seed)
{
    auto copy = std::make_shared<CooMatrix>(m);
    Rng rng(seed);
    for (size_t i = 0; i < copy->nnz(); ++i)
        copy->setValue(i, static_cast<Value>(rng.nextDouble(-1, 1)));
    return copy;
}

const Architecture&
testArch()
{
    static Architecture arch = calibrated(makeSpadeSextans(4));
    return arch;
}

/** What an OK run-mode reply must checksum to: the serial reference
 *  over a from-scratch HotTiles plan. */
uint64_t
expectedOkChecksum(const CooMatrix& m, const KernelConfig& kernel,
                   uint64_t seed)
{
    const Architecture& arch = testArch();
    HotTilesOptions opts;
    opts.kernel = kernel;
    opts.build_formats = false;
    HotTiles ht(arch, m, opts);
    DenseMatrix din(ht.grid().matrixCols(), kernel.k);
    Rng rng(seed);
    din.fillRandom(rng);
    return denseChecksum(
        exec::referenceExecute(ht.grid(), ht.partition(), kernel, din));
}

/** What a DEGRADED run-mode reply must checksum to: the serial
 *  reference over the homogeneous all-cold fallback plan. */
uint64_t
expectedDegradedChecksum(const CooMatrix& m, const KernelConfig& kernel,
                         uint64_t seed)
{
    const Architecture& arch = testArch();
    TileGrid grid(m, arch.tile_height, arch.tile_width);
    Partition p;
    p.is_hot.assign(grid.numTiles(), 0);
    DenseMatrix din(grid.matrixCols(), kernel.k);
    Rng rng(seed);
    din.fillRandom(rng);
    return denseChecksum(exec::referenceExecute(grid, p, kernel, din));
}

// ---------------------------------------------------------------- keys

TEST(ServeFingerprint, ValueIndependent)
{
    auto a = testMatrix(1);
    auto b = withOtherValues(*a, 999);
    EXPECT_EQ(fingerprintStructure(*a, 256, 256),
              fingerprintStructure(*b, 256, 256));
}

TEST(ServeFingerprint, OrderIndependent)
{
    CooMatrix fwd(8, 8), rev(8, 8);
    fwd.push(1, 2, 1.0f);
    fwd.push(3, 4, 2.0f);
    fwd.push(5, 6, 3.0f);
    rev.push(5, 6, 9.0f);
    rev.push(1, 2, 8.0f);
    rev.push(3, 4, 7.0f);
    EXPECT_EQ(fingerprintStructure(fwd, 4, 4),
              fingerprintStructure(rev, 4, 4));
}

TEST(ServeFingerprint, NearCollisionSameHistogramDiffers)
{
    // Same shape, same nnz, same per-panel nonzero counts — only one
    // column index differs.  The coordinate half must catch it.
    CooMatrix a(8, 8), b(8, 8);
    a.push(0, 0, 1.0f);
    a.push(0, 1, 1.0f);
    b.push(0, 0, 1.0f);
    b.push(0, 2, 1.0f);
    PlanFingerprint fa = fingerprintStructure(a, 4, 4);
    PlanFingerprint fb = fingerprintStructure(b, 4, 4);
    EXPECT_EQ(fa.geom, fb.geom) << "histogram halves should collide here";
    EXPECT_NE(fa.coords, fb.coords);
    EXPECT_FALSE(fa == fb);
}

TEST(ServeFingerprint, DifferentHistogramDiffers)
{
    CooMatrix a(8, 8), b(8, 8);
    a.push(0, 0, 1.0f);  // panel 0
    a.push(1, 0, 1.0f);  // panel 0
    b.push(0, 0, 1.0f);  // panel 0
    b.push(5, 0, 1.0f);  // panel 1
    EXPECT_NE(fingerprintStructure(a, 4, 4).geom,
              fingerprintStructure(b, 4, 4).geom);
}

TEST(ServeFingerprint, TilingAndKernelChangeTheKey)
{
    auto m = testMatrix(2);
    KernelConfig k8, k16;
    k8.k = 8;
    k16.k = 16;
    PlanKey a = makePlanKey(*m, kArch, 256, 256, k8);
    PlanKey b = makePlanKey(*m, kArch, 256, 256, k16);
    PlanKey c = makePlanKey(*m, kArch, 128, 128, k8);
    PlanKey d = makePlanKey(*m, "piuma", 256, 256, k8);
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a == c);
    EXPECT_FALSE(a == d);
    EXPECT_TRUE(a == makePlanKey(*m, kArch, 256, 256, k8));
}

// --------------------------------------------------------------- cache

PlanKey
syntheticKey(uint64_t n)
{
    PlanKey key;
    key.fp.geom = n;
    key.fp.coords = ~n;
    key.arch = kArch;
    key.tile_h = key.tile_w = 256;
    key.k = 8;
    return key;
}

CachedPlan
syntheticPlan(uint64_t n)
{
    CachedPlan plan;
    plan.is_hot.assign(16, 0);
    plan.is_hot[n % 16] = 1;
    plan.predicted_cycles = static_cast<double>(n);
    plan.heuristic = "synthetic";
    plan.checksum = plan.payloadChecksum();
    return plan;
}

TEST(ServePlanCache, HitAfterMiss)
{
    PlanCache cache(4);
    CacheOutcome outcome;
    auto p1 = cache.getOrBuild(
        syntheticKey(1), [] { return syntheticPlan(1); }, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::Miss);
    auto p2 = cache.getOrBuild(
        syntheticKey(1), [] { return syntheticPlan(99); }, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::Hit);
    EXPECT_EQ(p1.get(), p2.get()) << "hit must share the published plan";
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ServePlanCache, LruEvictsOldest)
{
    PlanCache cache(2);
    CacheOutcome outcome;
    for (uint64_t n : {1, 2, 3})  // 3 evicts 1
        cache.getOrBuild(
            syntheticKey(n), [n] { return syntheticPlan(n); }, &outcome);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    cache.getOrBuild(
        syntheticKey(1), [] { return syntheticPlan(1); }, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::Miss) << "evicted key must rebuild";
    cache.getOrBuild(
        syntheticKey(2), [] { return syntheticPlan(2); }, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::Miss)
        << "2 was oldest after the touch of 3";
}

TEST(ServePlanCache, CapacityZeroBypasses)
{
    PlanCache cache(0);
    CacheOutcome outcome;
    for (int i = 0; i < 3; ++i) {
        cache.getOrBuild(
            syntheticKey(7), [] { return syntheticPlan(7); }, &outcome);
        EXPECT_EQ(outcome, CacheOutcome::Bypass);
    }
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ServePlanCache, SingleFlightBuildsOnce)
{
    PlanCache cache(4);
    std::atomic<int> builds{0};
    std::atomic<int> hits{0}, misses{0}, shared{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            CacheOutcome outcome;
            auto plan = cache.getOrBuild(
                syntheticKey(5),
                [&] {
                    builds.fetch_add(1);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return syntheticPlan(5);
                },
                &outcome);
            ASSERT_NE(plan, nullptr);
            if (outcome == CacheOutcome::Hit)
                hits.fetch_add(1);
            else if (outcome == CacheOutcome::Miss)
                misses.fetch_add(1);
            else if (outcome == CacheOutcome::SharedBuild)
                shared.fetch_add(1);
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1) << "concurrent misses must build once";
    EXPECT_EQ(misses.load(), 1);
    EXPECT_EQ(hits.load() + shared.load(), 7);
}

TEST(ServePlanCache, CorruptionDetectedAndRebuilt)
{
    PlanCache cache(4);
    CacheOutcome outcome;
    cache.getOrBuild(
        syntheticKey(3), [] { return syntheticPlan(3); }, &outcome);
    Rng rng(11);
    ASSERT_TRUE(cache.corruptOneEntry(rng));
    auto plan = cache.getOrBuild(
        syntheticKey(3), [] { return syntheticPlan(3); }, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::Corrupt);
    EXPECT_EQ(plan->payloadChecksum(), plan->checksum)
        << "the rebuilt plan must validate";
    EXPECT_EQ(cache.stats().corrupt_dropped, 1u);
    // And the corruption is gone: the next lookup is a clean hit.
    cache.getOrBuild(
        syntheticKey(3), [] { return syntheticPlan(3); }, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::Hit);
}

TEST(ServePlanCache, BuilderExceptionReleasesTheSlot)
{
    PlanCache cache(4);
    CacheOutcome outcome;
    EXPECT_THROW(cache.getOrBuild(
                     syntheticKey(9),
                     []() -> CachedPlan { throw FatalError("boom"); },
                     &outcome),
                 FatalError);
    // The failed slot must not wedge the key: the next caller builds.
    auto plan = cache.getOrBuild(
        syntheticKey(9), [] { return syntheticPlan(9); }, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::Miss);
    ASSERT_NE(plan, nullptr);
}

// ----------------------------------------------------------- admission

TEST(ServeAdmission, BoundedQueueSheds)
{
    AdmissionQueue q(2, 0);
    auto item = [](const char* tenant) {
        return AdmissionQueue::Item{tenant, [] {}};
    };
    EXPECT_EQ(q.tryPush(item("a")), AdmissionResult::Admitted);
    EXPECT_EQ(q.tryPush(item("a")), AdmissionResult::Admitted);
    EXPECT_EQ(q.tryPush(item("a")), AdmissionResult::QueueFull);
    EXPECT_EQ(q.depth(), 2u);
    EXPECT_EQ(q.tenant("a").admitted, 2u);
    EXPECT_EQ(q.tenant("a").shed, 1u);
}

TEST(ServeAdmission, TenantCapKeepsOthersAdmissible)
{
    AdmissionQueue q(8, 2);
    auto item = [](const char* tenant) {
        return AdmissionQueue::Item{tenant, [] {}};
    };
    EXPECT_EQ(q.tryPush(item("flooder")), AdmissionResult::Admitted);
    EXPECT_EQ(q.tryPush(item("flooder")), AdmissionResult::Admitted);
    EXPECT_EQ(q.tryPush(item("flooder")), AdmissionResult::TenantOverCap);
    EXPECT_EQ(q.tryPush(item("polite")), AdmissionResult::Admitted)
        << "one tenant's flood must not shed another";
    EXPECT_EQ(q.tenant("flooder").shed, 1u);
    EXPECT_EQ(q.tenant("polite").shed, 0u);
    // Popping a flooder item frees its slot.
    ASSERT_TRUE(q.pop().has_value());
    EXPECT_EQ(q.tryPush(item("flooder")), AdmissionResult::Admitted);
}

TEST(ServeAdmission, CloseDrainsThenStops)
{
    AdmissionQueue q(8, 0);
    int ran = 0;
    q.tryPush({"t", [&] { ++ran; }});
    q.tryPush({"t", [&] { ++ran; }});
    q.close();
    EXPECT_EQ(q.tryPush({"t", [] {}}), AdmissionResult::Closed);
    while (auto item = q.pop())
        item->work();
    EXPECT_EQ(ran, 2) << "close() must drain queued work, not drop it";
}

TEST(ServeAdmission, CloseWakesBlockedConsumers)
{
    AdmissionQueue q(4, 0);
    std::thread consumer([&] {
        while (q.pop())
            ;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    consumer.join();  // would hang forever if close() failed to wake
    SUCCEED();
}

// ------------------------------------------------------------ protocol

TEST(ServeProtocol, FrameRoundTrip)
{
    std::stringstream stream;
    stream << encodeFrame("hello world") << encodeFrame("")
           << encodeFrame("x");
    std::string payload;
    ASSERT_TRUE(readFrame(stream, payload));
    EXPECT_EQ(payload, "hello world");
    ASSERT_TRUE(readFrame(stream, payload));
    EXPECT_EQ(payload, "");
    ASSERT_TRUE(readFrame(stream, payload));
    EXPECT_EQ(payload, "x");
    EXPECT_FALSE(readFrame(stream, payload)) << "clean EOF";
}

TEST(ServeProtocol, MalformedFramesThrow)
{
    std::string payload;
    std::stringstream bad_prefix("zzzzzzzzrest");
    EXPECT_THROW(readFrame(bad_prefix, payload), FatalError);
    std::stringstream truncated(encodeFrame("full payload").substr(0, 12));
    EXPECT_THROW(readFrame(truncated, payload), FatalError);
}

TEST(ServeProtocol, ParsesRequestFields)
{
    ServeRequest req = parseRequest(
        "id=7 tenant=gnn matrix=@pap arch=piuma mode=plan kernel=spmm "
        "k=64 ai=2.5 deadline_ms=250 seed=9");
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.tenant, "gnn");
    EXPECT_EQ(req.matrix, "@pap");
    EXPECT_EQ(req.arch, "piuma");
    EXPECT_EQ(req.mode, RequestMode::Plan);
    EXPECT_EQ(req.kernel.k, 64u);
    EXPECT_DOUBLE_EQ(req.kernel.ai_factor, 2.5);
    EXPECT_DOUBLE_EQ(req.deadline_ms, 250);
    EXPECT_EQ(req.seed, 9u);
}

TEST(ServeProtocol, RejectsBadRequests)
{
    EXPECT_THROW(parseRequest("mode=run"), FatalError);  // no matrix
    EXPECT_THROW(parseRequest("matrix=@pap mode=sideways"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap k=banana"), FatalError);
    EXPECT_THROW(parseRequest("matrix=@pap sudo=1"), FatalError);
}

TEST(ServeProtocol, FormatsReply)
{
    ServeReply reply;
    reply.id = 12;
    reply.status = ServeStatus::Degraded;
    reply.plan_source = "degraded";
    reply.retries = 2;
    reply.checksum = 0xabcdefULL;
    std::string s = formatReply(reply);
    EXPECT_NE(s.find("id=12"), std::string::npos);
    EXPECT_NE(s.find("status=DEGRADED"), std::string::npos);
    EXPECT_NE(s.find("retries=2"), std::string::npos);
    EXPECT_NE(s.find("checksum=0000000000abcdef"), std::string::npos);
}

// ------------------------------------------------------------- service

ServeRequest
runRequest(std::shared_ptr<const CooMatrix> m, uint64_t id,
           uint32_t k = 8)
{
    ServeRequest req;
    req.id = id;
    req.matrix_data = std::move(m);
    req.matrix = "#inproc";  // display only; matrix_data wins
    req.arch = kArch;
    req.mode = RequestMode::Run;
    req.kernel.k = k;
    req.deadline_ms = 30000;
    return req;
}

TEST(ServeService, StructuralTwinsSharePlanBitIdentically)
{
    auto base = testMatrix(21);
    auto twin = withOtherValues(*base, 777);

    ServiceConfig cfg;
    cfg.workers = 2;
    PlanService service(cfg);

    ServeReply r1 = service.call(runRequest(base, 1));
    ASSERT_EQ(r1.status, ServeStatus::Ok);
    EXPECT_EQ(r1.plan_source, "miss");

    ServeReply r2 = service.call(runRequest(twin, 2));
    ASSERT_EQ(r2.status, ServeStatus::Ok);
    EXPECT_EQ(r2.plan_source, "hit")
        << "same structure, different values must reuse the plan";

    // The cached-plan result must match a from-scratch serial reference
    // bit for bit — plan reuse may never change a single output bit.
    KernelConfig kernel;
    kernel.k = 8;
    EXPECT_EQ(r1.checksum, expectedOkChecksum(*base, kernel, 42));
    EXPECT_EQ(r2.checksum, expectedOkChecksum(*twin, kernel, 42));
    EXPECT_EQ(service.cache().stats().hits, 1u);
    service.stop();
}

TEST(ServeService, NearCollisionDoesNotSharePlans)
{
    // Identical geometry and per-panel histogram, one coordinate moved:
    // must be a second miss, never a hit.
    auto a = std::make_shared<CooMatrix>(512, 512);
    auto b = std::make_shared<CooMatrix>(512, 512);
    Rng rng(4);
    for (int i = 0; i < 400; ++i) {
        Index r = static_cast<Index>(rng.nextBounded(512));
        Index c = static_cast<Index>(rng.nextBounded(510));
        a->push(r, c, 1.0f);
        b->push(r, i == 0 ? c + 1 : c, 1.0f);
    }
    ServiceConfig cfg;
    cfg.workers = 2;
    PlanService service(cfg);
    ServeReply r1 = service.call(runRequest(a, 1));
    ServeReply r2 = service.call(runRequest(b, 2));
    EXPECT_EQ(r1.status, ServeStatus::Ok);
    EXPECT_EQ(r2.status, ServeStatus::Ok);
    EXPECT_EQ(r2.plan_source, "miss")
        << "near-collision structures must not share a plan";
    EXPECT_EQ(service.cache().stats().hits, 0u);
    service.stop();
}

TEST(ServeService, PlanModeCachedEqualsUncached)
{
    auto m = testMatrix(33);
    auto plan_req = [&](uint64_t id) {
        ServeRequest req = runRequest(m, id);
        req.mode = RequestMode::Plan;
        return req;
    };

    ServiceConfig cached_cfg;
    cached_cfg.workers = 1;
    PlanService cached(cached_cfg);
    ServiceConfig bypass_cfg;
    bypass_cfg.workers = 1;
    bypass_cfg.cache_capacity = 0;
    PlanService bypass(bypass_cfg);

    ServeReply cold = cached.call(plan_req(1));
    ServeReply warm = cached.call(plan_req(2));
    ServeReply fresh = bypass.call(plan_req(3));
    ASSERT_EQ(cold.status, ServeStatus::Ok);
    ASSERT_EQ(warm.status, ServeStatus::Ok);
    ASSERT_EQ(fresh.status, ServeStatus::Ok);
    EXPECT_EQ(warm.plan_source, "hit");
    EXPECT_EQ(fresh.plan_source, "bypass");
    EXPECT_EQ(cold.checksum, warm.checksum);
    EXPECT_EQ(cold.checksum, fresh.checksum)
        << "a cached plan must be bitwise the plan a fresh build makes";
    EXPECT_NE(cold.checksum, 0u);
    cached.stop();
    bypass.stop();
}

TEST(ServeService, ShedsSynchronouslyWhenQueueFull)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 0;  // reject everything
    PlanService service(cfg);
    ServeReply reply = service.call(runRequest(testMatrix(1), 1));
    EXPECT_EQ(reply.status, ServeStatus::Shed);
    EXPECT_EQ(reply.detail, "queue-full");
    EXPECT_EQ(service.stats().shed, 1u);
    service.stop();
}

TEST(ServeService, WedgedBuildDegradesThroughWatchdog)
{
    auto m = testMatrix(55);
    ServiceConfig cfg;
    cfg.workers = 1;
    // Wide enough that the held-back degrade budget (1 - plan fraction)
    // absorbs scheduler noise when the whole suite runs in parallel.
    cfg.default_deadline_ms = 2000;
    cfg.chaos.seed = 1;  // enabled, but only wedges:
    cfg.chaos.p_wedge = 1.0;
    cfg.chaos.p_kill_class = 0;
    cfg.chaos.p_corrupt_cache = 0;
    cfg.chaos.p_flaky_build = 0;
    PlanService service(cfg);

    ServeRequest req = runRequest(m, 1);
    req.deadline_ms = 2000;
    ServeReply reply = service.call(req);
    EXPECT_EQ(reply.status, ServeStatus::Degraded)
        << "a wedged plan stage must degrade, not hang or die";
    EXPECT_EQ(reply.plan_source, "degraded");
    EXPECT_EQ(reply.detail, "watchdog");
    EXPECT_GE(service.stats().watchdog_trips, 1u);

    KernelConfig kernel;
    kernel.k = 8;
    EXPECT_EQ(reply.checksum, expectedDegradedChecksum(*m, kernel, 42))
        << "degraded output must match the all-cold serial reference";
    service.stop();
}

TEST(ServeService, WedgeWithNoFallbackBudgetTimesOut)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.plan_budget_fraction = 1.0;  // no held-back degrade budget
    cfg.chaos.seed = 1;
    cfg.chaos.p_wedge = 1.0;
    cfg.chaos.p_kill_class = 0;
    cfg.chaos.p_corrupt_cache = 0;
    cfg.chaos.p_flaky_build = 0;
    PlanService service(cfg);

    ServeRequest req = runRequest(testMatrix(55), 1);
    req.deadline_ms = 150;
    ServeReply reply = service.call(req);
    EXPECT_EQ(reply.status, ServeStatus::Timeout);
    EXPECT_GT(reply.latency_ms, 100) << "must have waited for the trip";
    service.stop();
}

TEST(ServeService, FlakyBuildsRetryWithBackoff)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.chaos.seed = 1;
    cfg.chaos.p_flaky_build = 1.0;  // first build attempt always fails
    cfg.chaos.p_wedge = 0;
    cfg.chaos.p_kill_class = 0;
    cfg.chaos.p_corrupt_cache = 0;
    PlanService service(cfg);

    ServeReply reply = service.call(runRequest(testMatrix(66), 1));
    EXPECT_EQ(reply.status, ServeStatus::Ok);
    EXPECT_GE(reply.retries, 1u);
    EXPECT_GE(service.stats().retries, 1u);
    service.stop();
}

TEST(ServeService, BadInputsErrorCleanly)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    ServeRequest req;
    req.id = 1;
    req.matrix = "@no-such-suite-matrix";
    ServeReply reply = service.call(req);
    EXPECT_EQ(reply.status, ServeStatus::Error);
    EXPECT_EQ(reply.detail, "bad-input");
    // Junk after a known name is rejected too, before it can reach the
    // calibration memo or the plan cache under a key of its own; a scale
    // outside Table IV is an error, not the factory's abort.
    uint64_t id = 2;
    for (const char* arch : {"warp-drive:9000", "spade-sextans:4x",
                             "spade-sextans:4:junk", "spade-sextans:3"}) {
        ServeRequest bad = runRequest(testMatrix(1), id++);
        bad.arch = arch;
        const ServeReply r = service.call(bad);
        EXPECT_EQ(r.status, ServeStatus::Error) << arch;
        EXPECT_EQ(r.detail, "bad-input") << arch;
    }
    service.stop();
}

TEST(ServeService, ArchSpellingsShareOnePlan)
{
    // Three spellings of one architecture: one plan-cache entry, one
    // session pin.
    auto m = testMatrix(34);
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    const char* spellings[] = {"spade-sextans:4", "spade-sextans",
                               "SPADE-Sextans:4"};
    const char* sources[] = {"miss", "hit", "hit"};
    uint64_t checksum = 0;
    for (uint64_t i = 0; i < 3; ++i) {
        ServeRequest req = runRequest(m, i + 1);
        req.mode = RequestMode::Plan;
        req.arch = spellings[i];
        const ServeReply r = service.call(req);
        ASSERT_EQ(r.status, ServeStatus::Ok) << spellings[i];
        EXPECT_EQ(r.plan_source, sources[i]) << spellings[i];
        if (i == 0)
            checksum = r.checksum;
        EXPECT_EQ(r.checksum, checksum) << spellings[i];
    }

    ServeRequest open = runRequest(m, 4);
    open.mode = RequestMode::Plan;
    open.session = "spelled";
    open.arch = "spade-sextans:4";
    ASSERT_EQ(service.call(open).status, ServeStatus::Ok);
    ServeRequest same = runRequest(nullptr, 5);
    same.matrix.clear();
    same.session = "spelled";
    same.arch = "spade-sextans";
    const ServeReply rs = service.call(same);
    EXPECT_EQ(rs.status, ServeStatus::Ok) << rs.detail;
    EXPECT_EQ(rs.plan_source, "session");
    KernelConfig k8;
    k8.k = 8;
    EXPECT_EQ(rs.checksum, expectedOkChecksum(*m, k8, 42));
    ServeRequest other = same;
    other.id = 6;
    other.arch = "piuma";
    const ServeReply ro = service.call(other);
    EXPECT_EQ(ro.status, ServeStatus::Error);
    EXPECT_EQ(ro.detail, "session-arch-mismatch");
    service.stop();
}

TEST(ServeService, TransitionsLandInMetricsRegistry)
{
    MetricsRegistry& reg = MetricsRegistry::global();
    uint64_t ok_before = reg.counter("serve.ok").value();
    uint64_t requests_before = reg.counter("serve.requests").value();
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    ASSERT_EQ(service.call(runRequest(testMatrix(77), 1)).status,
              ServeStatus::Ok);
    EXPECT_EQ(reg.counter("serve.ok").value(), ok_before + 1);
    EXPECT_EQ(reg.counter("serve.requests").value(), requests_before + 1);
    service.stop();
}

TEST(ServeTenantMetrics, PerTenantLatencyHistogramsRecorded)
{
    MetricsRegistry& reg = MetricsRegistry::global();
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);

    auto tenant_req = [&](uint64_t id, const std::string& tenant) {
        ServeRequest req = runRequest(testMatrix(55), id);
        req.mode = RequestMode::Plan;
        req.tenant = tenant;
        return req;
    };
    const uint64_t alice_before =
        tenantLatencyHistogram(reg, "alice", cfg.default_deadline_ms)
            .histogram()
            .total();
    ASSERT_EQ(service.call(tenant_req(1, "alice")).status, ServeStatus::Ok);
    ASSERT_EQ(service.call(tenant_req(2, "alice")).status, ServeStatus::Ok);
    // Tenant ids are sanitized into bounded metric labels.
    ASSERT_EQ(service.call(tenant_req(3, "bob/9")).status, ServeStatus::Ok);
    service.stop();

    EXPECT_EQ(tenantLatencyHistogram(reg, "alice", cfg.default_deadline_ms)
                  .histogram()
                  .total(),
              alice_before + 2);
    EXPECT_GE(tenantLatencyHistogram(reg, "bob_9", cfg.default_deadline_ms)
                  .histogram()
                  .total(),
              1u);

    // The JSON snapshot carries the SLO quantiles per tenant bucket.
    std::ostringstream json;
    reg.writeJson(json);
    const std::string s = json.str();
    EXPECT_NE(s.find("serve.tenant.alice.latency_ms"), std::string::npos);
    EXPECT_NE(s.find("serve.tenant.bob_9.latency_ms"), std::string::npos);
    EXPECT_NE(s.find("\"p50\""), std::string::npos);
    EXPECT_NE(s.find("\"p99\""), std::string::npos);
    EXPECT_NE(s.find("\"scale\":\"log\""), std::string::npos);
}

TEST(ServeTenantMetrics, LatencyQuantilesWithinFivePercentOfSamples)
{
    // Latencies spread over 0.05 ms - 5 s under bench_serving's 60 s
    // deadline: log-uniform, and a bulk near 40 ms with a slow tail.
    // p50/p90/p99 must stay within 5% of the exact nearest-rank sample
    // quantiles.
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        MetricsRegistry reg;
        HistogramMetric& h = tenantLatencyHistogram(reg, "t", 60000);
        Rng rng(seed);
        std::vector<double> xs(3000);
        for (double& x : xs) {
            const bool bulk = seed % 2 == 0 && rng.nextBool(0.95);
            x = bulk ? 40.0 * std::exp(0.3 * rng.nextGaussian())
                     : 0.05 * std::pow(1e5, rng.nextDouble());
            x = std::clamp(x, 0.05, 5000.0);
            h.observe(x);
        }
        std::sort(xs.begin(), xs.end());
        const Histogram hist = h.histogram();
        for (double q : {0.5, 0.9, 0.99}) {
            const double exact =
                xs[size_t(std::ceil(q * double(xs.size()))) - 1];
            EXPECT_NEAR(hist.quantile(q), exact, 0.05 * exact)
                << "seed " << seed << " q " << q;
        }
    }
}

TEST(IncrementalServe, DeltaInvalidatesExactlyTheAffectedPlan)
{
    // Two tenants with distinct structures are warm in the plan cache; a
    // structural delta to one matrix must miss on its next request while
    // the other tenant's plan — and the pre-delta structure's plan —
    // stay warm (docs/INCREMENTAL.md).
    auto ma = testMatrix(71);
    auto mb = testMatrix(72);
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    auto plan_req = [&](std::shared_ptr<const CooMatrix> m, uint64_t id) {
        ServeRequest req = runRequest(std::move(m), id);
        req.mode = RequestMode::Plan;
        return req;
    };

    ASSERT_EQ(service.call(plan_req(ma, 1)).plan_source, "miss");
    ASSERT_EQ(service.call(plan_req(mb, 2)).plan_source, "miss");
    ASSERT_EQ(service.call(plan_req(ma, 3)).plan_source, "hit");
    ASSERT_EQ(service.call(plan_req(mb, 4)).plan_source, "hit");

    DeltaBatch d = genDeltaBatch(*ma, 6, 6, 13);
    auto patched = std::make_shared<CooMatrix>(applyDeltaToCoo(*ma, d));
    EXPECT_EQ(service.call(plan_req(patched, 5)).plan_source, "miss")
        << "a structural delta must change the plan-cache key";
    EXPECT_EQ(service.call(plan_req(mb, 6)).plan_source, "hit")
        << "an unrelated tenant's plan must stay warm across the delta";
    EXPECT_EQ(service.call(plan_req(ma, 7)).plan_source, "hit")
        << "the pre-delta structure itself is untouched";
    EXPECT_EQ(service.call(plan_req(patched, 8)).plan_source, "hit");
    service.stop();
}

// --------------------------------------------------------------- chaos

TEST(ServeChaos, SixteenClientsAllTerminalAndBitIdentical)
{
    auto m1 = testMatrix(101);
    auto m2 = testMatrix(202);
    KernelConfig kernel;
    kernel.k = 8;
    const uint64_t ok1 = expectedOkChecksum(*m1, kernel, 42);
    const uint64_t ok2 = expectedOkChecksum(*m2, kernel, 42);
    const uint64_t deg1 = expectedDegradedChecksum(*m1, kernel, 42);
    const uint64_t deg2 = expectedDegradedChecksum(*m2, kernel, 42);

    ServiceConfig cfg;
    cfg.workers = 8;
    cfg.queue_capacity = 16;
    cfg.default_deadline_ms = 2000;
    cfg.chaos.seed = 0xC0FFEE;  // all chaos knobs at their defaults
    PlanService service(cfg);

    constexpr int kClients = 16;
    constexpr int kPerClient = 4;
    std::atomic<int> terminal{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                bool first = (c % 2 == 0);
                ServeRequest req = runRequest(
                    first ? m1 : m2,
                    static_cast<uint64_t>(c * kPerClient + i + 1));
                ServeReply reply = service.call(req);
                switch (reply.status) {
                case ServeStatus::Ok:
                    if (reply.checksum != (first ? ok1 : ok2))
                        mismatches.fetch_add(1);
                    terminal.fetch_add(1);
                    break;
                case ServeStatus::Degraded:
                    if (reply.checksum != (first ? deg1 : deg2))
                        mismatches.fetch_add(1);
                    terminal.fetch_add(1);
                    break;
                case ServeStatus::Shed:
                case ServeStatus::Timeout:
                case ServeStatus::Error:
                    terminal.fetch_add(1);
                    break;
                }
            }
        });
    }
    for (auto& t : clients)
        t.join();
    service.drain();

    EXPECT_EQ(terminal.load(), kClients * kPerClient)
        << "every chaos request must reach a terminal state";
    EXPECT_EQ(mismatches.load(), 0)
        << "chaos must never corrupt a served result";
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.terminal(), static_cast<uint64_t>(kClients * kPerClient));
    EXPECT_EQ(stats.error, 0u) << "chaos inputs are all valid";
    service.stop();
}

TEST(ServeChaos, StopWithInFlightRequestsNeverHangs)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queue_capacity = 64;
    PlanService service(cfg);
    std::atomic<int> replies{0};
    auto m = testMatrix(88);
    for (int i = 0; i < 8; ++i)
        service.submit(runRequest(m, static_cast<uint64_t>(i + 1)),
                       [&](const ServeReply&) { replies.fetch_add(1); });
    service.stop();  // must drain the accepted backlog, then join
    EXPECT_EQ(replies.load(), 8)
        << "stop() drains accepted requests instead of dropping them";
    // Submits after stop shed synchronously.
    ServeReply late = service.call(runRequest(m, 99));
    EXPECT_EQ(late.status, ServeStatus::Shed);
    EXPECT_EQ(late.detail, "closed");
}

// ------------------------------------------------------------- sessions

/** A Plan request that names a session (creates it on first use). */
ServeRequest
sessionPlan(std::shared_ptr<const CooMatrix> m, uint64_t id,
            const std::string& session)
{
    ServeRequest req = runRequest(std::move(m), id);
    req.mode = RequestMode::Plan;
    req.session = session;
    return req;
}

/** A Run request against an existing session (no matrix needed). */
ServeRequest
sessionRun(uint64_t id, const std::string& session, uint64_t seed)
{
    ServeRequest req;
    req.id = id;
    req.arch = kArch;
    req.mode = RequestMode::Run;
    req.kernel.k = 8;
    req.deadline_ms = 30000;
    req.session = session;
    req.seed = seed;
    return req;
}

/** A Delta request carrying @p frame for @p session. */
ServeRequest
deltaRequest(uint64_t id, const std::string& session, DeltaFrame frame)
{
    ServeRequest req;
    req.id = id;
    req.arch = kArch;
    req.mode = RequestMode::Delta;
    req.deadline_ms = 30000;
    req.session = session;
    req.delta = std::make_shared<const DeltaFrame>(std::move(frame));
    return req;
}

TEST(ServeDelta, SessionDeltaPatchesPlanBitIdentically)
{
    auto m = testMatrix(41);
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);

    ServeReply created = service.call(sessionPlan(m, 1, "s1"));
    ASSERT_EQ(created.status, ServeStatus::Ok);
    EXPECT_EQ(created.plan_source, "session");

    DeltaBatch d = genDeltaBatch(*m, 6, 6, 13);
    DeltaFrame frame;
    frame.batch = d;
    ServeReply patched = service.call(deltaRequest(2, "s1", frame));
    ASSERT_EQ(patched.status, ServeStatus::Ok);
    EXPECT_EQ(patched.plan_source, "delta-patch");

    // The patched live state must be indistinguishable from a
    // from-scratch build over the patched matrix.
    service.drain();
    auto live = service.sessionState("default", "s1");
    ASSERT_TRUE(live);
    CooMatrix patched_coo = applyDeltaToCoo(*m, d);
    HotTilesOptions opts;
    opts.kernel.k = 8;
    opts.build_formats = true;
    HotTiles fresh(testArch(), patched_coo, opts);
    EXPECT_TRUE(samePreprocessedState(*live, fresh))
        << "delta patch must equal the from-scratch rebuild";

    // The delta republished the plan under the post-delta fingerprint:
    // a stateless Plan request for the patched structure hits the cache.
    auto patched_m = std::make_shared<CooMatrix>(patched_coo);
    ServeRequest stateless = runRequest(patched_m, 3);
    stateless.mode = RequestMode::Plan;
    EXPECT_EQ(service.call(stateless).plan_source, "hit")
        << "the patched plan must be cached under its new key";

    // And a session Run matches the serial reference on the patched
    // matrix bit for bit.
    ServeReply run = service.call(sessionRun(4, "s1", 5));
    ASSERT_EQ(run.status, ServeStatus::Ok);
    EXPECT_EQ(run.plan_source, "session");
    KernelConfig k8;
    k8.k = 8;
    EXPECT_EQ(run.checksum, expectedOkChecksum(patched_coo, k8, 5));

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.deltas, 1u);
    EXPECT_EQ(stats.sessions, 1u);
    service.stop();
}

TEST(ServeDelta, ValueOnlyFastPathSkipsReplanning)
{
    auto m = testMatrix(42);
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    ASSERT_EQ(service.call(sessionPlan(m, 1, "v1")).status,
              ServeStatus::Ok);

    // Overwrite the first five stored values in place.
    ValueUpdateBatch u;
    for (size_t i = 0; i < 5; ++i)
        u.push(m->rowId(i), m->colId(i), static_cast<Value>(i) + 0.5f);
    DeltaFrame frame;
    frame.updates = u;
    ServeReply patched = service.call(deltaRequest(2, "v1", frame));
    ASSERT_EQ(patched.status, ServeStatus::Ok);
    EXPECT_EQ(patched.plan_source, "value-patch");

    ServeReply run = service.call(sessionRun(3, "v1", 7));
    ASSERT_EQ(run.status, ServeStatus::Ok);
    KernelConfig k8;
    k8.k = 8;
    EXPECT_EQ(run.checksum,
              expectedOkChecksum(applyValueUpdatesToCoo(*m, u), k8, 7));

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.value_patches, 5u);
    EXPECT_EQ(stats.deltas, 0u)
        << "a value-only frame must not take the structural path";

    // An empty frame is a no-op value patch, not an error.
    ServeReply noop = service.call(deltaRequest(4, "v1", DeltaFrame{}));
    EXPECT_EQ(noop.status, ServeStatus::Ok);
    EXPECT_EQ(noop.plan_source, "value-patch");
    service.stop();
}

TEST(ServeDelta, BadDeltaLeavesSessionUsable)
{
    auto m = testMatrix(43);
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    ASSERT_EQ(service.call(sessionPlan(m, 1, "b1")).status,
              ServeStatus::Ok);

    // Inserting an existing nonzero violates the DeltaBatch contract
    // and must fail cleanly without mutating the session.
    DeltaFrame bad;
    bad.batch.pushInsert(m->rowId(0), m->colId(0), 1.0f);
    ServeReply rejected = service.call(deltaRequest(2, "b1", bad));
    EXPECT_EQ(rejected.status, ServeStatus::Error);
    EXPECT_EQ(rejected.detail, "bad-delta");

    // A value update at an empty coordinate likewise (genDeltaBatch's
    // insert coordinates are guaranteed absent from the matrix).
    DeltaBatch d = genDeltaBatch(*m, 1, 0, 99);
    DeltaFrame bad_vals;
    bad_vals.updates.push(d.ins_rows[0], d.ins_cols[0], 2.0f);
    ServeReply rejected2 = service.call(deltaRequest(3, "b1", bad_vals));
    EXPECT_EQ(rejected2.status, ServeStatus::Error);
    EXPECT_EQ(rejected2.detail, "bad-values");

    // The session is untouched: still identical to a fresh build of the
    // original matrix, and still serving correct results.
    service.drain();
    auto live = service.sessionState("default", "b1");
    ASSERT_TRUE(live);
    HotTilesOptions opts;
    opts.kernel.k = 8;
    opts.build_formats = true;
    HotTiles fresh(testArch(), *m, opts);
    EXPECT_TRUE(samePreprocessedState(*live, fresh))
        << "a rejected delta must leave the session unmodified";

    DeltaBatch good = genDeltaBatch(*m, 4, 4, 17);
    DeltaFrame frame;
    frame.batch = good;
    ASSERT_EQ(service.call(deltaRequest(4, "b1", frame)).status,
              ServeStatus::Ok);
    ServeReply run = service.call(sessionRun(5, "b1", 9));
    ASSERT_EQ(run.status, ServeStatus::Ok);
    KernelConfig k8;
    k8.k = 8;
    EXPECT_EQ(run.checksum,
              expectedOkChecksum(applyDeltaToCoo(*m, good), k8, 9));
    service.stop();
}

/** Builds of the two worker formats and compiles so far, process-wide. */
std::tuple<uint64_t, uint64_t, uint64_t>
formatBuilds()
{
    MetricsRegistry& reg = MetricsRegistry::global();
    return {reg.timer("format.tiled_build").snapshot().count(),
            reg.timer("format.untiled_build").snapshot().count(),
            reg.timer("exec.native.compile").snapshot().count()};
}

TEST(ServeDelta, SessionRunExecutesTheSessionFormats)
{
    auto m = testMatrix(45);
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    ASSERT_EQ(service.call(sessionPlan(m, 1, "f1")).status,
              ServeStatus::Ok);
    KernelConfig k8;
    k8.k = 8;

    // A session Run executes the plan its HotTiles built once, and
    // after a structural delta and a value frame the plan they patched:
    // no Run builds a format or compiles.
    auto expectSessionRun = [&](uint64_t id, const CooMatrix& now) {
        const auto before = formatBuilds();
        ServeReply run = service.call(sessionRun(id, "f1", id));
        ASSERT_EQ(run.status, ServeStatus::Ok);
        EXPECT_EQ(formatBuilds(), before)
            << "a session Run must not rebuild or recompile the formats";
        EXPECT_EQ(run.checksum, expectedOkChecksum(now, k8, id));
    };
    expectSessionRun(2, *m);

    const DeltaBatch d = genDeltaBatch(*m, 6, 6, 23);
    DeltaFrame structural;
    structural.batch = d;
    ASSERT_EQ(service.call(deltaRequest(6, "f1", structural)).status,
              ServeStatus::Ok);
    const CooMatrix patched = applyDeltaToCoo(*m, d);
    expectSessionRun(7, patched);

    // Every 7th nonzero, cold and hot ones among them.
    DeltaFrame values;
    for (size_t i = 0; i < patched.nnz(); i += 7)
        values.updates.push(patched.rowId(i), patched.colId(i),
                            Value(i % 11) - 5.5f);
    {
        service.drain();
        const auto live = service.sessionState("default", "f1");
        ASSERT_TRUE(live);
        size_t cold = 0;
        for (size_t i = 0; i < values.updates.size(); ++i) {
            size_t tile = 0;
            live->grid().findNonzero(values.updates.rows[i],
                                     values.updates.cols[i], &tile);
            cold += !live->partition().is_hot[tile];
        }
        ASSERT_GT(cold, 0u);
        ASSERT_LT(cold, values.updates.size());
    }
    ASSERT_EQ(service.call(deltaRequest(8, "f1", values)).status,
              ServeStatus::Ok);
    expectSessionRun(9, applyValueUpdatesToCoo(patched, values.updates));

    // The probe is live: the first stateless Run of the matrix builds
    // both lists for its handle, and a second Run builds nothing.
    const auto unbuilt = formatBuilds();
    ServeReply stateless = service.call(runRequest(m, 4));
    ASSERT_EQ(stateless.status, ServeStatus::Ok);
    const auto first = formatBuilds();
    EXPECT_EQ(std::get<0>(first), std::get<0>(unbuilt) + 1);
    EXPECT_EQ(std::get<1>(first), std::get<1>(unbuilt) + 1);
    ServeReply again = service.call(runRequest(m, 5));
    ASSERT_EQ(again.status, ServeStatus::Ok);
    EXPECT_EQ(formatBuilds(), first)
        << "a second stateless Run must execute the resident formats";
    service.stop();
}

TEST(ServeDelta, SessionLimitsAndMismatchesError)
{
    auto m = testMatrix(44);
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.max_sessions = 1;
    PlanService service(cfg);
    ASSERT_EQ(service.call(sessionPlan(m, 1, "only")).status,
              ServeStatus::Ok);

    ServeReply overflow = service.call(sessionPlan(m, 2, "second"));
    EXPECT_EQ(overflow.status, ServeStatus::Error);
    EXPECT_EQ(overflow.detail, "session-limit");

    ServeRequest wrong_k = sessionRun(3, "only", 1);
    wrong_k.kernel.k = 16;
    ServeReply rk = service.call(wrong_k);
    EXPECT_EQ(rk.status, ServeStatus::Error);
    EXPECT_EQ(rk.detail, "session-kernel-mismatch");

    ServeRequest wrong_arch = sessionRun(4, "only", 1);
    wrong_arch.arch = "piuma";
    ServeReply ra = service.call(wrong_arch);
    EXPECT_EQ(ra.status, ServeStatus::Error);
    EXPECT_EQ(ra.detail, "session-arch-mismatch");

    DeltaFrame frame;
    frame.batch.pushDelete(m->rowId(0), m->colId(0));
    ServeReply ghost = service.call(deltaRequest(5, "ghost", frame));
    EXPECT_EQ(ghost.status, ServeStatus::Error);
    EXPECT_EQ(ghost.detail, "no-session");

    ServeRequest no_frame;
    no_frame.id = 6;
    no_frame.mode = RequestMode::Delta;
    no_frame.session = "only";
    no_frame.deadline_ms = 30000;
    ServeReply nf = service.call(no_frame);
    EXPECT_EQ(nf.status, ServeStatus::Error);
    EXPECT_EQ(nf.detail, "bad-delta");
    service.stop();

    ServiceConfig off;
    off.workers = 1;
    off.max_sessions = 0;
    PlanService disabled(off);
    ServeReply r = disabled.call(sessionPlan(m, 7, "any"));
    EXPECT_EQ(r.status, ServeStatus::Error);
    EXPECT_EQ(r.detail, "session-limit");
    disabled.stop();
}

// ----------------------------------------------------- resident handles

/** Process-wide counts of resident-store lookups and of the O(nnz)
 *  structures a lookup miss makes the service build. */
struct ResidentProbe
{
    uint64_t hit = 0, miss = 0, evict = 0;
    uint64_t fingerprints = 0, grids = 0, tiled = 0, untiled = 0;
};

ResidentProbe
residentProbe()
{
    MetricsRegistry& reg = MetricsRegistry::global();
    ResidentProbe p;
    p.hit = reg.counter("serve.resident.hit").value();
    p.miss = reg.counter("serve.resident.miss").value();
    p.evict = reg.counter("serve.resident.evict").value();
    p.fingerprints = reg.timer("serve.fingerprint").snapshot().count();
    p.grids = reg.timer("serve.tile_grid").snapshot().count();
    std::tie(p.tiled, p.untiled, std::ignore) = formatBuilds();
    return p;
}

/** Submit every request at once and wait for all their replies. */
std::vector<ServeReply>
callConcurrently(PlanService& service, std::vector<ServeRequest> reqs)
{
    std::mutex mu;
    std::condition_variable cv;
    std::vector<ServeReply> replies;
    const size_t n = reqs.size();
    for (ServeRequest& req : reqs)
        service.submit(std::move(req), [&](const ServeReply& r) {
            std::lock_guard<std::mutex> lock(mu);
            replies.push_back(r);
            cv.notify_all();
        });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return replies.size() == n; });
    return replies;
}

TEST(ServeResident, SecondRunOfAHandleBuildsNothing)
{
    auto m = testMatrix(61);
    const std::string path = testing::TempDir() + "/ht_resident_" +
                             std::to_string(::getpid()) + ".mtx";
    writeMatrixMarketFile(*testMatrix(62), path);
    const CooMatrix loaded = readMatrixMarketFile(path);

    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    ServeRequest wire = runRequest(nullptr, 3);
    wire.matrix = path;
    ASSERT_EQ(service.call(runRequest(m, 1)).status, ServeStatus::Ok);
    ASSERT_EQ(service.call(wire).status, ServeStatus::Ok);

    // In-process (pointer) and wire (path) handles alike: the second Run
    // finds the handle resident and neither fingerprints, tiles, loads
    // nor builds a worker format.
    KernelConfig k8;
    k8.k = 8;
    for (const auto& [req, matrix] :
         {std::pair<ServeRequest, const CooMatrix*>{runRequest(m, 2), m.get()},
          {wire, &loaded}}) {
        ServeRequest again = req;
        again.id += 10;
        again.seed = 7;  // another Din: no coalescing, a fresh execution
        const ResidentProbe before = residentProbe();
        ServeReply reply = service.call(again);
        const ResidentProbe after = residentProbe();
        ASSERT_EQ(reply.status, ServeStatus::Ok);
        EXPECT_EQ(reply.plan_source, "hit");
        EXPECT_EQ(after.hit, before.hit + 1);
        EXPECT_EQ(after.miss, before.miss);
        EXPECT_EQ(after.fingerprints, before.fingerprints);
        EXPECT_EQ(after.grids, before.grids);
        EXPECT_EQ(after.tiled, before.tiled);
        EXPECT_EQ(after.untiled, before.untiled);
        EXPECT_EQ(reply.checksum, expectedOkChecksum(*matrix, k8, 7));
    }
    service.stop();
    std::remove(path.c_str());
}

TEST(ServeResident, BudgetBelowOneGridEvictsAndRebuilds)
{
    auto a = testMatrix(63);
    auto b = testMatrix(64);
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.resident_budget_bytes = 4 * ResidentStore::kEntryBytes;
    // A tile grid alone holds a row, a column and a value per nonzero.
    ASSERT_GT(a->nnz() * (2 * sizeof(Index) + sizeof(Value)),
              cfg.resident_budget_bytes);
    PlanService service(cfg);
    const Gauge& bytes =
        MetricsRegistry::global().gauge("serve.resident_bytes");

    KernelConfig k8;
    k8.k = 8;
    const ResidentProbe start = residentProbe();
    const std::pair<uint64_t, std::shared_ptr<const CooMatrix>> order[] = {
        {1, a}, {2, b}, {3, a}};
    for (const auto& [id, m] : order) {
        ServeReply reply = service.call(runRequest(m, id));
        ASSERT_EQ(reply.status, ServeStatus::Ok);
        EXPECT_LE(bytes.value(), double(cfg.resident_budget_bytes));
        EXPECT_EQ(reply.checksum, expectedOkChecksum(*m, k8, 42))
            << "request " << id;
    }
    const ResidentProbe end = residentProbe();
    EXPECT_EQ(end.miss - start.miss, 3u)
        << "A's entry was evicted, so its second Run misses";
    EXPECT_GE(end.evict - start.evict, 2u);
    EXPECT_EQ(end.grids - start.grids, 3u) << "A's grid is rebuilt";
    service.stop();
}

TEST(ServeResident, NewMatrixAtAFreedAddressNeverMeetsTheStaleEntry)
{
    // X and Y live in the same storage, one after the other: the same
    // pointer handle, two different matrices of one shape.
    alignas(CooMatrix) unsigned char storage[sizeof(CooMatrix)];
    std::atomic<int> live{0};
    auto place = [&](uint64_t seed) {
        auto* p = new (storage)
            CooMatrix(genCommunity(768, 10.0, 32, 96, 0.8, seed));
        live.fetch_add(1);
        return std::shared_ptr<const CooMatrix>(
            p, [&live](const CooMatrix* q) {
                q->~CooMatrix();
                live.fetch_sub(1);
            });
    };
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    KernelConfig k8;
    k8.k = 8;

    std::shared_ptr<const CooMatrix> x = place(65);
    const uint64_t x_want = expectedOkChecksum(*x, k8, 42);
    ServeReply rx = service.call(runRequest(x, 1));
    ASSERT_EQ(rx.status, ServeStatus::Ok);
    EXPECT_EQ(rx.checksum, x_want);
    const void* addr = x.get();
    x.reset();
    // The worker drops its copy of the request, the last owner of X,
    // just after the reply; only then is the storage free.
    for (int i = 0; i < 10000 && live.load() != 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(live.load(), 0) << "the service still holds X";

    std::shared_ptr<const CooMatrix> y = place(66);
    ASSERT_EQ(y.get(), addr);
    const ResidentProbe before = residentProbe();
    ServeReply ry = service.call(runRequest(y, 2));
    ASSERT_EQ(ry.status, ServeStatus::Ok);
    EXPECT_EQ(ry.plan_source, "miss") << "Y was keyed with X's fingerprint";
    EXPECT_EQ(residentProbe().miss, before.miss + 1);
    EXPECT_EQ(ry.checksum, expectedOkChecksum(*y, k8, 42));
    EXPECT_NE(ry.checksum, x_want);
    service.stop();
}

TEST(ServeResident, ConcurrentRunsOfANewHandleBuildItsGridOnce)
{
    auto m = testMatrix(67);
    ServiceConfig cfg;
    cfg.workers = 8;
    cfg.coalesce_runs = false;  // eight real Runs, not one fanned out
    PlanService service(cfg);

    // The reference first: it builds formats of its own, and it
    // calibrates the architecture (a process-wide memo whose simulations
    // build work lists too) before the service's first request would.
    KernelConfig k8;
    k8.k = 8;
    const uint64_t want = expectedOkChecksum(*m, k8, 42);

    std::vector<ServeRequest> reqs;
    for (uint64_t id = 1; id <= 8; ++id)
        reqs.push_back(runRequest(m, id));
    const ResidentProbe before = residentProbe();
    const std::vector<ServeReply> replies =
        callConcurrently(service, std::move(reqs));
    const ResidentProbe after = residentProbe();

    EXPECT_EQ(after.miss - before.miss, 1u);
    EXPECT_EQ(after.hit - before.hit, 7u);
    EXPECT_EQ(after.fingerprints - before.fingerprints, 1u);
    EXPECT_EQ(after.grids - before.grids, 1u);
    EXPECT_EQ(after.tiled - before.tiled, 1u);
    EXPECT_EQ(after.untiled - before.untiled, 1u);
    ASSERT_EQ(replies.size(), 8u);
    for (const ServeReply& r : replies) {
        EXPECT_EQ(r.status, ServeStatus::Ok);
        EXPECT_EQ(r.checksum, want) << "request " << r.id;
    }
    service.stop();
}

TEST(ServeResident, FormatsAreReusedOnlyForTheSamePartition)
{
    auto m = testMatrix(68);
    KernelConfig k8;
    k8.k = 8;
    KernelConfig k16;
    k16.k = 16;
    {
        HotTilesOptions opts;
        opts.kernel = k8;
        opts.build_formats = false;
        const HotTiles ht(testArch(), *m, opts);
        ASSERT_FALSE(ht.partition().hotTiles().empty())
            << "an all-cold plan could not tell the partitions apart";
    }
    ServiceConfig cfg;
    cfg.workers = 1;
    // A miss with less than 10 s left degrades at once, all cold.
    cfg.fresh_floor_ms = 10000;
    cfg.chaos.seed = 3;  // every request corrupts a cached plan first
    cfg.chaos.p_corrupt_cache = 1.0;
    cfg.chaos.p_kill_class = 0;
    cfg.chaos.p_wedge = 0;
    cfg.chaos.p_flaky_build = 0;
    PlanService service(cfg);

    ServeReply r1 = service.call(runRequest(m, 1));
    ASSERT_EQ(r1.status, ServeStatus::Ok);
    EXPECT_EQ(r1.plan_source, "miss");

    // The corrupted plan is dropped and rebuilt with the same is_hot, so
    // the resident formats serve it.
    ResidentProbe before = residentProbe();
    ServeReply r2 = service.call(runRequest(m, 2));
    ResidentProbe after = residentProbe();
    ASSERT_EQ(r2.status, ServeStatus::Ok);
    EXPECT_EQ(r2.plan_source, "corrupt");
    EXPECT_EQ(after.tiled, before.tiled);
    EXPECT_EQ(after.untiled, before.untiled);
    EXPECT_EQ(r2.checksum, expectedOkChecksum(*m, k8, 42));

    // Another K misses under deadline pressure and runs all cold on the
    // same grid: another is_hot, so the formats are rebuilt.
    ServeRequest cold = runRequest(m, 3, 16);
    cold.deadline_ms = 5000;
    before = residentProbe();
    ServeReply r3 = service.call(cold);
    after = residentProbe();
    ASSERT_EQ(r3.status, ServeStatus::Degraded);
    EXPECT_EQ(after.grids, before.grids);
    EXPECT_EQ(after.tiled, before.tiled + 1);
    EXPECT_EQ(after.untiled, before.untiled + 1);
    EXPECT_EQ(r3.checksum, expectedDegradedChecksum(*m, k16, 42));

    // Back on the (again corrupted, again rebuilt) plan: rebuilt to match.
    before = residentProbe();
    ServeReply r4 = service.call(runRequest(m, 4));
    after = residentProbe();
    ASSERT_EQ(r4.status, ServeStatus::Ok);
    EXPECT_EQ(r4.plan_source, "corrupt");
    EXPECT_EQ(after.tiled, before.tiled + 1);
    EXPECT_EQ(after.untiled, before.untiled + 1);
    EXPECT_EQ(r4.checksum, expectedOkChecksum(*m, k8, 42));
    service.stop();
}

// ----------------------------------------------------------- coalescing

TEST(ServeCoalesce, IdenticalConcurrentRunsBuildOnce)
{
    auto m = testMatrix(51);
    auto blocker_m = testMatrix(52);
    ServiceConfig cfg;
    cfg.workers = 1;  // serializes: twins pile up while the leader waits
    PlanService service(cfg);

    std::mutex mu;
    std::condition_variable cv;
    int pending = 0;
    std::vector<ServeReply> replies;
    // The blocker's reply runs on the only worker before it can pop the
    // leader twin, so holding it there until every twin is submitted
    // queues the leader and its five joiners before any of them runs.
    std::latch twins_queued(1);
    auto submit = [&](ServeRequest req) {
        {
            std::lock_guard<std::mutex> lock(mu);
            ++pending;
        }
        service.submit(std::move(req), [&](const ServeReply& r) {
            if (r.id >= 100)
                twins_queued.wait();
            std::lock_guard<std::mutex> lock(mu);
            replies.push_back(r);
            --pending;
            cv.notify_all();
        });
    };

    submit(runRequest(blocker_m, 100));
    const int kTwins = 6;
    for (int i = 0; i < kTwins; ++i)
        submit(runRequest(m, static_cast<uint64_t>(i + 1)));
    twins_queued.count_down();
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return pending == 0; });
    }

    KernelConfig k8;
    k8.k = 8;
    const uint64_t want = expectedOkChecksum(*m, k8, 42);
    int coalesced_flags = 0;
    for (const ServeReply& r : replies) {
        if (r.id >= 100)
            continue;  // the blocker
        EXPECT_EQ(r.status, ServeStatus::Ok);
        EXPECT_EQ(r.checksum, want)
            << "fanned-out replies must be bit-identical";
        if (r.coalesced)
            ++coalesced_flags;
    }
    EXPECT_EQ(coalesced_flags, kTwins - 1);
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kTwins - 1));
    EXPECT_EQ(stats.cache.misses, 2u)
        << "exactly one build for the twins (plus the blocker's)";
    EXPECT_EQ(stats.ok, static_cast<uint64_t>(kTwins + 1));
    service.stop();
}

TEST(ServeCoalesce, DisabledConfigNeverCoalesces)
{
    auto m = testMatrix(53);
    auto blocker_m = testMatrix(54);
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.coalesce_runs = false;
    PlanService service(cfg);

    std::mutex mu;
    std::condition_variable cv;
    int pending = 0;
    auto submit = [&](ServeRequest req) {
        {
            std::lock_guard<std::mutex> lock(mu);
            ++pending;
        }
        service.submit(std::move(req), [&](const ServeReply& r) {
            EXPECT_FALSE(r.coalesced);
            std::lock_guard<std::mutex> lock(mu);
            --pending;
            cv.notify_all();
        });
    };
    submit(runRequest(blocker_m, 100));
    for (int i = 0; i < 4; ++i)
        submit(runRequest(m, static_cast<uint64_t>(i + 1)));
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return pending == 0; });
    }
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.coalesced, 0u);
    // Twins behind the leader still reuse its plan — via the cache.
    EXPECT_EQ(stats.cache.misses, 2u);
    EXPECT_EQ(stats.cache.hits, 3u);
    service.stop();
}

TEST(ServeCoalesce, DifferentSeedsDoNotCoalesce)
{
    auto m = testMatrix(55);
    auto blocker_m = testMatrix(56);
    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);

    std::mutex mu;
    std::condition_variable cv;
    int pending = 0;
    std::vector<ServeReply> replies;
    auto submit = [&](ServeRequest req) {
        {
            std::lock_guard<std::mutex> lock(mu);
            ++pending;
        }
        service.submit(std::move(req), [&](const ServeReply& r) {
            std::lock_guard<std::mutex> lock(mu);
            replies.push_back(r);
            --pending;
            cv.notify_all();
        });
    };
    submit(runRequest(blocker_m, 100));
    for (int i = 0; i < 3; ++i) {
        ServeRequest req = runRequest(m, static_cast<uint64_t>(i + 1));
        req.seed = static_cast<uint64_t>(1000 + i);  // distinct Din
        submit(std::move(req));
    }
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return pending == 0; });
    }
    EXPECT_EQ(service.stats().coalesced, 0u)
        << "a different seed means a different Din: never coalesce";
    KernelConfig k8;
    k8.k = 8;
    for (const ServeReply& r : replies) {
        if (r.id >= 100)
            continue;
        ASSERT_EQ(r.status, ServeStatus::Ok);
        EXPECT_EQ(r.checksum,
                  expectedOkChecksum(*m, k8, 1000 + (r.id - 1)))
            << "each seed's run must match its own reference";
    }
    service.stop();
}

// ------------------------------------------------- daemon delta round trip

TEST(ServeDaemon, DeltaFramesRoundTripOverTheWire)
{
    // Drive the daemon loop end to end over in-memory streams: create a
    // session on a suite matrix, patch it with a wire-format delta, and
    // check the post-delta Run against the serial reference.
    CooMatrix base = makeSuiteMatrix("nd2");

    // Build the delta programmatically so the insert hits a guaranteed
    // empty coordinate and the update hits a real nonzero.
    DeltaBatch d = genDeltaBatch(base, 3, 3, 7);
    ValueUpdateBatch u;
    u.push(base.rowId(0), base.colId(0), 0.75f);
    ServeRequest wire_delta;
    wire_delta.id = 2;
    wire_delta.session = "d1";
    wire_delta.deadline_ms = 30000;
    auto frame = std::make_shared<DeltaFrame>();
    frame->batch = d;
    wire_delta.delta = frame;
    ServeRequest wire_update;
    wire_update.id = 3;
    wire_update.session = "d1";
    wire_update.deadline_ms = 30000;
    auto uframe = std::make_shared<DeltaFrame>();
    uframe->updates = u;
    wire_update.delta = uframe;

    std::stringstream in;
    in << encodeFrame("id=1 matrix=@nd2 session=d1 mode=plan k=8 "
                      "deadline_ms=30000")
       << encodeFrame(formatDeltaRequest(wire_delta))
       << encodeFrame(formatDeltaRequest(wire_update))
       << encodeFrame("id=4 session=d1 mode=run k=8 seed=11 "
                      "deadline_ms=30000")
       << encodeFrame("cmd=shutdown");

    ServiceConfig cfg;
    cfg.workers = 1;
    PlanService service(cfg);
    std::ostringstream out;
    EXPECT_EQ(runServeLoop(in, out, service), 4u);
    service.stop();

    // Every reply is OK, and the final Run checksum equals the serial
    // reference over the patched matrix.
    std::map<uint64_t, std::string> by_id;
    {
        std::istringstream replies(out.str());
        std::string payload;
        while (readFrame(replies, payload)) {
            unsigned long long id = 0;
            std::sscanf(payload.c_str(), "id=%llu", &id);
            by_id[id] = payload;
        }
    }
    ASSERT_EQ(by_id.size(), 4u);
    for (const auto& [id, payload] : by_id)
        EXPECT_NE(payload.find("status=OK"), std::string::npos)
            << "id " << id << ": " << payload;
    EXPECT_NE(by_id[2].find("plan_source=delta-patch"), std::string::npos);
    EXPECT_NE(by_id[3].find("plan_source=value-patch"), std::string::npos);

    CooMatrix patched = applyValueUpdatesToCoo(applyDeltaToCoo(base, d), u);
    KernelConfig k8;
    k8.k = 8;
    char want[32];
    std::snprintf(want, sizeof want, "checksum=%016llx",
                  static_cast<unsigned long long>(
                      expectedOkChecksum(patched, k8, 11)));
    EXPECT_NE(by_id[4].find(want), std::string::npos)
        << "wire-patched session must serve the reference checksum";
}

} // namespace
} // namespace hottiles::serve
