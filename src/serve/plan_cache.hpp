#pragma once

/**
 * @file
 * The cross-request partition-plan cache of the serving layer
 * (docs/SERVING.md).  Where the simulator's WorkListCache memoizes
 * simulation setup *within* one evaluateMatrix call, this cache
 * memoizes the expensive scan -> model -> partition pipeline *across*
 * requests keyed by structural fingerprint (serve/fingerprint.hpp):
 *
 *   - bounded capacity with LRU eviction (entries are shared_ptr, so a
 *     plan handed to an in-flight request survives its own eviction);
 *   - single-flight deduplication: concurrent misses on one key build
 *     once — the first requester runs the builder outside the lock, the
 *     rest block and share the published plan;
 *   - every entry carries a payload checksum, validated on every hit; a
 *     corrupted entry (the chaos mode flips bits at runtime) is dropped
 *     and rebuilt instead of being served — detection, not prevention;
 *   - capacity 0 disables caching entirely (every lookup builds), which
 *     is the cold baseline of bench_serving.
 *
 * Thread-safety: all public methods are safe to call concurrently.
 * Builder exceptions propagate to the builder; blocked waiters then
 * retry the slot (one of them becomes the next builder).
 */

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/fingerprint.hpp"

namespace hottiles {
class Rng;
}

namespace hottiles::serve {

/** Everything a plan reuse needs that does not depend on values. */
struct CachedPlan
{
    std::vector<uint8_t> is_hot;  //!< per grid-tile hot/cold assignment
    bool serial = false;          //!< worker classes run serially
    double predicted_cycles = 0;  //!< model-predicted runtime
    std::string heuristic;        //!< winning heuristic name
    double hot_share_hint = 0;    //!< model hot share for executor split
    uint64_t checksum = 0;        //!< payloadChecksum() at publish time

    /** Checksum over every payload field (is_hot bytes included). */
    uint64_t payloadChecksum() const;
};

/** What a lookup did (feeds the serve.cache.* metrics). */
enum class CacheOutcome
{
    Hit,          //!< served a published, checksum-valid entry
    Miss,         //!< built fresh (first requester of the key)
    SharedBuild,  //!< blocked on a concurrent builder and shared its plan
    Corrupt,      //!< entry failed validation; dropped and rebuilt
    Bypass,       //!< capacity 0: built without touching the cache
};

const char* cacheOutcomeName(CacheOutcome o);

/** Aggregate cache statistics (monotonic). */
struct PlanCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t shared_builds = 0;
    uint64_t evictions = 0;
    uint64_t corrupt_dropped = 0;
    uint64_t puts = 0;  //!< plans published directly (delta patching)
};

class PlanCache
{
  public:
    using Builder = std::function<CachedPlan()>;

    /** @p capacity = max resident plans; 0 disables caching. */
    explicit PlanCache(size_t capacity);

    /**
     * Return the plan for @p key, building it with @p build on a miss.
     * Never returns null; rethrows the builder's exception to the
     * builder (waiters retry and may become builders themselves).
     */
    std::shared_ptr<const CachedPlan> getOrBuild(const PlanKey& key,
                                                 const Builder& build,
                                                 CacheOutcome* outcome);

    /**
     * Publish @p plan under @p key directly (its checksum is stamped
     * here) — how a serve-session delta patches the cache in place
     * instead of invalidating and rebuilding: the patched plan lands
     * under the post-delta fingerprint before any request asks for it.
     * Replaces a published entry for the key; a key some builder
     * currently owns is left alone (the builder publishes an equivalent
     * plan).  No-op at capacity 0.
     */
    void put(const PlanKey& key, CachedPlan plan);

    /** Resident (published) plans. */
    size_t size() const;
    size_t capacity() const { return capacity_; }
    PlanCacheStats stats() const;

    /** Drop every published entry (building slots finish unaffected). */
    void clear();

    /**
     * Chaos hook: clone one seeded-randomly-chosen resident entry, flip
     * one bit of its is_hot payload, and republish the clone without
     * updating its checksum — the next lookup must detect and drop it.
     * Cloning (rather than mutating in place) keeps plans already handed
     * out immutable.  Returns false when the cache is empty.
     */
    bool corruptOneEntry(Rng& rng);

  private:
    struct Slot;

    const size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<PlanKey, std::shared_ptr<Slot>> slots_;
    std::list<PlanKey> lru_;  //!< front = most recent; published keys only
    PlanCacheStats stats_;

    void touchLocked(const PlanKey& key);
    void evictLocked();
};

} // namespace hottiles::serve
