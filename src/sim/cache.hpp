#pragma once

/**
 * @file
 * Set-associative LRU cache at line granularity.  The SPADE PEs read
 * the dense input through a private L1 (Fig 2(a)); the analytical model
 * deliberately ignores this reuse (§IV-C), so the simulator modeling it
 * is what produces the paper's ColdOnly prediction-error signature
 * (Fig 17).  Also models the much smaller PIUMA MTP caches.
 */

#include <cstdint>
#include <vector>

namespace hottiles {

/**
 * Line-granular set-associative cache with true-LRU replacement.  Each
 * way carries the access count of its last use: a hit rewrites that one
 * stamp, a miss refills the way with the oldest stamp.  Empty ways
 * carry stamp 0 and a tag no line id takes, so a miss fills them first
 * and the hit/miss sequence is that of ways kept in recency order.
 */
class Cache
{
  public:
    /**
     * @param size_bytes  total capacity (rounded down to full sets)
     * @param ways        associativity
     * @param line_bytes  line size
     */
    Cache(uint64_t size_bytes, uint32_t ways, uint32_t line_bytes = 64);

    /** The set count of a cache of this geometry (at least 1). */
    static uint32_t setsFor(uint64_t size_bytes, uint32_t ways,
                            uint32_t line_bytes);

    /**
     * Access the line identified by @p line_id (an abstract line index,
     * not a byte address, below UINT64_MAX).  Returns true on hit; on
     * miss the line is inserted, evicting the LRU way.
     */
    bool
    access(uint64_t line_id)
    {
        const uint64_t set = pow2_sets_ ? line_id & (num_sets_ - 1)
                                        : line_id % num_sets_;
        Way* ways = ways_.data() + set * num_ways_;
        ++clock_;
        uint32_t victim = 0;
        for (uint32_t w = 0; w < num_ways_; ++w) {
            if (ways[w].tag == line_id) {
                ways[w].last_use = clock_;
                ++hits_;
                return true;
            }
            if (ways[w].last_use < ways[victim].last_use)
                victim = w;
        }
        ways[victim] = {line_id, clock_};
        ++misses_;
        return false;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    double
    hitRate() const
    {
        uint64_t n = hits_ + misses_;
        return n ? double(hits_) / double(n) : 0.0;
    }

    uint32_t numSets() const { return num_sets_; }
    uint32_t ways() const { return num_ways_; }

    /** Drop all contents and statistics. */
    void reset();

  private:
    struct Way
    {
        uint64_t tag;
        uint64_t last_use;  //!< access count at the last use; 0 = empty
    };

    uint32_t num_ways_;
    uint32_t num_sets_;
    bool pow2_sets_;
    std::vector<Way> ways_;  //!< ways_[set * num_ways_ + way]
    uint64_t clock_ = 0;     //!< accesses so far
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace hottiles
