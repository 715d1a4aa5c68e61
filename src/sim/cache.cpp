#include "sim/cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hottiles {

Cache::Cache(uint64_t size_bytes, uint32_t ways, uint32_t line_bytes)
    : num_ways_(ways), num_sets_(setsFor(size_bytes, ways, line_bytes)),
      pow2_sets_((num_sets_ & (num_sets_ - 1)) == 0)
{
    reset();
}

uint32_t
Cache::setsFor(uint64_t size_bytes, uint32_t ways, uint32_t line_bytes)
{
    HT_ASSERT(ways > 0 && line_bytes > 0, "bad cache geometry");
    uint64_t lines = size_bytes / line_bytes;
    return static_cast<uint32_t>(std::max<uint64_t>(lines / ways, 1));
}

void
Cache::reset()
{
    ways_.assign(size_t(num_sets_) * num_ways_, Way{~uint64_t(0), 0});
    clock_ = 0;
    hits_ = 0;
    misses_ = 0;
}

} // namespace hottiles
