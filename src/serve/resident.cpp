#include "serve/resident.hpp"

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "sparse/suite.hpp"

namespace hottiles::serve {

namespace {

size_t
cooBytes(const CooMatrix& m)
{
    return (m.rowIds().capacity() + m.colIds().capacity()) * sizeof(Index) +
           m.values().capacity() * sizeof(Value);
}

size_t
gridBytes(const TileGrid& g)
{
    return g.tiles().capacity() * sizeof(Tile) +
           (size_t(g.numPanels()) + 1) * sizeof(size_t) +
           g.matrixNnz() * (2 * sizeof(Index) + sizeof(Value));
}

/** Move the process-wide resident total (every store's bytes) by
 *  @p delta and publish it as the serve.resident_bytes gauge. */
void
addResidentGauge(ptrdiff_t delta)
{
    static std::mutex mu;
    static ptrdiff_t total = 0;
    static Gauge& gauge =
        MetricsRegistry::global().gauge("serve.resident_bytes");
    std::lock_guard<std::mutex> lock(mu);
    total += delta;
    gauge.set(double(total));
}

Counter&
evictions()
{
    static Counter& c =
        MetricsRegistry::global().counter("serve.resident.evict");
    return c;
}

/** True when @p w and @p s share one control block (one owned object). */
bool
sameOwner(const std::weak_ptr<const CooMatrix>& w,
          const std::shared_ptr<const CooMatrix>& s)
{
    return !w.owner_before(s) && !s.owner_before(w);
}

} // namespace

/** One tile shape's structures, each built once under mu. */
struct ResidentMatrix::Shape
{
    Index tile_h = 0;
    Index tile_w = 0;
    std::mutex mu;
    bool has_fp = false;
    PlanFingerprint fp;
    std::unique_ptr<const TileGrid> grid;
    std::shared_ptr<const CompiledPlan> plan;
};

ResidentMatrix::ResidentMatrix(ResidentStore& store, Key key,
                               const std::shared_ptr<const CooMatrix>& data)
    : store_(store), key_(std::move(key)), watched_(data)
{
}

ResidentMatrix::~ResidentMatrix() = default;

std::shared_ptr<const CooMatrix>
ResidentMatrix::matrix() const
{
    return owned_ ? owned_ : watched_.lock();
}

ResidentMatrix::Shape&
ResidentMatrix::shape(Index tile_h, Index tile_w)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : shapes_)
        if (s->tile_h == tile_h && s->tile_w == tile_w)
            return *s;
    auto s = std::make_unique<Shape>();
    s->tile_h = tile_h;
    s->tile_w = tile_w;
    shapes_.push_back(std::move(s));
    return *shapes_.back();
}

PlanFingerprint
ResidentMatrix::fingerprint(Index tile_h, Index tile_w)
{
    Shape& s = shape(tile_h, tile_w);
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.has_fp) {
        ScopedTimer t("serve.fingerprint");
        s.fp = fingerprintStructure(*matrix(), tile_h, tile_w);
        s.has_fp = true;
    }
    return s.fp;
}

const TileGrid&
ResidentMatrix::gridLocked(Shape& s)
{
    if (!s.grid) {
        {
            ScopedTimer t("serve.tile_grid");
            s.grid = std::make_unique<const TileGrid>(*matrix(), s.tile_h,
                                                      s.tile_w);
        }
        store_.charge(*this, ptrdiff_t(gridBytes(*s.grid)));
    }
    return *s.grid;
}

const TileGrid&
ResidentMatrix::grid(Index tile_h, Index tile_w)
{
    Shape& s = shape(tile_h, tile_w);
    std::lock_guard<std::mutex> lock(s.mu);
    return gridLocked(s);
}

std::shared_ptr<const CompiledPlan>
ResidentMatrix::plan(Index tile_h, Index tile_w, const Partition& part)
{
    Shape& s = shape(tile_h, tile_w);
    std::lock_guard<std::mutex> lock(s.mu);
    const TileGrid& g = gridLocked(s);
    if (s.plan && s.plan->isHot() == part.is_hot)
        return s.plan;
    const ptrdiff_t old = s.plan ? ptrdiff_t(s.plan->bytes()) : 0;
    s.plan = exec::compile(g, part);
    store_.charge(*this, ptrdiff_t(s.plan->bytes()) - old);
    return s.plan;
}

ResidentStore::ResidentStore(size_t budget_bytes) : budget_(budget_bytes) {}

ResidentStore::~ResidentStore()
{
    addResidentGauge(-ptrdiff_t(bytes_));
}

std::shared_ptr<ResidentMatrix>
ResidentStore::acquire(const std::shared_ptr<const CooMatrix>& data,
                       const std::string& handle)
{
    HT_FATAL_IF(!data && handle.empty(), "request has no matrix");
    static Counter& hits =
        MetricsRegistry::global().counter("serve.resident.hit");
    static Counter& misses =
        MetricsRegistry::global().counter("serve.resident.miss");
    Key key = data ? Key{data.get(), {}} : Key{nullptr, handle};
    std::shared_ptr<ResidentMatrix> e;
    Dropped dropped;  // released after the lock
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end() &&
            (!data || sameOwner(it->second->watched_, data))) {
            e = it->second;
            lru_.splice(lru_.begin(), lru_, e->lru_pos_);
            hits.add();
        } else {
            // A pointer entry whose matrix is gone can never match again:
            // drop it, and every other such entry, before inserting.
            std::vector<std::shared_ptr<ResidentMatrix>> stale;
            for (const auto& [k, entry] : map_)
                if (k.first && entry->watched_.expired())
                    stale.push_back(entry);
            if (it != map_.end() && !it->second->watched_.expired())
                stale.push_back(it->second);  // same address, other owner
            for (const auto& s : stale)
                dropLocked(s, dropped);
            evictions().add(stale.size());
            e.reset(new ResidentMatrix(*this, key, data));
            lru_.push_front(key);
            e->lru_pos_ = lru_.begin();
            map_.emplace(std::move(key), e);
            misses.add();
            e->bytes_ = kEntryBytes;
            bytes_ += kEntryBytes;
            addResidentGauge(ptrdiff_t(kEntryBytes));
            evictLocked(dropped);
        }
    }
    if (!data)
        load(e);
    return e;
}

void
ResidentStore::load(const std::shared_ptr<ResidentMatrix>& e)
{
    std::unique_lock<std::mutex> lock(e->mu_);
    if (e->owned_)
        return;
    const std::string& handle = e->key_.second;
    try {
        e->owned_ = std::make_shared<const CooMatrix>(matrixFromHandle(handle));
    } catch (...) {
        lock.unlock();
        Dropped dropped;
        std::lock_guard<std::mutex> guard(mu_);
        auto it = map_.find(e->key_);
        if (it != map_.end() && it->second == e)
            dropLocked(e, dropped);
        throw;
    }
    charge(*e, ptrdiff_t(cooBytes(*e->owned_)));
}

void
ResidentStore::charge(ResidentMatrix& e, ptrdiff_t delta)
{
    Dropped dropped;  // released after the lock
    std::lock_guard<std::mutex> lock(mu_);
    if (!e.in_store_)
        return;  // evicted: its bytes leave with its last request
    e.bytes_ = size_t(ptrdiff_t(e.bytes_) + delta);
    bytes_ = size_t(ptrdiff_t(bytes_) + delta);
    addResidentGauge(delta);
    evictLocked(dropped);
}

void
ResidentStore::dropLocked(std::shared_ptr<ResidentMatrix> e, Dropped& out)
{
    lru_.erase(e->lru_pos_);
    map_.erase(e->key_);
    e->in_store_ = false;
    bytes_ -= e->bytes_;
    addResidentGauge(-ptrdiff_t(e->bytes_));
    out.push_back(std::move(e));
}

void
ResidentStore::evictLocked(Dropped& out)
{
    while (bytes_ > budget_ && !lru_.empty()) {
        dropLocked(map_.at(lru_.back()), out);
        evictions().add();
    }
}

} // namespace hottiles::serve
