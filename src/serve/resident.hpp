#pragma once

/**
 * @file
 * Resident handles (docs/SERVING.md): what the service derives from a
 * matrix, kept per matrix handle so that a repeat request reuses it
 * instead of rescanning the matrix.
 *
 * A handle is the wire matrix string, or the matrix_data pointer of an
 * in-process request (the identity request coalescing keys on too).  For
 * each tile shape an entry keeps
 *   - the structural fingerprint (serve/fingerprint.hpp), which Plan and
 *     Run both key the plan cache with;
 *   - the TileGrid, built by the handle's first Run (or degraded Plan);
 *   - the worker formats of the last partition executed on that grid,
 *     reused only by a partition whose is_hot matches byte for byte.
 * Each is built once, by the first request that needs it; concurrent
 * requests for the same handle wait for that build (single flight).
 *
 * Identity.  A wire handle's entry owns its loaded matrix.  A pointer
 * handle's entry holds only a weak reference and matches a request only
 * when the request's shared_ptr owns that same object, so a freed
 * matrix, or a new one built at the same address, never meets a stale
 * entry.
 *
 * Budget.  Resident bytes — loaded wire matrices, grids and formats,
 * plus a fixed charge per entry — are capped by a byte budget with LRU
 * eviction.  An evicted entry stays alive for every request still
 * holding it; later requests just no longer find it.  Residency is
 * reported through the metrics registry only: the serve.resident_bytes
 * gauge (summed over the process's stores) and the
 * serve.resident.{hit,miss,evict} counters.
 *
 * Thread-safety: every public method is safe to call concurrently.
 */

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "partition/partition.hpp"
#include "serve/fingerprint.hpp"
#include "sim/worklist.hpp"
#include "sparse/coo.hpp"
#include "sparse/tiling.hpp"

namespace hottiles::serve {

/** The worker formats of one partition on a resident grid. */
struct ResidentFormats
{
    std::vector<uint8_t> is_hot;  //!< the partition they were built for
    TiledWork hot;
    UntiledWork cold;
};

class ResidentStore;

/** One handle's resident state (see the file comment). */
class ResidentMatrix
{
  public:
    ~ResidentMatrix();

    /** The matrix: the loaded one of a wire handle, else the caller's
     *  (null once every caller has released it). */
    std::shared_ptr<const CooMatrix> matrix() const;

    /** Structural fingerprint under @p tile_h x @p tile_w. */
    PlanFingerprint fingerprint(Index tile_h, Index tile_w);

    /** The tile grid under @p tile_h x @p tile_w. */
    const TileGrid& grid(Index tile_h, Index tile_w);

    /** Worker formats of @p part on grid(@p tile_h, @p tile_w): the
     *  resident ones when their is_hot equals part.is_hot, else built
     *  and kept in their place. */
    std::shared_ptr<const ResidentFormats>
    formats(Index tile_h, Index tile_w, const Partition& part);

  private:
    friend class ResidentStore;
    using Key = std::pair<const void*, std::string>;
    struct Shape;

    ResidentMatrix(ResidentStore& store, Key key,
                   const std::shared_ptr<const CooMatrix>& data);
    Shape& shape(Index tile_h, Index tile_w);
    const TileGrid& gridLocked(Shape& s);

    ResidentStore& store_;
    const Key key_;
    const std::weak_ptr<const CooMatrix> watched_;  //!< pointer handles

    std::mutex mu_;  //!< guards owned_ (the wire load) and shapes_
    std::shared_ptr<const CooMatrix> owned_;  //!< wire handles
    std::vector<std::unique_ptr<Shape>> shapes_;

    // Guarded by the store's mutex.
    size_t bytes_ = 0;
    bool in_store_ = true;
    std::list<Key>::iterator lru_pos_;
};

/** The per-service map of resident handles (see the file comment). */
class ResidentStore
{
  public:
    /** Bookkeeping charge per entry (map node, key, shapes). */
    static constexpr size_t kEntryBytes = 1024;

    explicit ResidentStore(size_t budget_bytes);
    ~ResidentStore();
    ResidentStore(const ResidentStore&) = delete;
    ResidentStore& operator=(const ResidentStore&) = delete;

    /**
     * The entry of @p data (in-process; non-null wins, keyed by pointer)
     * or of the wire @p handle, created on a miss.  A wire handle's
     * matrix is loaded on first use: `@name` is a suite proxy, anything
     * else a MatrixMarket path.  A failed load throws FatalError and
     * leaves no entry behind.
     */
    std::shared_ptr<ResidentMatrix>
    acquire(const std::shared_ptr<const CooMatrix>& data,
            const std::string& handle);

  private:
    friend class ResidentMatrix;
    using Key = ResidentMatrix::Key;
    using Dropped = std::vector<std::shared_ptr<ResidentMatrix>>;

    /** Add @p delta bytes to @p e (if still resident) and evict least
     *  recently used entries until the total fits the budget. */
    void charge(ResidentMatrix& e, ptrdiff_t delta);
    void load(const std::shared_ptr<ResidentMatrix>& e);
    /** Unlist @p e (taken by value: it may be the map's own copy) and
     *  move it to @p out. */
    void dropLocked(std::shared_ptr<ResidentMatrix> e, Dropped& out);
    void evictLocked(Dropped& out);

    const size_t budget_;
    std::mutex mu_;
    std::map<Key, std::shared_ptr<ResidentMatrix>> map_;
    std::list<Key> lru_;  //!< front = most recent
    size_t bytes_ = 0;
};

} // namespace hottiles::serve
