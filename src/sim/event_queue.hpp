#pragma once

/**
 * @file
 * Event-driven simulation core: a time-ordered queue of callbacks with
 * deterministic FIFO ordering for same-tick events.  All simulator
 * components (memory controller, links, workers) schedule against one
 * queue; the simulation is single-threaded and bit-reproducible.
 *
 * Events live in chunked slabs of intrusive nodes with *stable
 * addresses*; a timing wheel of one-tick buckets (with an occupancy
 * bitmap for O(1)-ish earliest-bucket scans) orders the near future,
 * and a small binary heap of node pointers absorbs far-future events
 * (see docs/SIMULATOR.md "Event core internals").  No per-event
 * allocation and no per-event callback relocation: the callable is
 * constructed directly inside its slab node (InlineCallback::assign),
 * invoked in place, and destroyed in place — the schedule-to-run path
 * never moves it.
 *
 * Events run in (when, seq) order where seq is the global schedule
 * count, so same-tick events are FIFO; schedules into the past clamp
 * to now().
 */

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/inline_callback.hpp"

namespace hottiles {

/** Minimal discrete-event scheduler. */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Current simulated time (cycles). */
    Tick now() const { return now_; }

    /**
     * Schedule callable @p f at absolute tick @p when (clamped to now).
     * The hot path: the callable is constructed directly in its slab
     * node, so scheduling a lambda costs one free-list pop, one bucket
     * link, and one in-place construction — no moves, no allocation.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Callback> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    void
    schedule(Tick when, F&& f)
    {
        pushNode(when)->cb.assign(std::forward<F>(f));
    }

    /** Schedule an already type-erased @p cb (one relocation). */
    void schedule(Tick when, Callback cb);

    /** Schedule @p f @p delay cycles from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F&& f)
    {
        schedule(now_ + delay, std::forward<F>(f));
    }

    /** Pop and run the earliest event; false if the queue is empty. */
    bool runOne();

    /**
     * Run until the queue drains (or @p limit is reached), returning the
     * tick of the last executed event.
     */
    Tick runUntilEmpty(Tick limit = ~Tick(0));

    size_t pending() const { return pending_; }
    uint64_t processed() const { return processed_; }
    /** High-water mark of pending() over the queue's lifetime. */
    size_t peakPending() const { return peak_pending_; }
    /** Total schedule() calls so far (the next event's FIFO sequence). */
    uint64_t scheduled() const { return seq_; }

  private:
    static constexpr size_t kWheelBits = 12;
    static constexpr size_t kWheelSize = size_t(1) << kWheelBits;  // ticks
    static constexpr size_t kWheelWords = kWheelSize / 64;
    static constexpr size_t kChunkNodes = 1024;  //!< slab growth unit

    struct Node
    {
        Tick when = 0;
        uint64_t seq = 0;
        Node* next = nullptr;  //!< bucket chain / free list
        Callback cb;
    };
    static_assert(sizeof(Node) == 64,
                  "event node layout drifted off one cache line");
    struct Bucket
    {
        Node* head = nullptr;
        Node* tail = nullptr;
    };

    /** Pop a recycled node or carve one from the newest chunk.  Chunks
     *  are never reallocated, so node addresses are stable for the
     *  queue's lifetime — callbacks can run in place. */
    Node*
    allocNode()
    {
        Node* n = free_;
        if (n) {
            free_ = n->next;
            return n;
        }
        return allocSlow();
    }

    /** Clamp, stamp, and file a fresh node; its callback is empty and
     *  the caller constructs it in place. */
    Node*
    pushNode(Tick when)
    {
        if (when < now_)
            when = now_;
        Node* n = allocNode();
        n->when = when;
        n->seq = seq_++;
        n->next = nullptr;
        if (when - now_ < kWheelSize)
            wheelInsert(n);
        else
            overflowInsert(n);
        ++pending_;
        if (pending_ > peak_pending_)
            peak_pending_ = pending_;
        return n;
    }

    void
    wheelInsert(Node* n)
    {
        const size_t b = size_t(n->when) & (kWheelSize - 1);
        Bucket& bk = buckets_[b];
        if (!bk.tail) {
            bk.head = bk.tail = n;
            occ_words_[b >> 6] |= uint64_t(1) << (b & 63);
            occ_summary_ |= uint64_t(1) << (b >> 6);
        } else {
            // One bucket never holds two distinct ticks at once: inserts
            // are within kWheelSize of now, now is monotone, and pops
            // always take the minimum — so a co-resident equal-residue
            // tick is equal.
            HT_DASSERT(bk.tail->when == n->when, "wheel bucket tick clash");
            bk.tail->next = n;
            bk.tail = n;
        }
        ++wheel_count_;
    }

    Node* allocSlow();
    void overflowInsert(Node* n);
    size_t earliestBucket() const;  //!< valid only when wheel_count_ > 0
    /** Unlink and return the earliest node at tick <= limit, or null. */
    Node* takeEarliest(Tick limit);
    void execute(Node* n);

    Tick now_ = 0;
    uint64_t seq_ = 0;
    uint64_t processed_ = 0;
    size_t pending_ = 0;
    size_t peak_pending_ = 0;

    std::vector<std::unique_ptr<Node[]>> chunks_;  //!< stable node storage
    size_t chunk_used_ = kChunkNodes;  //!< nodes carved from chunks_.back()
    Node* free_ = nullptr;
    std::vector<Bucket> buckets_ = std::vector<Bucket>(kWheelSize);
    uint64_t occ_words_[kWheelWords] = {};
    uint64_t occ_summary_ = 0;  //!< bit w set iff occ_words_[w] != 0
    size_t wheel_count_ = 0;
    std::vector<Node*> overflow_;  //!< min-heap on (when, seq)
};

} // namespace hottiles
