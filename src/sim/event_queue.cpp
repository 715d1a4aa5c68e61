#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace hottiles {

void
EventQueue::schedule(Tick when, Callback cb)
{
    HT_ASSERT(cb, "scheduling an empty callback");
    pushNode(when)->cb = std::move(cb);
}

EventQueue::Node*
EventQueue::allocSlow()
{
    if (chunk_used_ == kChunkNodes) {
        chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
        chunk_used_ = 0;
    }
    return &chunks_.back()[chunk_used_++];
}

void
EventQueue::overflowInsert(Node* n)
{
    overflow_.push_back(n);
    const auto later = [](const Node* a, const Node* b) {
        return a->when != b->when ? a->when > b->when : a->seq > b->seq;
    };
    std::push_heap(overflow_.begin(), overflow_.end(), later);
}

size_t
EventQueue::earliestBucket() const
{
    // Circular first-set-bit scan starting at now's residue: positions
    // [start, kWheelSize) are nearer in time than the wrapped
    // [0, start) range.
    const size_t start = size_t(now_) & (kWheelSize - 1);
    const size_t w0 = start >> 6;
    const uint64_t first = occ_words_[w0] & (~uint64_t(0) << (start & 63));
    if (first)
        return (w0 << 6) + size_t(std::countr_zero(first));
    const uint64_t hi =
        (w0 + 1 < kWheelWords) ? occ_summary_ & (~uint64_t(0) << (w0 + 1))
                               : 0;
    if (hi) {
        const size_t w = size_t(std::countr_zero(hi));
        return (w << 6) + size_t(std::countr_zero(occ_words_[w]));
    }
    const uint64_t lo_mask = (w0 == 63) ? ~uint64_t(0)
                                        : (uint64_t(1) << (w0 + 1)) - 1;
    const uint64_t lo = occ_summary_ & lo_mask;
    HT_DASSERT(lo != 0, "earliest-bucket scan on an empty wheel");
    // lo != 0 by the caller's wheel_count_ > 0 guard; the mask keeps the
    // countr_zero(0) == 64 case in bounds for the optimizer's sake.
    const size_t w = size_t(std::countr_zero(lo)) & (kWheelWords - 1);
    uint64_t bits = occ_words_[w];
    if (w == w0)  // only wrapped bits below start remain in this word
        bits &= ~(~uint64_t(0) << (start & 63));
    HT_DASSERT(bits != 0, "occupancy summary out of sync");
    return (w << 6) + size_t(std::countr_zero(bits));
}

EventQueue::Node*
EventQueue::takeEarliest(Tick limit)
{
    size_t bucket = 0;
    Node* wheel_n = nullptr;
    if (wheel_count_ > 0) {
        bucket = earliestBucket();
        wheel_n = buckets_[bucket].head;
    }
    if (!overflow_.empty()) {
        Node* over_n = overflow_.front();
        // On a when-tie the overflow side always wins: an event entered
        // the overflow only while its tick was >= now + kWheelSize, and
        // a same-tick wheel event entered strictly later (tick within
        // kWheelSize of now), so every overflow seq at this tick is
        // smaller than every wheel seq at it.
        if (!wheel_n || over_n->when <= wheel_n->when) {
            if (over_n->when > limit)
                return nullptr;
            const auto later = [](const Node* a, const Node* b) {
                return a->when != b->when ? a->when > b->when
                                          : a->seq > b->seq;
            };
            std::pop_heap(overflow_.begin(), overflow_.end(), later);
            overflow_.pop_back();
            return over_n;
        }
    }
    if (!wheel_n || wheel_n->when > limit)
        return nullptr;
    Bucket& bk = buckets_[bucket];
    bk.head = wheel_n->next;
    if (!bk.head) {
        bk.tail = nullptr;
        occ_words_[bucket >> 6] &= ~(uint64_t(1) << (bucket & 63));
        if (occ_words_[bucket >> 6] == 0)
            occ_summary_ &= ~(uint64_t(1) << (bucket >> 6));
    }
    --wheel_count_;
    return wheel_n;
}

void
EventQueue::execute(Node* n)
{
    HT_DASSERT(n->when >= now_, "time went backwards");
    now_ = n->when;
    --pending_;
    ++processed_;
    // The node is off every list but not yet on the free list, and slab
    // chunks never move — so the callback runs in place even if it
    // schedules (which may carve new nodes but cannot touch this one).
    n->cb();
    n->cb.reset();
    n->next = free_;
    free_ = n;
}

bool
EventQueue::runOne()
{
    Node* n = takeEarliest(~Tick(0));
    if (!n)
        return false;
    execute(n);
    return true;
}

Tick
EventQueue::runUntilEmpty(Tick limit)
{
    while (Node* n = takeEarliest(limit))
        execute(n);
    return now_;
}

} // namespace hottiles
