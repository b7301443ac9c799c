#ifndef MAB_PREFETCH_TRACKER_INDEX_H
#define MAB_PREFETCH_TRACKER_INDEX_H

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace mab {

/** One entry of a tracker table as tests and the differential fuzzer
 *  see it: whether it is in use and the key it sits under. */
struct TrackerTag
{
    bool valid = false;
    uint64_t key = 0;

    bool operator==(const TrackerTag &) const = default;
};

/**
 * Constant-time bookkeeping for the small fully associative tracker
 * tables of the Stream, Stride and Bingo prefetchers (at most 64
 * entries). It replaces the per-access scans over the whole table
 * while keeping every decision they made:
 *
 *  - a hash index: for each slot, a 64-bit mask of the entries whose
 *    key hashes there. candidates(key) is a superset of the entries
 *    holding that key; walking its bits in ascending order and
 *    checking each entry finds the first match in array order, as the
 *    scan did;
 *  - a free mask, so a table can fill its highest (Stream, Stride) or
 *    lowest (Bingo) free entry first;
 *  - an intrusive LRU list over the entries in use: lru() is the
 *    entry the scan's minimum-lastUse search would have evicted.
 *
 * The owner keeps its per-entry payload; inUse(i) says whether entry
 * i holds one.
 */
class TrackerIndex
{
  public:
    static constexpr int kMaxEntries = 64;

    /**
     * @param entries table size, in [1, 64]
     * @param what    names the table in the error message
     * @throws std::invalid_argument for a size outside [1, 64]
     */
    TrackerIndex(int entries, const std::string &what);

    int size() const { return entries_; }

    /** Free every entry and empty the slots and the LRU list. */
    void clear();

    /** Entries whose key hashes to the slot of @p key, as a mask. */
    uint64_t candidates(uint64_t key) const { return slots_[slotOf(key)]; }

    /** The lowest entry of the mask @p cand for which @p match(i)
     *  holds, or -1: the first match in array order. */
    template <class Match>
    static int
    first(uint64_t cand, Match match)
    {
        for (; cand; cand &= cand - 1) {
            const int i = std::countr_zero(cand);
            if (match(i))
                return i;
        }
        return -1;
    }

    bool inUse(int i) const { return !(free_ >> i & 1); }

    /** Allocation victims: the highest (resp. lowest) free entry, or
     *  the least recently used one when the table is full. */
    int victimHighestFree() const
    {
        return free_ ? 63 - std::countl_zero(free_) : head_;
    }
    int victimLowestFree() const
    {
        return free_ ? std::countr_zero(free_) : head_;
    }

    /** Put entry @p i in use under @p key (re-keying it if it already
     *  was) and make it the most recently used. */
    void
    assign(int i, uint64_t key)
    {
        const uint64_t bit = 1ull << i;
        if (free_ & bit) {
            free_ &= ~bit;
        } else {
            slots_[slot_[i]] &= ~bit;
            unlink(i);
        }
        slot_[i] = static_cast<uint16_t>(slotOf(key));
        slots_[slot_[i]] |= bit;
        pushBack(i);
    }

    /** Per entry, in index order: in use, and then @p keyOf(i). */
    template <class KeyOf>
    std::vector<TrackerTag>
    tags(KeyOf keyOf) const
    {
        std::vector<TrackerTag> t(static_cast<size_t>(entries_));
        for (int i = 0; i < entries_; ++i) {
            if (inUse(i))
                t[static_cast<size_t>(i)] = {true, keyOf(i)};
        }
        return t;
    }

    /** Make in-use entry @p i the most recently used. */
    void
    touch(int i)
    {
        if (i == tail_)
            return;
        unlink(i);
        pushBack(i);
    }

  private:
    static constexpr int8_t kNone = -1;

    uint64_t
    slotOf(uint64_t key) const
    {
        return (key * 0x9E3779B97F4A7C15ull) >> shift_;
    }

    void
    unlink(int i)
    {
        const int8_t p = prev_[i], n = next_[i];
        if (p == kNone)
            head_ = n;
        else
            next_[p] = n;
        if (n == kNone)
            tail_ = p;
        else
            prev_[n] = p;
    }

    void
    pushBack(int i)
    {
        prev_[i] = tail_;
        next_[i] = kNone;
        if (tail_ == kNone)
            head_ = static_cast<int8_t>(i);
        else
            next_[tail_] = static_cast<int8_t>(i);
        tail_ = static_cast<int8_t>(i);
    }

    int entries_;
    int shift_;
    uint64_t free_ = 0;
    int8_t head_ = kNone;
    int8_t tail_ = kNone;
    int8_t prev_[kMaxEntries] = {};
    int8_t next_[kMaxEntries] = {};
    uint16_t slot_[kMaxEntries] = {};
    std::vector<uint64_t> slots_;
};

} // namespace mab

#endif // MAB_PREFETCH_TRACKER_INDEX_H
