#include "prefetch/bingo.h"

#include <bit>
#include <stdexcept>
#include <string>

#include "trace/record.h"

namespace mab {

namespace {

uint64_t
hashMix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 29;
    return x;
}

uint64_t
checkedRegionBytes(uint64_t region_bytes)
{
    if (!std::has_single_bit(region_bytes) || region_bytes < kLineBytes ||
        region_bytes > 64 * kLineBytes)
        throw std::invalid_argument(
            "BingoPrefetcher region_bytes must be a power of two in "
            "[64, 4096], got " +
            std::to_string(region_bytes));
    return region_bytes;
}

size_t
checkedHistoryEntries(int history_entries)
{
    if (history_entries < 4 || history_entries % 4 != 0 ||
        !std::has_single_bit(static_cast<unsigned>(history_entries / 4)))
        throw std::invalid_argument(
            "BingoPrefetcher history_entries must be 4 times a power "
            "of two, got " +
            std::to_string(history_entries));
    return static_cast<size_t>(history_entries);
}

} // namespace

BingoPrefetcher::BingoPrefetcher(uint64_t region_bytes,
                                 int accumulation_entries,
                                 int history_entries)
    : regionShift_(std::countr_zero(checkedRegionBytes(region_bytes))),
      lineMask_(region_bytes == 64 * kLineBytes
                    ? ~0ull
                    : (1ull << (region_bytes / kLineBytes)) - 1),
      setMask_(checkedHistoryEntries(history_entries) / 4 - 1),
      accIndex_(accumulation_entries, "BingoPrefetcher accumulation table"),
      accTable_(static_cast<size_t>(accIndex_.size())),
      histTable_(static_cast<size_t>(history_entries))
{
}

uint64_t
BingoPrefetcher::storageBytes() const
{
    // Accumulation: 8B base + 8B PC + 8B footprint + ~2B state.
    // History: 4B compressed key + 8B footprint (two tables, long and
    // short keys share entries here).
    return accTable_.size() * 26 + histTable_.size() * 12;
}

void
BingoPrefetcher::reset()
{
    for (auto &a : accTable_)
        a = Accumulation{};
    accIndex_.clear();
    for (auto &h : histTable_)
        h = History{};
    useTick_ = 0;
}

std::vector<TrackerTag>
BingoPrefetcher::trackerTags() const
{
    return accIndex_.tags([this](int i) {
        return accTable_[i].regionBase >> regionShift_;
    });
}

uint64_t
BingoPrefetcher::keyLong(uint64_t pc, int offset) const
{
    return hashMix(pc * 131 + static_cast<uint64_t>(offset) + 1);
}

uint64_t
BingoPrefetcher::keyShort(uint64_t pc) const
{
    return hashMix(pc * 31 + 0xBEEF);
}

const BingoPrefetcher::History *
BingoPrefetcher::findHistory(uint64_t key) const
{
    // 4-way set-associative lookup.
    const History *set = &histTable_[(key & setMask_) * 4];
    for (int w = 0; w < 4; ++w) {
        if (set[w].valid && set[w].key == key)
            return &set[w];
    }
    return nullptr;
}

void
BingoPrefetcher::storeHistory(uint64_t key, uint64_t footprint)
{
    History *set = &histTable_[(key & setMask_) * 4];
    History *victim = set;
    for (int w = 0; w < 4; ++w) {
        History &h = set[w];
        if (h.valid && h.key == key) {
            h.footprint = footprint;
            h.lastUse = ++useTick_;
            return;
        }
        if (!h.valid) {
            victim = &h;
        } else if (victim->valid && h.lastUse < victim->lastUse) {
            victim = &h;
        }
    }
    victim->valid = true;
    victim->key = key;
    victim->footprint = footprint;
    victim->lastUse = ++useTick_;
}

void
BingoPrefetcher::closeGeneration(const Accumulation &acc)
{
    // Record under both the precise (PC + offset) and the fallback
    // (PC-only) events, as in Bingo's multi-lookup.
    storeHistory(keyLong(acc.triggerPc, acc.triggerOffset),
                 acc.footprint);
    storeHistory(keyShort(acc.triggerPc), acc.footprint);
}

void
BingoPrefetcher::emitLines(uint64_t region_base, uint64_t lines,
                           std::vector<uint64_t> &out) const
{
    for (lines &= lineMask_; lines; lines &= lines - 1)
        out.push_back(region_base +
                      static_cast<uint64_t>(std::countr_zero(lines)) *
                          kLineBytes);
}

void
BingoPrefetcher::onAccess(const PrefetchAccess &access,
                          std::vector<uint64_t> &out)
{
    const uint64_t region = access.addr >> regionShift_;
    const uint64_t region_base = region << regionShift_;
    const int offset = static_cast<int>(
        (access.addr - region_base) / kLineBytes);

    // Already accumulating this region? Keep pulling in the not yet
    // accessed lines of the recorded footprint: this recovers
    // prefetches dropped on full queues and tracks the region as the
    // program walks it (duplicates are filtered at the L2).
    const int open = TrackerIndex::first(
        accIndex_.candidates(region),
        [&](int i) { return accTable_[i].regionBase == region_base; });
    if (open >= 0) {
        Accumulation &acc = accTable_[open];
        acc.footprint |= 1ull << offset;
        accIndex_.touch(open);
        const History *h =
            findHistory(keyLong(acc.triggerPc, acc.triggerOffset));
        if (!h)
            h = findHistory(keyShort(acc.triggerPc));
        if (h)
            emitLines(region_base, h->footprint & ~acc.footprint, out);
        return;
    }

    // Trigger access of a new generation: look up the history and
    // prefetch the recorded footprint.
    const History *hist = findHistory(keyLong(access.pc, offset));
    if (!hist)
        hist = findHistory(keyShort(access.pc));
    if (hist)
        emitLines(region_base, hist->footprint & ~(1ull << offset), out);

    // Open a new accumulation entry (evicting the LRU generation).
    const int victim = accIndex_.victimLowestFree();
    if (accIndex_.inUse(victim))
        closeGeneration(accTable_[victim]);
    accTable_[victim] = {region_base, access.pc, offset, 1ull << offset};
    accIndex_.assign(victim, region);
}

} // namespace mab
