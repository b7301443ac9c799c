#ifndef MAB_PREFETCH_BINGO_H
#define MAB_PREFETCH_BINGO_H

#include <vector>

#include "prefetch/prefetcher.h"
#include "prefetch/tracker_index.h"

namespace mab {

/**
 * Bingo spatial data prefetcher (Bakhshalipour et al., HPCA'19),
 * simplified comparison baseline.
 *
 * Bingo records the footprint of lines touched inside a spatial region
 * during the region's "generation" and associates it with the
 * long-event "PC+Address" (here: PC + region offset) of the trigger
 * access. When a region is re-triggered, the stored footprint is
 * prefetched wholesale. The implementation keeps an accumulation
 * table for open generations and a set-associative footprint history
 * keyed by hash(PC, trigger offset) with a hash(PC)-only fallback,
 * capturing the core mechanism at a fraction of the engineering
 * surface of the original.
 *
 * A new generation takes the lowest free accumulation entry, or the
 * least recently used one (closing its generation into the history)
 * when all are in use; a TrackerIndex keyed by region finds a
 * region's open generation without scanning the table.
 */
class BingoPrefetcher final : public Prefetcher
{
  public:
    /**
     * @param region_bytes spatial region size (2KB in the paper), a
     *        power of two in [64, 4096] (at most 64 lines, one
     *        footprint bit each)
     * @param accumulation_entries open generations, in [1, 64]
     * @param history_entries footprint history size, 4 times a power
     *        of two (4-way sets, indexed by a mask)
     * @throws std::invalid_argument for any other value
     */
    explicit BingoPrefetcher(uint64_t region_bytes = 2048,
                             int accumulation_entries = 64,
                             int history_entries = 2048);

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "Bingo"; }
    uint64_t storageBytes() const override;
    void reset() override;

    /** Per accumulation entry: open, and its region number. */
    std::vector<TrackerTag> trackerTags() const;

  private:
    struct Accumulation
    {
        uint64_t regionBase = 0;
        uint64_t triggerPc = 0;
        int triggerOffset = 0;
        uint64_t footprint = 0;
    };

    struct History
    {
        uint64_t key = 0;
        uint64_t footprint = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    uint64_t keyLong(uint64_t pc, int offset) const;
    uint64_t keyShort(uint64_t pc) const;
    void storeHistory(uint64_t key, uint64_t footprint);
    const History *findHistory(uint64_t key) const;
    void closeGeneration(const Accumulation &acc);
    void emitLines(uint64_t region_base, uint64_t lines,
                   std::vector<uint64_t> &out) const;

    int regionShift_;
    uint64_t lineMask_; // one bit per line of a region
    uint64_t setMask_;
    TrackerIndex accIndex_;
    std::vector<Accumulation> accTable_;
    std::vector<History> histTable_;
    uint64_t useTick_ = 0;
};

} // namespace mab

#endif // MAB_PREFETCH_BINGO_H
