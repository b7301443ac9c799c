#include "prefetch/tracker_index.h"

#include <algorithm>
#include <stdexcept>

namespace mab {

TrackerIndex::TrackerIndex(int entries, const std::string &what)
    : entries_(entries)
{
    if (entries < 1 || entries > kMaxEntries)
        throw std::invalid_argument(
            what + " needs 1..64 entries, got " +
            std::to_string(entries));
    // About two slots per entry, so a slot rarely holds a stranger.
    const int slot_bits = std::bit_width(
        static_cast<unsigned>(std::max(1, 2 * entries - 1)));
    shift_ = 64 - slot_bits;
    slots_.assign(size_t{1} << slot_bits, 0);
    clear();
}

void
TrackerIndex::clear()
{
    std::fill(slots_.begin(), slots_.end(), 0);
    free_ = entries_ == 64 ? ~0ull : (1ull << entries_) - 1;
    head_ = tail_ = kNone;
}

} // namespace mab
