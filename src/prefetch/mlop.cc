#include "prefetch/mlop.h"

#include <algorithm>
#include <stdexcept>

#include "trace/record.h"

namespace mab {

MlopPrefetcher::MlopPrefetcher(int levels, int history, int epoch)
    : levels_(levels), epoch_(epoch), history_(std::max(history, 0), 0),
      ordered_(history_.size(), 0), chosen_(std::max(levels, 0), 0)
{
    if (levels < 1 || history < 1 || epoch < 1)
        throw std::invalid_argument(
            "MlopPrefetcher: levels, history and epoch must be >= 1");
}

uint64_t
MlopPrefetcher::storageBytes() const
{
    // History buffer of 4B compressed line numbers + per-level offset
    // score table (63 offsets x 2B) as in an access-map organization.
    return history_.size() * 4 +
        static_cast<uint64_t>(levels_) * (2 * kMaxOffset + 1) * 2;
}

void
MlopPrefetcher::reset()
{
    std::fill(history_.begin(), history_.end(), 0);
    std::fill(chosen_.begin(), chosen_.end(), 0);
    histPos_ = 0;
    histFill_ = 0;
    accessesSinceTrain_ = 0;
}

void
MlopPrefetcher::retrain()
{
    // Copy the ring into age order once, so every level reads the
    // access k steps back as a plain index.
    const size_t n = histFill_;
    const size_t oldest = (histPos_ + history_.size() - n) % history_.size();
    std::rotate_copy(history_.begin(),
                     history_.begin() + static_cast<std::ptrdiff_t>(oldest),
                     history_.end(), ordered_.begin());

    // For each lookahead level k, histogram the line delta between
    // accesses k apart and select the dominant offset.
    for (int k = 1; k <= levels_; ++k) {
        std::array<int, 2 * kMaxOffset + 1> hist{};
        int samples = 0;
        for (size_t t = static_cast<size_t>(k); t < n; ++t) {
            const int64_t delta =
                ordered_[t] - ordered_[t - static_cast<size_t>(k)];
            if (delta != 0 && delta >= -kMaxOffset &&
                delta <= kMaxOffset) {
                ++hist[delta + kMaxOffset];
                ++samples;
            }
        }
        int best = 0;
        int best_count = 0;
        for (int o = -kMaxOffset; o <= kMaxOffset; ++o) {
            if (o == 0)
                continue;
            const int count = hist[o + kMaxOffset];
            if (count > best_count) {
                best_count = count;
                best = o;
            }
        }
        // Keep a level offset only if it explains a clear plurality
        // of the level's transitions; anything weaker floods the
        // memory system with speculative lines on irregular
        // patterns.
        // Deeper levels predict further ahead and need higher
        // confidence before they are allowed to fire.
        const int num = best_count * (k <= 8 ? 2 : 3);
        const int den = samples * (k <= 8 ? 1 : 2);
        chosen_[k - 1] = (samples >= 32 && num >= den) ? best : 0;
    }
}

void
MlopPrefetcher::onAccess(const PrefetchAccess &access,
                         std::vector<uint64_t> &out)
{
    const int64_t line =
        static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

    history_[histPos_] = line;
    if (++histPos_ == history_.size())
        histPos_ = 0;
    histFill_ = std::min(histFill_ + 1, history_.size());

    if (++accessesSinceTrain_ >= epoch_) {
        accessesSinceTrain_ = 0;
        retrain();
    }

    // Each level-k offset is the total delta to the access k steps
    // ahead, so predictions are absolute (not chained). Deduplicate
    // offsets across levels and cap the per-access degree.
    uint64_t seen_mask = 0; // offsets are in [-31, 31]
    int emitted = 0;
    for (int k = 0; k < levels_ && emitted < 4; ++k) {
        const int offset = chosen_[k];
        if (offset == 0)
            continue;
        const uint64_t bit = 1ull << (offset + kMaxOffset);
        if (seen_mask & bit)
            continue;
        seen_mask |= bit;
        const int64_t target = line + offset;
        // Page-bounded prediction, as in access-map prefetchers (a
        // physical prefetcher cannot cross a 4KB page).
        if (target > 0 && (target >> 6) == (line >> 6)) {
            out.push_back(static_cast<uint64_t>(target) * kLineBytes);
            ++emitted;
        }
    }
}

} // namespace mab
