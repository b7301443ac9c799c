#include "prefetch/stream.h"

#include <cstdlib>

#include "trace/record.h"

namespace mab {

namespace {

/** Window (in lines) within which an access extends a stream. */
constexpr int64_t kMatchWindow = 4;

/** Confirmations before a stream starts prefetching. */
constexpr int kTrainThreshold = 2;

/** Index key of a line: its 8-line bucket. A window of 2 * 4 + 1
 *  lines always spans exactly two buckets. */
constexpr int kBucketShift = 3;
static_assert(2 * kMatchWindow + 1 > (1 << kBucketShift) &&
              2 * kMatchWindow + 1 <= 2 * (1 << kBucketShift));

uint64_t
bucketOf(int64_t line)
{
    return static_cast<uint64_t>(line >> kBucketShift);
}

} // namespace

StreamPrefetcher::StreamPrefetcher(int num_trackers)
    : index_(num_trackers, "StreamPrefetcher"),
      trackers_(static_cast<size_t>(index_.size()))
{
}

uint64_t
StreamPrefetcher::storageBytes() const
{
    // Per tracker: 8B line address + ~1B direction/confidence/LRU.
    return trackers_.size() * 9;
}

void
StreamPrefetcher::reset()
{
    for (auto &t : trackers_)
        t = Tracker{};
    index_.clear();
}

std::vector<TrackerTag>
StreamPrefetcher::trackerTags() const
{
    return index_.tags([this](int i) { return trackers_[i].lastLine; });
}

void
StreamPrefetcher::onAccess(const PrefetchAccess &access,
                           std::vector<uint64_t> &out)
{
    const int64_t line =
        static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

    // Every tracker within the window sits in one of the two buckets
    // the window spans; the lowest qualifying index wins.
    const int match = TrackerIndex::first(
        index_.candidates(bucketOf(line - kMatchWindow)) |
            index_.candidates(bucketOf(line + kMatchWindow)),
        [&](int i) {
            const int64_t delta =
                line - static_cast<int64_t>(trackers_[i].lastLine);
            return delta != 0 && std::llabs(delta) <= kMatchWindow;
        });

    if (match >= 0) {
        Tracker &t = trackers_[match];
        const int64_t delta = line - static_cast<int64_t>(t.lastLine);
        const int dir = delta > 0 ? 1 : -1;
        if (t.direction == dir) {
            ++t.confidence;
        } else {
            t.direction = dir;
            t.confidence = 1;
        }
        t.lastLine = static_cast<uint64_t>(line);
        index_.assign(match, bucketOf(line));

        if (degree_ > 0 && t.confidence >= kTrainThreshold) {
            for (int i = 1; i <= degree_; ++i) {
                const int64_t target =
                    line + static_cast<int64_t>(i) * t.direction;
                if (target > 0)
                    out.push_back(static_cast<uint64_t>(target) *
                                  kLineBytes);
            }
        }
        return;
    }

    // Allocate a fresh tracker for a potential new stream.
    const int victim = index_.victimHighestFree();
    trackers_[victim] = {static_cast<uint64_t>(line), 0, 0};
    index_.assign(victim, bucketOf(line));
}

} // namespace mab
