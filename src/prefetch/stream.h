#ifndef MAB_PREFETCH_STREAM_H
#define MAB_PREFETCH_STREAM_H

#include <vector>

#include "prefetch/prefetcher.h"
#include "prefetch/tracker_index.h"

namespace mab {

/**
 * Stream prefetcher with a fixed number of stream trackers (Table 6:
 * 64 trackers). Each tracker locks onto a sequence of nearby line
 * accesses moving in one direction; once a stream is confirmed, the
 * prefetcher runs @c degree lines ahead of the demand stream. Degree 0
 * turns the prefetcher off; the Bandit programs the degree through a
 * programmable register (Section 5.2).
 *
 * An access extends the lowest-index tracker whose last line lies
 * within 4 lines of it (and is not the same line); with none, it
 * allocates the highest free tracker, or the least recently used one
 * when all are in use. A TrackerIndex keyed by 8-line buckets finds
 * the candidates without scanning the table.
 */
class StreamPrefetcher final : public Prefetcher
{
  public:
    /** @throws std::invalid_argument unless 1 <= num_trackers <= 64 */
    explicit StreamPrefetcher(int num_trackers = 64);

    void onAccess(const PrefetchAccess &access,
                  std::vector<uint64_t> &out) override;

    std::string name() const override { return "Stream"; }
    uint64_t storageBytes() const override;
    void reset() override;

    /** Program the prefetch degree (0 = off). */
    void setDegree(int degree) { degree_ = degree; }
    int degree() const { return degree_; }

    /** Per tracker: in use, and its last line number. */
    std::vector<TrackerTag> trackerTags() const;

  private:
    struct Tracker
    {
        uint64_t lastLine = 0;
        int direction = 0;  // +1 / -1; 0 = untrained
        int confidence = 0; // confirmations in the same direction
    };

    int degree_ = 4;
    TrackerIndex index_;
    std::vector<Tracker> trackers_;
};

} // namespace mab

#endif // MAB_PREFETCH_STREAM_H
