#include "prefetch/stride.h"

#include "trace/record.h"

namespace mab {

namespace {

constexpr int kConfidenceMax = 3;
constexpr int kPrefetchThreshold = 2;

} // namespace

StridePrefetcher::StridePrefetcher(int num_trackers, int degree)
    : degree_(degree), index_(num_trackers, "StridePrefetcher"),
      table_(static_cast<size_t>(index_.size()))
{
}

uint64_t
StridePrefetcher::storageBytes() const
{
    // Per entry: 8B PC tag + 8B last address + 4B stride + ~1B state.
    return table_.size() * 21;
}

void
StridePrefetcher::reset()
{
    for (auto &e : table_)
        e = Entry{};
    index_.clear();
}

std::vector<TrackerTag>
StridePrefetcher::trackerTags() const
{
    return index_.tags([this](int i) { return table_[i].pcTag; });
}

void
StridePrefetcher::onAccess(const PrefetchAccess &access,
                           std::vector<uint64_t> &out)
{
    const int match = TrackerIndex::first(
        index_.candidates(access.pc),
        [&](int i) { return table_[i].pcTag == access.pc; });

    if (match < 0) {
        const int victim = index_.victimHighestFree();
        table_[victim] = {access.pc, access.addr, 0, 0};
        index_.assign(victim, access.pc);
        return;
    }

    Entry &e = table_[match];
    index_.touch(match);
    const int64_t delta = static_cast<int64_t>(access.addr) -
        static_cast<int64_t>(e.lastAddr);
    if (delta != 0 && delta == e.stride) {
        if (e.confidence < kConfidenceMax)
            ++e.confidence;
    } else {
        e.stride = delta;
        e.confidence = delta != 0 ? 1 : 0;
    }
    e.lastAddr = access.addr;

    if (degree_ > 0 && e.confidence >= kPrefetchThreshold &&
        e.stride != 0) {
        for (int i = 1; i <= degree_; ++i) {
            const int64_t target =
                static_cast<int64_t>(access.addr) + e.stride * i;
            if (target > 0)
                out.push_back(static_cast<uint64_t>(target));
        }
    }
}

} // namespace mab
