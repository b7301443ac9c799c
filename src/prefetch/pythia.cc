#include "prefetch/pythia.h"

#include <algorithm>
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
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 32;
    return x;
}

constexpr std::array<int, 16> kOffsets = {
    0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, -1, -2, -3, -6,
};

constexpr std::array<int, 4> kDegrees = {1, 2, 4, 6};

static_assert(*std::max_element(kDegrees.begin(), kDegrees.end()) ==
              PythiaPrefetcher::kMaxDegree);

const PythiaConfig &
checkedConfig(const PythiaConfig &config)
{
    if (config.planeEntries < 1)
        throw std::invalid_argument(
            "PythiaConfig.planeEntries must be at least 1, got " +
            std::to_string(config.planeEntries));
    if (config.eqDepth < 0)
        throw std::invalid_argument(
            "PythiaConfig.eqDepth must not be negative, got " +
            std::to_string(config.eqDepth));
    return config;
}

} // namespace

const std::array<int, 16> &
PythiaPrefetcher::offsets()
{
    return kOffsets;
}

const std::array<int, 4> &
PythiaPrefetcher::degrees()
{
    return kDegrees;
}

PythiaPrefetcher::PendingMap::PendingMap(size_t maxEntries)
{
    const size_t size = std::bit_ceil(std::max<size_t>(16, 2 * maxEntries));
    slots_.resize(size);
    mask_ = size - 1;
    shift_ = 64 - std::countr_zero(size);
}

size_t
PythiaPrefetcher::PendingMap::find(uint64_t line) const
{
    for (size_t i = home(line);; i = (i + 1) & mask_) {
        if (slots_[i].line == line)
            return i;
        if (slots_[i].line == kEmpty)
            return kNotFound;
    }
}

bool
PythiaPrefetcher::PendingMap::insertIfAbsent(uint64_t line, uint32_t id)
{
    for (size_t i = home(line);; i = (i + 1) & mask_) {
        Slot &s = slots_[i];
        if (s.line == line)
            return false;
        if (s.line == kEmpty) {
            s = {line, id};
            return true;
        }
    }
}

void
PythiaPrefetcher::PendingMap::erase(size_t hole)
{
    // Backward-shift deletion: pull every later entry of the probe run
    // whose home does not lie cyclically in (hole, entry] into the
    // hole, so lookups never need tombstones.
    for (size_t j = (hole + 1) & mask_; slots_[j].line != kEmpty;
         j = (j + 1) & mask_) {
        const size_t h = home(slots_[j].line);
        if (((j - h) & mask_) >= ((j - hole) & mask_)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole].line = kEmpty;
}

void
PythiaPrefetcher::PendingMap::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
}

PythiaPrefetcher::PythiaPrefetcher(const PythiaConfig &config)
    : config_(checkedConfig(config)), rng_(config.seed),
      q0_(static_cast<size_t>(config.planeEntries) * kNumActions,
          config.qInit / 2.0),
      q1_(static_cast<size_t>(config.planeEntries) * kNumActions,
          config.qInit / 2.0),
      eq_(static_cast<size_t>(config.eqDepth) + 1),
      pending_(eq_.size() * kMaxDegree)
{
}

uint64_t
PythiaPrefetcher::storageBytes() const
{
    // Two feature planes of int16 Q-values plus the EQ metadata:
    // 2 x 96 x 64 x 2B = 24KB QVStore + ~1.5KB EQ, matching the
    // ~25.5KB the paper reports for Pythia.
    return 2ull * config_.planeEntries * kNumActions * 2 +
        static_cast<uint64_t>(config_.eqDepth) * 12;
}

void
PythiaPrefetcher::reset()
{
    std::fill(q0_.begin(), q0_.end(), config_.qInit / 2.0);
    std::fill(q1_.begin(), q1_.end(), config_.qInit / 2.0);
    eqHead_ = 0;
    eqSize_ = 0;
    pending_.clear();
    eqNextId_ = 0;
    eqBaseId_ = 0;
    lastLine_ = 0;
    delta1_ = 0;
    delta2_ = 0;
    actionCounts_.fill(0);
    rng_.reseed(config_.seed);
}

int
PythiaPrefetcher::featurePc(uint64_t pc) const
{
    return static_cast<int>(hashMix(pc) %
                            static_cast<uint64_t>(config_.planeEntries));
}

int
PythiaPrefetcher::featureDeltas() const
{
    const uint64_t key = hashMix(static_cast<uint64_t>(delta1_) * 131 +
                                 static_cast<uint64_t>(delta2_) * 7 + 3);
    return static_cast<int>(key %
                            static_cast<uint64_t>(config_.planeEntries));
}

double
PythiaPrefetcher::qValue(int f0, int f1, int a) const
{
    return q0_[static_cast<size_t>(f0) * kNumActions + a] +
        q1_[static_cast<size_t>(f1) * kNumActions + a];
}

int
PythiaPrefetcher::selectAction(int f0, int f1)
{
    if (rng_.bernoulli(config_.epsilon))
        return static_cast<int>(rng_.below(kNumActions));
    // Argmax in two branch-free passes instead of one serial compare
    // chain: the Q sums and their maximum in four independent lanes
    // (x > m ? x : m keeps m when x is NaN), then the first action
    // whose Q equals that maximum — the lowest action of the maximum,
    // as the serial scan chose. A NaN Q(0) poisons every lane; the
    // serial scan kept action 0 then, and so does this.
    const double *q0 = &q0_[static_cast<size_t>(f0) * kNumActions];
    const double *q1 = &q1_[static_cast<size_t>(f1) * kNumActions];
    double q[kNumActions];
    for (int a = 0; a < kNumActions; ++a)
        q[a] = q0[a] + q1[a];
    constexpr int kLanes = 4;
    double lane[kLanes] = {q[0], q[0], q[0], q[0]};
    for (int a = 0; a < kNumActions; a += kLanes) {
        for (int l = 0; l < kLanes; ++l)
            lane[l] = q[a + l] > lane[l] ? q[a + l] : lane[l];
    }
    double max_q = lane[0];
    for (int l = 1; l < kLanes; ++l)
        max_q = lane[l] > max_q ? lane[l] : max_q;
    if (max_q != max_q)
        return 0;
    int best = 0;
    while (q[best] != max_q) // stops: max_q is one of the sums
        ++best;
    return best;
}

PythiaPrefetcher::EqEntry &
PythiaPrefetcher::eqAt(size_t age)
{
    size_t pos = eqHead_ + age;
    if (pos >= eq_.size())
        pos -= eq_.size();
    return eq_[pos];
}

void
PythiaPrefetcher::retireOldest()
{
    // The slot stays intact until the next push, after this call.
    const EqEntry &e = eq_[eqHead_];
    if (++eqHead_ == eq_.size())
        eqHead_ = 0;
    --eqSize_;
    const uint32_t retired_id = eqBaseId_++;

    for (int i = 0; i < e.numLines; ++i) {
        const size_t slot = pending_.find(e.predictedLines[i]);
        if (slot != PendingMap::kNotFound &&
            pending_.id(slot) == retired_id)
            pending_.erase(slot);
    }

    double reward;
    if (e.issued) {
        // Per-line reward: every timely covered line earns credit,
        // every uncovered line costs a bandwidth-scaled penalty.
        // Deep accurate actions (high degree) therefore strictly
        // dominate shallow ones — the pressure that drives Pythia
        // toward deep lookahead on streams.
        const double timely = static_cast<double>(e.timelyHits);
        const double late = static_cast<double>(e.lateHits);
        const double miss =
            static_cast<double>(e.numLines) - timely - late;
        reward = timely * config_.rewardHit +
            late * config_.rewardLate +
            miss * (config_.rewardMiss -
                    config_.bwPenaltyScale * e.bwUtil);
    } else {
        reward = config_.rewardNone +
            0.5 * config_.bwPenaltyScale * e.bwUtil;
    }

    // SARSA: the next decision in program order provides (s', a').
    double q_next = 0.0;
    if (eqSize_ > 0) {
        const EqEntry &n = eq_[eqHead_];
        q_next = qValue(n.f0, n.f1, n.action);
    }

    const double q_sa = qValue(e.f0, e.f1, e.action);
    const double delta = reward + config_.gamma * q_next - q_sa;
    const double step = config_.alpha * delta * 0.5;
    q0_[static_cast<size_t>(e.f0) * kNumActions + e.action] += step;
    q1_[static_cast<size_t>(e.f1) * kNumActions + e.action] += step;
}

void
PythiaPrefetcher::onAccess(const PrefetchAccess &access,
                           std::vector<uint64_t> &out)
{
    const int64_t line =
        static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

    // Reward matching: did this demand access validate a prediction?
    const size_t slot = pending_.find(static_cast<uint64_t>(line));
    if (slot != PendingMap::kNotFound) {
        const uint32_t age = pending_.id(slot) - eqBaseId_;
        if (age < eqSize_) {
            EqEntry &entry = eqAt(age);
            const uint64_t elapsed = access.cycle - entry.issueCycle;
            if (elapsed >= config_.lateThresholdCycles)
                ++entry.timelyHits;
            else
                ++entry.lateHits;
        }
        pending_.erase(slot);
    }

    const int f0 = featurePc(access.pc);
    const int f1 = featureDeltas();
    const int action = selectAction(f0, f1);
    ++actionCounts_[action];

    const int offset = kOffsets[action >> 2];
    const int degree = kDegrees[action & 3];

    // The ring has room: every access retires down to eqDepth below.
    EqEntry &entry = eqAt(eqSize_);
    entry.f0 = f0;
    entry.f1 = f1;
    entry.action = action;
    entry.issued = offset != 0;
    entry.bwUtil = bwProbe_ ? bwProbe_(access.cycle) : 0.0;
    entry.issueCycle = access.cycle;
    entry.timelyHits = 0;
    entry.lateHits = 0;
    entry.numLines = 0;

    if (offset != 0) {
        // A degree-d action applies the offset d times (a run of
        // strided lookaheads: works for unit streams and for larger
        // strides alike).
        for (int i = 1; i <= degree; ++i) {
            const int64_t target = line +
                static_cast<int64_t>(offset) * i;
            if (target <= 0)
                continue;
            // Always re-issue (the L2 filters lines it already has,
            // and re-issuing heals prefetches dropped on full
            // queues), but credit each line to a single in-flight
            // decision so overlapping deep actions don't penalize
            // each other.
            out.push_back(static_cast<uint64_t>(target) * kLineBytes);
            if (pending_.insertIfAbsent(static_cast<uint64_t>(target),
                                        eqNextId_))
                entry.predictedLines[entry.numLines++] =
                    static_cast<uint64_t>(target);
        }
        // A fully covered expansion keeps issued=true with no novel
        // lines; its reward is neutral (0), not the no-prefetch one.
    }

    ++eqSize_;
    ++eqNextId_;
    while (eqSize_ > static_cast<size_t>(config_.eqDepth))
        retireOldest();

    // Update the delta history after the decision.
    const int64_t d = line - lastLine_;
    if (d != 0) {
        delta2_ = delta1_;
        delta1_ = d;
    }
    lastLine_ = line;
}

} // namespace mab
