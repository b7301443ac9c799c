/**
 * @file
 * The prefetch domain of the differential fuzzer (sim/fuzz.h): the
 * reference prefetchers, the case generator, the differential loop
 * and the shrinker.
 */
#include <algorithm>
#include <cstdlib>
#include <deque>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "prefetch/bingo.h"
#include "prefetch/ensemble.h"
#include "prefetch/mlop.h"
#include "prefetch/nextline.h"
#include "prefetch/stream.h"
#include "prefetch/stride.h"
#include "sim/fuzz.h"
#include "sim/rng.h"
#include "trace/record.h"

namespace mab::fuzz {

namespace {

// ---------------------------------------------------------------------
// Reference prefetchers: the whole-table scans, kept as written before
// the tracker index, the Pythia ring and the ordered MLOP retrain, with
// the self-test's faults planted behind PrefetchMutation.
// ---------------------------------------------------------------------

class RefNextLine
{
  public:
    void
    onAccess(const PrefetchAccess &access, std::vector<uint64_t> &out)
    {
        if (!enabled_)
            return;
        out.push_back(lineAddr(access.addr) + kLineBytes);
    }

    void reset() {}
    void setEnabled(bool enabled) { enabled_ = enabled; }

  private:
    bool enabled_ = true;
};

class RefStream
{
  public:
    RefStream(int num_trackers, PrefetchMutation m)
        : trackers_(num_trackers), mutation_(m)
    {
    }

    void setDegree(int degree) { degree_ = degree; }

    void
    reset()
    {
        for (auto &t : trackers_)
            t = Tracker{};
        useTick_ = 0;
    }

    std::vector<TrackerTag>
    trackerTags() const
    {
        std::vector<TrackerTag> tags;
        for (const Tracker &t : trackers_)
            tags.push_back(t.valid ? TrackerTag{true, t.lastLine}
                                   : TrackerTag{});
        return tags;
    }

    void
    onAccess(const PrefetchAccess &access, std::vector<uint64_t> &out)
    {
        constexpr int64_t kMatchWindow = 4;
        constexpr int kTrainThreshold = 2;
        const int64_t line =
            static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

        Tracker *match = nullptr;
        Tracker *victim = &trackers_[0];
        for (auto &t : trackers_) {
            if (!t.valid) {
                victim = &t;
                continue;
            }
            const int64_t delta =
                line - static_cast<int64_t>(t.lastLine);
            if (delta != 0 && std::llabs(delta) <= kMatchWindow) {
                match = &t;
                if (mutation_ == PrefetchMutation::StreamTakesLastQualifying)
                    continue;
                break;
            }
            if (victim->valid && older(t.lastUse, victim->lastUse))
                victim = &t;
        }

        if (match) {
            const int64_t delta =
                line - static_cast<int64_t>(match->lastLine);
            const int dir = delta > 0 ? 1 : -1;
            if (match->direction == dir) {
                ++match->confidence;
            } else {
                match->direction = dir;
                match->confidence = 1;
            }
            match->lastLine = static_cast<uint64_t>(line);
            match->lastUse = ++useTick_;

            if (degree_ > 0 && match->confidence >= kTrainThreshold) {
                for (int i = 1; i <= degree_; ++i) {
                    const int64_t target = line +
                        static_cast<int64_t>(i) * match->direction;
                    if (target > 0)
                        out.push_back(static_cast<uint64_t>(target) *
                                      kLineBytes);
                }
            }
            return;
        }

        victim->valid = true;
        victim->lastLine = static_cast<uint64_t>(line);
        victim->direction = 0;
        victim->confidence = 0;
        victim->lastUse = ++useTick_;
    }

  private:
    struct Tracker
    {
        uint64_t lastLine = 0;
        int direction = 0;
        int confidence = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    bool
    older(uint64_t a, uint64_t b) const
    {
        return mutation_ == PrefetchMutation::LruPicksMostRecent ? a > b
                                                                 : a < b;
    }

    int degree_ = 4;
    std::vector<Tracker> trackers_;
    uint64_t useTick_ = 0;
    PrefetchMutation mutation_;
};

class RefStride
{
  public:
    RefStride(int num_trackers, int degree, PrefetchMutation m)
        : degree_(degree), table_(num_trackers), mutation_(m)
    {
    }

    void setDegree(int degree) { degree_ = degree; }

    void
    reset()
    {
        for (auto &e : table_)
            e = Entry{};
        useTick_ = 0;
    }

    std::vector<TrackerTag>
    trackerTags() const
    {
        std::vector<TrackerTag> tags;
        for (const Entry &e : table_)
            tags.push_back(e.valid ? TrackerTag{true, e.pcTag}
                                   : TrackerTag{});
        return tags;
    }

    void
    onAccess(const PrefetchAccess &access, std::vector<uint64_t> &out)
    {
        constexpr int kConfidenceMax = 3;
        constexpr int kPrefetchThreshold = 2;
        Entry *match = nullptr;
        Entry *victim = &table_[0];
        for (auto &e : table_) {
            if (e.valid && e.pcTag == access.pc) {
                match = &e;
                break;
            }
            if (!e.valid) {
                victim = &e;
            } else if (victim->valid && older(e.lastUse, victim->lastUse)) {
                victim = &e;
            }
        }

        if (!match) {
            victim->valid = true;
            victim->pcTag = access.pc;
            victim->lastAddr = access.addr;
            victim->stride = 0;
            victim->confidence = 0;
            victim->lastUse = ++useTick_;
            return;
        }

        const int64_t delta = static_cast<int64_t>(access.addr) -
            static_cast<int64_t>(match->lastAddr);
        if (delta != 0 && delta == match->stride) {
            if (match->confidence < kConfidenceMax)
                ++match->confidence;
        } else {
            match->stride = delta;
            match->confidence = delta != 0 ? 1 : 0;
        }
        match->lastAddr = access.addr;
        match->lastUse = ++useTick_;

        if (degree_ > 0 && match->confidence >= kPrefetchThreshold &&
            match->stride != 0) {
            for (int i = 1; i <= degree_; ++i) {
                const int64_t target =
                    static_cast<int64_t>(access.addr) + match->stride * i;
                if (target > 0)
                    out.push_back(static_cast<uint64_t>(target));
            }
        }
    }

  private:
    struct Entry
    {
        uint64_t pcTag = 0;
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        int confidence = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    bool
    older(uint64_t a, uint64_t b) const
    {
        return mutation_ == PrefetchMutation::LruPicksMostRecent ? a > b
                                                                 : a < b;
    }

    int degree_;
    std::vector<Entry> table_;
    uint64_t useTick_ = 0;
    PrefetchMutation mutation_;
};

uint64_t
bingoHashMix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 29;
    return x;
}

class RefBingo
{
  public:
    RefBingo(uint64_t region_bytes, int accumulation_entries,
             int history_entries, PrefetchMutation m)
        : regionBytes_(region_bytes),
          linesPerRegion_(static_cast<int>(region_bytes / kLineBytes)),
          accTable_(accumulation_entries), histTable_(history_entries),
          mutation_(m)
    {
    }

    void
    reset()
    {
        for (auto &a : accTable_)
            a = Accumulation{};
        for (auto &h : histTable_)
            h = History{};
        useTick_ = 0;
    }

    std::vector<TrackerTag>
    trackerTags() const
    {
        std::vector<TrackerTag> tags;
        for (const Accumulation &a : accTable_)
            tags.push_back(a.valid
                               ? TrackerTag{true, a.regionBase / regionBytes_}
                               : TrackerTag{});
        return tags;
    }

    void
    onAccess(const PrefetchAccess &access, std::vector<uint64_t> &out)
    {
        const uint64_t region = access.addr / regionBytes_;
        const uint64_t region_base = region * regionBytes_;
        const int offset = static_cast<int>(
            (access.addr - region_base) / kLineBytes);

        for (auto &acc : accTable_) {
            if (acc.valid && acc.regionBase == region_base) {
                acc.footprint |= 1ull << offset;
                acc.lastUse = ++useTick_;
                const History *h = findHistory(
                    keyLong(acc.triggerPc, acc.triggerOffset));
                if (!h)
                    h = findHistory(keyShort(acc.triggerPc));
                if (h) {
                    const uint64_t remaining =
                        h->footprint & ~acc.footprint;
                    for (int line_i = 0; line_i < linesPerRegion_;
                         ++line_i) {
                        if (remaining & (1ull << line_i))
                            out.push_back(
                                region_base +
                                static_cast<uint64_t>(line_i) *
                                    kLineBytes);
                    }
                }
                return;
            }
        }

        const History *hist = findHistory(keyLong(access.pc, offset));
        if (!hist)
            hist = findHistory(keyShort(access.pc));
        if (hist) {
            for (int line = 0; line < linesPerRegion_; ++line) {
                if (line == offset)
                    continue;
                if (hist->footprint & (1ull << line))
                    out.push_back(region_base +
                                  static_cast<uint64_t>(line) *
                                      kLineBytes);
            }
        }

        Accumulation *victim = &accTable_[0];
        if (mutation_ == PrefetchMutation::BingoFillsHighestFree) {
            Accumulation *free_entry = nullptr;
            for (auto &acc : accTable_) {
                if (!acc.valid)
                    free_entry = &acc;
                else if (acc.lastUse < victim->lastUse)
                    victim = &acc;
            }
            if (free_entry)
                victim = free_entry;
        } else {
            for (auto &acc : accTable_) {
                if (!acc.valid) {
                    victim = &acc;
                    break;
                }
                if (older(acc.lastUse, victim->lastUse))
                    victim = &acc;
            }
        }
        closeGeneration(*victim);
        victim->valid = true;
        victim->regionBase = region_base;
        victim->triggerPc = access.pc;
        victim->triggerOffset = offset;
        victim->footprint = 1ull << offset;
        victim->lastUse = ++useTick_;
    }

  private:
    struct Accumulation
    {
        uint64_t regionBase = 0;
        uint64_t triggerPc = 0;
        int triggerOffset = 0;
        uint64_t footprint = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    struct History
    {
        uint64_t key = 0;
        uint64_t footprint = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    bool
    older(uint64_t a, uint64_t b) const
    {
        return mutation_ == PrefetchMutation::LruPicksMostRecent ? a > b
                                                                 : a < b;
    }

    uint64_t
    keyLong(uint64_t pc, int offset) const
    {
        return bingoHashMix(pc * 131 + static_cast<uint64_t>(offset) + 1);
    }

    uint64_t
    keyShort(uint64_t pc) const
    {
        return bingoHashMix(pc * 31 + 0xBEEF);
    }

    const History *
    findHistory(uint64_t key) const
    {
        const size_t sets = histTable_.size() / 4;
        const size_t set = key % sets;
        for (int w = 0; w < 4; ++w) {
            const History &h = histTable_[set * 4 + w];
            if (h.valid && h.key == key)
                return &h;
        }
        return nullptr;
    }

    void
    storeHistory(uint64_t key, uint64_t footprint)
    {
        const size_t sets = histTable_.size() / 4;
        const size_t set = key % sets;
        History *victim = &histTable_[set * 4];
        for (int w = 0; w < 4; ++w) {
            History &h = histTable_[set * 4 + w];
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
    closeGeneration(Accumulation &acc)
    {
        if (!acc.valid)
            return;
        storeHistory(keyLong(acc.triggerPc, acc.triggerOffset),
                     acc.footprint);
        storeHistory(keyShort(acc.triggerPc), acc.footprint);
        acc.valid = false;
    }

    uint64_t regionBytes_;
    int linesPerRegion_;
    std::vector<Accumulation> accTable_;
    std::vector<History> histTable_;
    uint64_t useTick_ = 0;
    PrefetchMutation mutation_;
};

class RefMlop
{
  public:
    RefMlop(int levels, int history, int epoch)
        : levels_(levels), epoch_(epoch), history_(history, 0),
          chosen_(levels, 0)
    {
    }

    int levelOffset(int level) const { return chosen_[level]; }
    int levels() const { return levels_; }

    void
    reset()
    {
        std::fill(history_.begin(), history_.end(), 0);
        std::fill(chosen_.begin(), chosen_.end(), 0);
        histPos_ = 0;
        histFill_ = 0;
        accessesSinceTrain_ = 0;
    }

    void
    onAccess(const PrefetchAccess &access, std::vector<uint64_t> &out)
    {
        const int64_t line =
            static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

        history_[histPos_] = line;
        histPos_ = (histPos_ + 1) % history_.size();
        histFill_ = std::min(histFill_ + 1, history_.size());

        if (++accessesSinceTrain_ >= epoch_) {
            accessesSinceTrain_ = 0;
            retrain();
        }

        uint64_t seen_mask = 0;
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
            if (target > 0 && (target >> 6) == (line >> 6)) {
                out.push_back(static_cast<uint64_t>(target) * kLineBytes);
                ++emitted;
            }
        }
    }

  private:
    static constexpr int kMaxOffset = 31;

    void
    retrain()
    {
        const size_t n = histFill_;
        for (int k = 1; k <= levels_; ++k) {
            std::array<int, 2 * kMaxOffset + 1> hist{};
            int samples = 0;
            for (size_t t = static_cast<size_t>(k); t < n; ++t) {
                const size_t cur = (histPos_ + history_.size() - n + t) %
                    history_.size();
                const size_t prev = (cur + history_.size() -
                                     static_cast<size_t>(k)) %
                    history_.size();
                const int64_t delta = history_[cur] - history_[prev];
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
            const int num = best_count * (k <= 8 ? 2 : 3);
            const int den = samples * (k <= 8 ? 1 : 2);
            chosen_[k - 1] = (samples >= 32 && num >= den) ? best : 0;
        }
    }

    int levels_;
    int epoch_;
    std::vector<int64_t> history_;
    size_t histPos_ = 0;
    size_t histFill_ = 0;
    int accessesSinceTrain_ = 0;
    std::vector<int> chosen_;
};

uint64_t
pythiaHashMix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 29;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 32;
    return x;
}

class RefPythia
{
  public:
    static constexpr int kNumActions = PythiaPrefetcher::kNumActions;

    RefPythia(const PythiaConfig &config, PrefetchMutation m)
        : config_(config), rng_(config.seed),
          q0_(static_cast<size_t>(config.planeEntries) * kNumActions,
              config.qInit / 2.0),
          q1_(static_cast<size_t>(config.planeEntries) * kNumActions,
              config.qInit / 2.0),
          mutation_(m)
    {
    }

    void
    setBandwidthProbe(std::function<double(uint64_t)> probe)
    {
        bwProbe_ = std::move(probe);
    }

    const std::array<uint64_t, kNumActions> &
    actionCounts() const
    {
        return actionCounts_;
    }

    void
    reset()
    {
        std::fill(q0_.begin(), q0_.end(), config_.qInit / 2.0);
        std::fill(q1_.begin(), q1_.end(), config_.qInit / 2.0);
        eq_.clear();
        pending_.clear();
        eqNextId_ = 0;
        eqBaseId_ = 0;
        lastLine_ = 0;
        delta1_ = 0;
        delta2_ = 0;
        actionCounts_.fill(0);
        rng_.reseed(config_.seed);
    }

    void
    onAccess(const PrefetchAccess &access, std::vector<uint64_t> &out)
    {
        const int64_t line =
            static_cast<int64_t>(lineAddr(access.addr) / kLineBytes);

        auto it = pending_.find(static_cast<uint64_t>(line));
        if (it != pending_.end()) {
            const int idx = it->second - eqBaseId_;
            if (idx >= 0 && idx < static_cast<int>(eq_.size())) {
                EqEntry &entry = eq_[idx];
                const uint64_t elapsed = access.cycle - entry.issueCycle;
                if (elapsed >= config_.lateThresholdCycles)
                    ++entry.timelyHits;
                else
                    ++entry.lateHits;
            }
            pending_.erase(it);
        }

        const int f0 = featurePc(access.pc);
        const int f1 = featureDeltas();
        const int action = selectAction(f0, f1);
        ++actionCounts_[action];

        const int offset = PythiaPrefetcher::offsets()[action >> 2];
        const int degree = PythiaPrefetcher::degrees()[action & 3];

        EqEntry entry;
        entry.f0 = f0;
        entry.f1 = f1;
        entry.action = action;
        entry.issued = offset != 0;
        entry.bwUtil = bwProbe_ ? bwProbe_(access.cycle) : 0.0;
        entry.issueCycle = access.cycle;

        if (offset != 0) {
            for (int i = 1; i <= degree; ++i) {
                const int64_t target =
                    line + static_cast<int64_t>(offset) * i;
                if (target <= 0)
                    continue;
                out.push_back(static_cast<uint64_t>(target) * kLineBytes);
                if (pending_.count(static_cast<uint64_t>(target)))
                    continue;
                entry.predictedLines.push_back(
                    static_cast<uint64_t>(target));
                pending_[static_cast<uint64_t>(target)] = eqNextId_;
            }
        }

        eq_.push_back(std::move(entry));
        ++eqNextId_;
        while (static_cast<int>(eq_.size()) > config_.eqDepth)
            retireOldest();

        const int64_t d = line - lastLine_;
        if (d != 0) {
            delta2_ = delta1_;
            delta1_ = d;
        }
        lastLine_ = line;
    }

  private:
    struct EqEntry
    {
        int f0 = 0;
        int f1 = 0;
        int action = 0;
        bool issued = false;
        double bwUtil = 0.0;
        uint64_t issueCycle = 0;
        int timelyHits = 0;
        int lateHits = 0;
        std::vector<uint64_t> predictedLines;
    };

    int
    featurePc(uint64_t pc) const
    {
        return static_cast<int>(
            pythiaHashMix(pc) % static_cast<uint64_t>(config_.planeEntries));
    }

    int
    featureDeltas() const
    {
        const uint64_t key =
            pythiaHashMix(static_cast<uint64_t>(delta1_) * 131 +
                          static_cast<uint64_t>(delta2_) * 7 + 3);
        return static_cast<int>(
            key % static_cast<uint64_t>(config_.planeEntries));
    }

    double
    qValue(int f0, int f1, int a) const
    {
        return q0_[static_cast<size_t>(f0) * kNumActions + a] +
            q1_[static_cast<size_t>(f1) * kNumActions + a];
    }

    int
    selectAction(int f0, int f1)
    {
        if (rng_.bernoulli(config_.epsilon))
            return static_cast<int>(rng_.below(kNumActions));
        const bool highest_tie =
            mutation_ == PrefetchMutation::PythiaTieTakesHighest;
        int best = 0;
        double best_q = qValue(f0, f1, 0);
        for (int a = 1; a < kNumActions; ++a) {
            const double q = qValue(f0, f1, a);
            if (q > best_q || (highest_tie && q == best_q)) {
                best_q = q;
                best = a;
            }
        }
        return best;
    }

    void
    retireOldest()
    {
        EqEntry e = std::move(eq_.front());
        eq_.pop_front();
        const int retired_id = eqBaseId_++;

        for (uint64_t line : e.predictedLines) {
            auto it = pending_.find(line);
            if (it != pending_.end() && it->second == retired_id)
                pending_.erase(it);
        }

        double reward;
        if (e.issued) {
            const double timely = static_cast<double>(e.timelyHits);
            const double late = static_cast<double>(e.lateHits);
            const double miss =
                static_cast<double>(e.predictedLines.size()) - timely -
                late;
            reward = timely * config_.rewardHit +
                late * config_.rewardLate +
                miss * (config_.rewardMiss -
                        config_.bwPenaltyScale * e.bwUtil);
        } else {
            reward = config_.rewardNone +
                0.5 * config_.bwPenaltyScale * e.bwUtil;
        }

        double q_next = 0.0;
        if (!eq_.empty()) {
            const EqEntry &n = eq_.front();
            q_next = qValue(n.f0, n.f1, n.action);
        }

        const double q_sa = qValue(e.f0, e.f1, e.action);
        const double delta = reward + config_.gamma * q_next - q_sa;
        const double step = config_.alpha * delta * 0.5;
        q0_[static_cast<size_t>(e.f0) * kNumActions + e.action] += step;
        q1_[static_cast<size_t>(e.f1) * kNumActions + e.action] += step;
    }

    PythiaConfig config_;
    Rng rng_;
    std::vector<double> q0_;
    std::vector<double> q1_;
    std::deque<EqEntry> eq_;
    std::unordered_map<uint64_t, int> pending_;
    int eqNextId_ = 0;
    int eqBaseId_ = 0;
    int64_t lastLine_ = 0;
    int64_t delta1_ = 0;
    int64_t delta2_ = 0;
    std::function<double(uint64_t)> bwProbe_;
    std::array<uint64_t, kNumActions> actionCounts_{};
    PrefetchMutation mutation_;
};

class RefEnsemble
{
  public:
    explicit RefEnsemble(PrefetchMutation m)
        : stream_(64, m), stride_(64, 0, m)
    {
        applyArm(0);
    }

    void
    applyArm(ArmId arm)
    {
        const PrefetchArm &cfg = prefetchArmTable()[arm];
        nextLine_.setEnabled(cfg.nextLineOn);
        stride_.setDegree(cfg.strideDegree);
        stream_.setDegree(cfg.streamDegree);
    }

    void
    onAccess(const PrefetchAccess &access, std::vector<uint64_t> &out)
    {
        nextLine_.onAccess(access, out);
        stream_.onAccess(access, out);
        stride_.onAccess(access, out);
    }

    void
    reset()
    {
        nextLine_.reset();
        stream_.reset();
        stride_.reset();
    }

    const RefStream &stream() const { return stream_; }
    const RefStride &stride() const { return stride_; }

  private:
    RefNextLine nextLine_;
    RefStream stream_;
    RefStride stride_;
};

// ---------------------------------------------------------------------
// One adapter for the optimized and the reference prefetchers: both
// spell their knobs and accessors the same way.
// ---------------------------------------------------------------------

template <class P>
class ModelAdapter final : public PrefetchModel
{
  public:
    template <class... Args>
    explicit ModelAdapter(Args &&...args)
        : p_(std::forward<Args>(args)...)
    {
    }

    P &prefetcher() { return p_; }

    void
    onAccess(const PrefetchAccess &access,
             std::vector<uint64_t> &out) override
    {
        p_.onAccess(access, out);
    }

    void reset() override { p_.reset(); }

    void
    setKnob(int value) override
    {
        if constexpr (requires { p_.applyArm(value); })
            p_.applyArm(value);
        else if constexpr (requires { p_.setDegree(value); })
            p_.setDegree(value);
        else if constexpr (requires { p_.setEnabled(true); })
            p_.setEnabled(value != 0);
    }

    std::vector<TrackerTag>
    trackerTags() const override
    {
        if constexpr (requires { p_.trackerTags(); }) {
            return p_.trackerTags();
        } else if constexpr (requires { p_.stream(); }) {
            std::vector<TrackerTag> tags = p_.stream().trackerTags();
            const std::vector<TrackerTag> stride = p_.stride().trackerTags();
            tags.insert(tags.end(), stride.begin(), stride.end());
            return tags;
        } else {
            return {};
        }
    }

    std::vector<int64_t>
    observables() const override
    {
        std::vector<int64_t> obs;
        if constexpr (requires { p_.actionCounts(); }) {
            for (uint64_t n : p_.actionCounts())
                obs.push_back(static_cast<int64_t>(n));
        } else if constexpr (requires { p_.levelOffset(0); }) {
            for (int k = 0; k < p_.levels(); ++k)
                obs.push_back(p_.levelOffset(k));
        }
        return obs;
    }

  private:
    P p_;
};

std::function<double(uint64_t)>
bwProbeOf(const double *bw)
{
    return [bw](uint64_t) { return *bw; };
}

/**
 * Build the model of @p c from the prefetcher types of one family:
 * the optimized classes, or the reference ones (which also take the
 * mutation).
 */
template <class NextLine, class Stream, class Stride, class Bingo,
          class Mlop, class Pythia, class Ensemble, class... Mut>
std::unique_ptr<PrefetchModel>
buildModel(const PrefetchCase &c, const double *bw, Mut... m)
{
    switch (c.kind) {
      case PrefetchKind::NextLine:
        return std::make_unique<ModelAdapter<NextLine>>();
      case PrefetchKind::Stream:
        return std::make_unique<ModelAdapter<Stream>>(c.trackers, m...);
      case PrefetchKind::Stride:
        return std::make_unique<ModelAdapter<Stride>>(
            c.trackers, c.strideDegree, m...);
      case PrefetchKind::Bingo:
        return std::make_unique<ModelAdapter<Bingo>>(
            c.regionBytes, c.accumulationEntries, c.historyEntries, m...);
      case PrefetchKind::Mlop:
        return std::make_unique<ModelAdapter<Mlop>>(
            c.mlopLevels, c.mlopHistory, c.mlopEpoch);
      case PrefetchKind::Pythia: {
        auto model = std::make_unique<ModelAdapter<Pythia>>(c.pythia, m...);
        if (c.bwProbe)
            model->prefetcher().setBandwidthProbe(bwProbeOf(bw));
        return model;
      }
      case PrefetchKind::Ensemble:
        return std::make_unique<ModelAdapter<Ensemble>>(m...);
    }
    return nullptr;
}

std::string
opLabel(size_t index, const PrefetchOp &op)
{
    std::ostringstream os;
    os << "op #" << index;
    switch (op.kind) {
      case PrefetchOp::Kind::Access:
        os << " (access pc=0x" << std::hex << op.access.pc << " addr=0x"
           << op.access.addr << std::dec << " cycle=" << op.access.cycle
           << " bw=" << op.bw << ")";
        break;
      case PrefetchOp::Kind::Reset:
        os << " (reset)";
        break;
      case PrefetchOp::Kind::Knob:
        os << " (knob " << op.knob << ")";
        break;
    }
    return os.str();
}

template <class T>
std::string
formatList(const std::vector<T> &v)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            os << " ";
        if constexpr (std::is_same_v<T, TrackerTag>) {
            if (v[i].valid)
                os << "0x" << std::hex << v[i].key << std::dec;
            else
                os << "-";
        } else if constexpr (std::is_same_v<T, uint64_t>) {
            os << "0x" << std::hex << v[i] << std::dec;
        } else {
            os << v[i];
        }
    }
    os << "]";
    return os.str();
}

} // namespace

const char *
toString(PrefetchKind kind)
{
    switch (kind) {
      case PrefetchKind::NextLine: return "NextLine";
      case PrefetchKind::Stream: return "Stream";
      case PrefetchKind::Stride: return "Stride";
      case PrefetchKind::Bingo: return "Bingo";
      case PrefetchKind::Mlop: return "MLOP";
      case PrefetchKind::Pythia: return "Pythia";
      case PrefetchKind::Ensemble: return "Ensemble";
    }
    return "?";
}

const char *
toString(PrefetchMutation m)
{
    switch (m) {
      case PrefetchMutation::None: return "None";
      case PrefetchMutation::LruPicksMostRecent: return "LruPicksMostRecent";
      case PrefetchMutation::StreamTakesLastQualifying:
        return "StreamTakesLastQualifying";
      case PrefetchMutation::BingoFillsHighestFree:
        return "BingoFillsHighestFree";
      case PrefetchMutation::PythiaTieTakesHighest:
        return "PythiaTieTakesHighest";
    }
    return "?";
}

std::vector<PrefetchMutation>
allPrefetchMutations()
{
    return {PrefetchMutation::LruPicksMostRecent,
            PrefetchMutation::StreamTakesLastQualifying,
            PrefetchMutation::BingoFillsHighestFree,
            PrefetchMutation::PythiaTieTakesHighest};
}

PrefetchModelFactory
optimizedPrefetchFactory()
{
    return [](const PrefetchCase &c, const double *bw) {
        return buildModel<NextLinePrefetcher, StreamPrefetcher,
                          StridePrefetcher, BingoPrefetcher,
                          MlopPrefetcher, PythiaPrefetcher,
                          BanditEnsemblePrefetcher>(c, bw);
    };
}

PrefetchModelFactory
referencePrefetchFactory(PrefetchMutation m)
{
    return [m](const PrefetchCase &c, const double *bw) {
        return buildModel<RefNextLine, RefStream, RefStride, RefBingo,
                          RefMlop, RefPythia, RefEnsemble>(c, bw, m);
    };
}

std::string
formatPrefetchCase(const PrefetchCase &c)
{
    std::ostringstream os;
    os << toString(c.kind);
    switch (c.kind) {
      case PrefetchKind::Stream:
        os << " trackers=" << c.trackers;
        break;
      case PrefetchKind::Stride:
        os << " trackers=" << c.trackers << " degree=" << c.strideDegree;
        break;
      case PrefetchKind::Bingo:
        os << " region=" << c.regionBytes
           << " acc=" << c.accumulationEntries
           << " hist=" << c.historyEntries;
        break;
      case PrefetchKind::Mlop:
        os << " levels=" << c.mlopLevels << " history=" << c.mlopHistory
           << " epoch=" << c.mlopEpoch;
        break;
      case PrefetchKind::Pythia:
        os << " planes=" << c.pythia.planeEntries
           << " eqDepth=" << c.pythia.eqDepth
           << " epsilon=" << c.pythia.epsilon
           << " qInit=" << c.pythia.qInit
           << " late=" << c.pythia.lateThresholdCycles
           << " seed=" << c.pythia.seed << " bwProbe=" << c.bwProbe;
        break;
      case PrefetchKind::NextLine:
      case PrefetchKind::Ensemble:
        break;
    }
    os << ", " << c.ops.size() << " ops";
    constexpr size_t kListedOps = 40;
    if (c.ops.size() <= kListedOps) {
        for (size_t i = 0; i < c.ops.size(); ++i)
            os << "\n  " << opLabel(i, c.ops[i]);
    }
    return os.str();
}

PrefetchCase
genPrefetchCase(uint64_t seed)
{
    Rng rng(subSeed(seed, 8));
    PrefetchCase c;
    c.kind = static_cast<PrefetchKind>(rng.below(7));
    // Small tables fill and evict within a short case; one in four
    // keeps the paper's 64 entries.
    const auto table_size = [&rng] {
        return rng.below(4) == 0 ? 64 : 1 + static_cast<int>(rng.below(12));
    };
    c.trackers = table_size();
    c.strideDegree = static_cast<int>(rng.below(5));
    c.regionBytes = kLineBytes << rng.below(7); // 64 B .. 4 KB
    c.accumulationEntries = table_size();
    c.historyEntries =
        rng.below(4) == 0 ? 2048 : 4 << static_cast<int>(rng.below(6));
    c.mlopLevels = 1 + static_cast<int>(rng.below(16));
    c.mlopHistory = 1 + static_cast<int>(rng.below(320));
    c.mlopEpoch = 1 + static_cast<int>(rng.below(400));
    // Few feature rows and qInit 0 make argmax ties common.
    c.pythia.planeEntries =
        rng.below(2) == 0 ? 96 : 1 + static_cast<int>(rng.below(8));
    c.pythia.eqDepth =
        rng.below(3) == 0 ? 64 : static_cast<int>(rng.below(9));
    const double epsilons[] = {0.0, 0.01, 0.25};
    c.pythia.epsilon = epsilons[rng.below(3)];
    c.pythia.qInit = rng.below(2) == 0 ? 0.0 : 24.0;
    c.pythia.lateThresholdCycles = rng.below(2) == 0 ? 340 : rng.below(1000);
    c.pythia.seed = rng.next64();
    c.bwProbe = rng.below(2) == 0;

    const int entries = c.kind == PrefetchKind::Bingo
        ? c.accumulationEntries
        : c.kind == PrefetchKind::Ensemble ? 64 : c.trackers;
    // More PCs and 16-line areas than table entries, so tables evict.
    const uint64_t pcs = 1 + rng.below(2 * static_cast<uint64_t>(entries) + 8);
    const uint64_t areas =
        1 + rng.below(2 * static_cast<uint64_t>(entries) + 8);
    // One case in four lives next to address 0, where targets <= 0
    // are dropped.
    const uint64_t base_line = rng.below(4) == 0 ? 0 : 1ull << 24;
    // One case in four also sees the odd non-finite reading, which
    // turns Q-values NaN and exercises the argmax's NaN handling.
    const bool non_finite_bw = rng.below(4) == 0;
    const auto pick_pc = [&] { return 0x400000 + 4 * rng.below(pcs); };
    const auto area_line = [&] {
        return static_cast<int64_t>(rng.below(areas) * 16 + rng.below(16));
    };

    struct Cursor
    {
        int64_t line;
        int64_t stride;
        uint64_t pc;
    };
    std::vector<Cursor> cursors(1 + rng.below(6));
    for (Cursor &cur : cursors)
        cur = {area_line(), rng.range(-5, 5), pick_pc()};

    const size_t nops = 20 + rng.below(1500);
    c.ops.reserve(nops);
    uint64_t cycle = 0;
    uint64_t instr = 0;
    for (size_t i = 0; i < nops; ++i) {
        PrefetchOp op;
        const uint64_t r = rng.below(1000);
        if (r < 5) {
            op.kind = PrefetchOp::Kind::Reset;
        } else if (r < 35) {
            op.kind = PrefetchOp::Kind::Knob;
            op.knob = static_cast<int>(
                c.kind == PrefetchKind::Ensemble ? rng.below(11)
                    : c.kind == PrefetchKind::NextLine ? rng.below(2)
                                                       : rng.below(17));
        } else {
            Cursor &cur = cursors[rng.below(cursors.size())];
            const uint64_t m = rng.below(16);
            if (m < 9)
                cur.line += cur.stride; // stride 0 repeats the line
            else if (m < 12)
                cur.line += rng.range(-4, 4); // several trackers qualify
            else if (m < 14)
                cur.line = area_line(); // jump / region re-trigger
            else if (m < 15)
                cur.stride = rng.range(-5, 5);
            else
                cur.pc = pick_pc();
            cur.line = std::abs(cur.line);
            cycle += rng.below(400);
            instr += 1 + rng.below(64);
            op.access.pc = rng.below(4) == 0 ? pick_pc() : cur.pc;
            op.access.addr =
                (base_line + static_cast<uint64_t>(cur.line)) * kLineBytes +
                rng.below(kLineBytes);
            op.access.hit = rng.below(2) == 0;
            op.access.cycle = cycle;
            op.access.instrCount = instr;
            // DRAM utilization: idle, saturated, anything in between,
            // and the backlog overshoot past 1.
            const uint64_t b = rng.below(4);
            op.bw = b == 0 ? 0.0 : b == 1 ? 1.0 : rng.uniform(0.0, 1.5);
            if (non_finite_bw && rng.below(200) == 0)
                op.bw = rng.below(2) == 0
                    ? std::numeric_limits<double>::quiet_NaN()
                    : std::numeric_limits<double>::infinity();
        }
        c.ops.push_back(op);
    }
    return c;
}

std::string
diffPrefetchCase(const PrefetchCase &c, const PrefetchModelFactory &impl)
{
    double bw = 0.0;
    std::unique_ptr<PrefetchModel> dut = impl(c, &bw);
    std::unique_ptr<PrefetchModel> ref = referencePrefetchFactory()(c, &bw);
    std::vector<uint64_t> a, b;
    for (size_t i = 0; i < c.ops.size(); ++i) {
        const PrefetchOp &op = c.ops[i];
        switch (op.kind) {
          case PrefetchOp::Kind::Access:
            bw = op.bw;
            a.clear();
            b.clear();
            dut->onAccess(op.access, a);
            ref->onAccess(op.access, b);
            if (a != b)
                return opLabel(i, op) + ": emitted impl=" + formatList(a) +
                    " ref=" + formatList(b);
            break;
          case PrefetchOp::Kind::Reset:
            dut->reset();
            ref->reset();
            break;
          case PrefetchOp::Kind::Knob:
            dut->setKnob(op.knob);
            ref->setKnob(op.knob);
            break;
        }
        const std::vector<TrackerTag> ta = dut->trackerTags();
        const std::vector<TrackerTag> tb = ref->trackerTags();
        if (ta != tb)
            return opLabel(i, op) + ": tracker tags impl=" + formatList(ta) +
                " ref=" + formatList(tb);
        const std::vector<int64_t> oa = dut->observables();
        const std::vector<int64_t> ob = ref->observables();
        if (oa != ob)
            return opLabel(i, op) + ": observables impl=" + formatList(oa) +
                " ref=" + formatList(ob);
    }
    return "";
}

std::string
diffPrefetchCase(const PrefetchCase &c)
{
    return diffPrefetchCase(c, optimizedPrefetchFactory());
}

PrefetchCase
shrinkPrefetchCase(const PrefetchCase &c, const PrefetchModelFactory &impl)
{
    const auto fails = [&impl](const PrefetchCase &t) {
        return !diffPrefetchCase(t, impl).empty();
    };
    if (!fails(c))
        return c;
    PrefetchCase cur = c;

    // ddmin-style chunk removal over the ops.
    for (size_t chunk = std::max<size_t>(1, cur.ops.size() / 2);;
         chunk = std::max<size_t>(1, chunk / 2)) {
        for (size_t start = 0; start < cur.ops.size();) {
            PrefetchCase trial = cur;
            const size_t end = std::min(start + chunk, trial.ops.size());
            trial.ops.erase(
                trial.ops.begin() + static_cast<std::ptrdiff_t>(start),
                trial.ops.begin() + static_cast<std::ptrdiff_t>(end));
            if (!trial.ops.empty() && fails(trial))
                cur = trial;
            else
                start += chunk;
        }
        if (chunk == 1)
            break;
    }

    // Smaller structures, each kept only if the case still fails.
    const auto try_knob = [&](auto &&mutate) {
        PrefetchCase trial = cur;
        mutate(trial);
        if (fails(trial))
            cur = trial;
    };
    for (int n : {1, 2, 4}) {
        try_knob([n](PrefetchCase &t) {
            t.trackers = std::min(t.trackers, n);
        });
        try_knob([n](PrefetchCase &t) {
            t.accumulationEntries = std::min(t.accumulationEntries, n);
        });
        try_knob([n](PrefetchCase &t) {
            t.pythia.eqDepth = std::min(t.pythia.eqDepth, n - 1);
        });
    }
    try_knob([](PrefetchCase &t) { t.historyEntries = 4; });
    try_knob([](PrefetchCase &t) { t.pythia.planeEntries = 1; });
    try_knob([](PrefetchCase &t) { t.bwProbe = false; });
    return cur;
}

} // namespace mab::fuzz
