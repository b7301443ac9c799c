#ifndef MAB_SMT_PIPELINE_H
#define MAB_SMT_PIPELINE_H

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats_registry.h"
#include "smt/fetch_policy.h"
#include "smt/thread_source.h"

namespace mab {

/** SMT pipeline parameters (Table 5 defaults; Skylake-like). */
struct SmtConfig
{
    static constexpr int kThreads = 2;

    int fetchWidth = 6;
    int decodeWidth = 5;
    int commitWidth = 8;

    int iqSize = 97;
    int robSize = 224;
    int lqSize = 72;
    int sqSize = 56;
    int irfSize = 180;
    int frfSize = 164;

    /** Decoded-uop buffer between fetch and rename, per thread. */
    int fetchQueueSize = 24;

    uint64_t mispredictPenalty = 12;

    /** Largest width or structure size a pipeline accepts: the range
     *  of one per-slot release counter of the event calendar. */
    static constexpr int kMaxSize = 0xffff;
};

/**
 * Reject a config the pipeline cannot run: every width and structure
 * size must lie in [1, SmtConfig::kMaxSize].
 * @throws std::invalid_argument naming the first bad field.
 */
void validateSmtConfig(const SmtConfig &config);

/** Rename-stage activity accounting (Figure 15). */
struct RenameStats
{
    uint64_t stallRob = 0;
    uint64_t stallIq = 0;
    uint64_t stallLq = 0;
    uint64_t stallSq = 0;
    uint64_t stallRf = 0;

    /** Cycles rename dispatched nothing because a structure was full. */
    uint64_t stalled = 0;
    /** Cycles rename had no incoming uops (e.g. fetch gating). */
    uint64_t idle = 0;
    /** Cycles rename dispatched at least one uop. */
    uint64_t running = 0;

    uint64_t cycles = 0;
};

/**
 * Cycle-level model of a 2-thread SMT out-of-order pipeline with
 * dynamically shared structures (the gem5/SecSMT stand-in; DESIGN.md).
 *
 * Per cycle the model commits (in order, per thread, shared width),
 * renames/dispatches from the per-thread fetch queues (shared width;
 * the stage stalls when the ROB, IQ, LQ, SQ or a register file is
 * exhausted — the Figure 15 taxonomy), and fetches from the single
 * thread chosen by the active fetch Priority & Gating policy.
 * Execution is modeled by computing each uop's completion time at
 * dispatch from its register dependency and sampled latency; IQ and
 * SQ occupancies drain through a calendar of per-slot release counts
 * at the corresponding issue/drain times, so structure backpressure
 * behaves realistically without per-cycle wakeup scans.
 *
 * run() skips dead cycles exactly: a cycle with no calendar release,
 * commit, dispatch or fetch leaves every piece of state but the clock
 * and the rename counters unchanged, so all cycles up to the next
 * wake (calendar release, ROB-head completion, fetch redirect end)
 * are dead too and are accounted in one step. cycle() is the plain
 * one-cycle step; both produce identical state. Every stage of a
 * cycle is compiled into run()'s loop; only chunk crossings and live
 * generation in ThreadSource::next() stay out-of-line calls.
 */
class SmtPipeline
{
  public:
    /** @throws std::invalid_argument via validateSmtConfig(). */
    SmtPipeline(const SmtConfig &config,
                std::array<ThreadSource *, SmtConfig::kThreads> sources);

    /** Install the fetch PG policy (a Bandit arm or a static policy). */
    void setPolicy(const PgPolicy &policy) { policy_ = policy; }
    const PgPolicy &policy() const { return policy_; }

    /**
     * Install per-thread occupancy shares (from Hill Climbing). A
     * thread whose occupancy of a monitored structure exceeds its
     * share of that structure is fetch-gated.
     */
    void setShares(const std::array<double, SmtConfig::kThreads> &s);

    /** Advance one cycle (the unskipped reference step). */
    void cycle() { step(); }

    /**
     * Run @p n cycles, skipping dead cycles. One tracing::Phase::
     * SmtCycle profile scope covers the whole call.
     */
    void run(uint64_t n);

    uint64_t cycles() const { return now_; }
    uint64_t committed(int t) const { return threads_[t].committed; }
    uint64_t fetched(int t) const { return threads_[t].fetched; }

    double
    ipc(int t) const
    {
        return now_ == 0 ? 0.0
                         : static_cast<double>(threads_[t].committed) /
                static_cast<double>(now_);
    }

    double ipcSum() const { return ipc(0) + ipc(1); }

    const RenameStats &renameStats() const { return renameStats_; }

    /** Occupancy introspection (tests, priority metrics). */
    int iqUsed(int t) const { return threads_[t].iqUsed; }
    int robUsed(int t) const { return threads_[t].rob.size(); }
    int lqUsed(int t) const { return threads_[t].lqUsed; }
    int sqUsed(int t) const { return threads_[t].sqUsed; }
    int irfUsed(int t) const { return threads_[t].irfUsed; }
    int frfUsed(int t) const { return threads_[t].frfUsed; }
    int branchesInRob(int t) const { return threads_[t].branchesInRob; }

    /** True if thread @p t is currently fetch-gated. */
    bool isGated(int t) const;

    /**
     * Export pipeline metrics under @p prefix ("smt"): cycles, the
     * rename-stall taxonomy (Figure 15), and per-thread fetch/commit
     * counts and IPC under @p prefix.thread<i>.
     */
    void exportStats(StatsRegistry &reg,
                     const std::string &prefix) const;

    /** Wake sources of the dead-cycle skip (see nextWake()). */
    enum WakeSource : unsigned
    {
        kWakeCalendar = 1u << 0,
        kWakeRobHead = 1u << 1,
        kWakeFetchRedirect = 1u << 2,
    };

  private:
    /** Fault injection for the differential fuzzer's self-test
     *  (sim/fuzz.h): clears wake sources the skip must honour. */
    friend struct SmtWakeFault;

    static constexpr int kCalendarSize = 32768;
    static constexpr int kDepRing = 64;

    /** Fixed-capacity FIFO over a power-of-two buffer; callers never
     *  push past the capacity it was built with. */
    template <typename T>
    class Ring
    {
      public:
        explicit Ring(int capacity)
            : buf_(std::bit_ceil(static_cast<uint32_t>(capacity))),
              mask_(static_cast<uint32_t>(buf_.size()) - 1)
        {
        }

        bool empty() const { return size_ == 0; }
        int size() const { return static_cast<int>(size_); }
        const T &front() const { return buf_[head_]; }

        void
        push_back(const T &v)
        {
            assert(size_ <= mask_);
            buf_[(head_ + size_) & mask_] = v;
            ++size_;
        }

        void
        pop_front()
        {
            assert(size_ > 0);
            head_ = (head_ + 1) & mask_;
            --size_;
        }

      private:
        std::vector<T> buf_;
        uint32_t mask_;
        uint32_t head_ = 0;
        uint32_t size_ = 0;
    };

    struct RobEntry
    {
        uint64_t completeCycle = 0;
        uint32_t drainLatency = 0;
        UopKind kind = UopKind::IntAlu;
    };

    struct Thread
    {
        explicit Thread(const SmtConfig &c)
            : fetchQueue(c.fetchQueueSize), rob(c.robSize)
        {
        }

        Ring<Uop> fetchQueue;
        Ring<RobEntry> rob;
        std::array<uint64_t, kDepRing> completionRing{};
        uint64_t dispatchedCount = 0;
        uint64_t committed = 0;
        uint64_t fetched = 0;
        uint64_t fetchBlockedUntil = 0;

        int iqUsed = 0;
        int lqUsed = 0;
        int sqUsed = 0;
        int irfUsed = 0;
        int frfUsed = 0;
        int branchesInRob = 0;
    };

    /** A thread's gating thresholds under its share s: the products
     *  s * size that isGated() compares occupancies against. */
    struct GateLimits
    {
        double iq;
        double lsq;
        double rob;
        double irf;
    };

    /** Free entries of each shared structure during one rename. */
    struct Free
    {
        int rob;
        int iq;
        int lq;
        int sq;
        int irf;
        int frf;
    };

    /** Bit offset of a release counter in a calendar slot word:
     *  IQ releases of thread t at 16t, SQ releases at 16(2 + t). */
    static constexpr int
    slotShift(int thread, bool sq)
    {
        return 16 * ((sq ? 2 : 0) + thread);
    }

    /** Rename outcome of one cycle: a stall mask (bits 0-4: ROB, IQ,
     *  LQ, SQ, RF) or one of these two flags. */
    static constexpr unsigned kRenameIdle = 1u << 5;
    static constexpr unsigned kRenameRunning = 1u << 6;
    /** step() flag: the cycle changed state beyond the clock and the
     *  rename counters. */
    static constexpr unsigned kLive = 1u << 7;

    /** One cycle; returns its rename outcome, plus kLive unless the
     *  cycle was dead. Flattened: every stage inlines into it. */
    [[gnu::flatten]] unsigned step();
    /** run()'s loop, with step() and nextWake() inlined. */
    [[gnu::flatten]] void runChunk(uint64_t n);
    uint64_t nextWake(uint64_t end) const;
    void accountRename(unsigned outcome, uint64_t cycles);

    void scheduleEvent(uint64_t at, int thread, bool sq);
    bool processEvents();
    bool commitStage();
    unsigned renameStage();
    bool fetchStage();
    int pickFetchThread() const;
    bool tryDispatch(int t, Free &free, unsigned &block_mask);

    SmtConfig config_;
    std::array<ThreadSource *, SmtConfig::kThreads> sources_;
    std::array<Thread, SmtConfig::kThreads> threads_;
    std::array<GateLimits, SmtConfig::kThreads> gateLimits_;
    PgPolicy policy_;

    /** Pending releases per cycle slot (kCalendarSize slots), four
     *  16-bit counters packed per slot word (see slotShift()). */
    std::vector<uint64_t> calendar_;
    uint64_t now_ = 0;
    int rrNext_ = 0;
    int renameNext_ = 0;
    unsigned wakeSources_ = kWakeCalendar | kWakeRobHead |
        kWakeFetchRedirect;
    RenameStats renameStats_;
};

} // namespace mab

#endif // MAB_SMT_PIPELINE_H
