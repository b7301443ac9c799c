#ifndef MAB_CPU_CORE_MODEL_H
#define MAB_CPU_CORE_MODEL_H

#include <cstdint>
#include <vector>

#include "memory/hierarchy.h"
#include "prefetch/prefetcher.h"
#include "sim/tracing.h"
#include "trace/replay.h"

namespace mab {

class BanditPrefetchController;

/** Core parameters (Table 4 defaults; Skylake-like). */
struct CoreConfig
{
    /** Instructions entering the window per cycle. */
    int fetchWidth = 6;

    /** Reorder-buffer entries bounding in-flight instructions. */
    int robSize = 256;

    /** In-order commit bandwidth. */
    int commitWidth = 4;

    /** Frontend refill penalty of a mispredicted branch, cycles. */
    uint64_t branchMissPenalty = 14;

    /** Cycles between a prefetch decision and its issue to the
     *  memory system. */
    uint64_t prefetchIssueLatency = 10;
};

/**
 * Trace-driven out-of-order core timing model (the ChampSim stand-in;
 * see DESIGN.md).
 *
 * The model is a ROB-window limit study: instruction i cannot enter
 * the window before instruction i - robSize has committed, independent
 * loads overlap their memory latency within the window (bounded by the
 * hierarchy's MSHRs), dependent loads (pointer chases) serialize, and
 * mispredicted branches stall the frontend. Commit is in-order at
 * commitWidth per cycle. This reproduces the first-order phenomena
 * prefetching interacts with: memory-level parallelism, bandwidth
 * contention, and pollution.
 *
 * The L2 prefetcher is trained on every demand access that reaches
 * the L2 (i.e. on L1 misses) and its requests are issued to the
 * hierarchy, which fills L2 + LLC. An optional L1 prefetcher observes
 * all demand accesses and fills the L1.
 *
 * Instructions are the PackedRecords of a ReplaySource, which must
 * hold every record the core is asked to run.
 */
class CoreModel
{
  public:
    CoreModel(const CoreConfig &config, const HierarchyConfig &hconfig,
              ReplaySource &trace, Prefetcher *l2Prefetcher,
              Prefetcher *l1Prefetcher = nullptr,
              const DramConfig &dram = {});

    /** Hierarchy with shared LLC/DRAM (multi-core experiments). */
    CoreModel(const CoreConfig &config, const HierarchyConfig &hconfig,
              Cache *sharedLlc, Dram *sharedDram, ReplaySource &trace,
              Prefetcher *l2Prefetcher,
              Prefetcher *l1Prefetcher = nullptr);

    /**
     * Execute the next instruction of the trace (MultiCoreSystem
     * interleaves its cores this way). The tracing-off path costs one
     * predicted branch over the plain simulator step; run() hoists
     * even that branch out of its loop.
     */
    void stepOne();

    /** Run until @p instructions have been committed in total. */
    void run(uint64_t instructions);

    uint64_t instructions() const { return instructions_; }

    /** Core parameters the model was built with (introspection). */
    const CoreConfig &config() const { return config_; }

    /** Committed cycles so far (the in-order commit clock). */
    uint64_t cycles() const
    {
        return static_cast<uint64_t>(commitClock_);
    }

    double
    ipc() const
    {
        const uint64_t c = cycles();
        return c == 0 ? 0.0
                      : static_cast<double>(instructions_) / c;
    }

    CacheHierarchy &hierarchy() { return hierarchy_; }
    const CacheHierarchy &hierarchy() const { return hierarchy_; }

    /**
     * Mean ROB occupancy via Little's law: the summed commit-to-
     * dispatch residency of every instruction divided by the elapsed
     * cycles.
     */
    double robOccupancy() const
    {
        return commitClock_ <= 0.0 ? 0.0
                                   : robResidencySum_ / commitClock_;
    }

    /**
     * Export core metrics under @p prefix ("core"): instructions,
     * cycles, IPC, ROB occupancy, the MSHR-parallelism MLP proxy, and
     * the whole memory hierarchy under @p prefix.mem.
     */
    void exportStats(StatsRegistry &reg,
                     const std::string &prefix) const;

  private:
    /**
     * One simulator step over @p rec, templated on whether phase
     * profiling is live. The false instantiation compiles to exactly
     * the uninstrumented step (NoopPhase, demandAccessT<false>).
     * Inlined into stepOne() and run()'s two loops (all in
     * core_model.cc), so no loop pays a call per instruction.
     */
    template <bool Profiled>
    [[gnu::always_inline]] inline void stepRecT(const PackedRecord &rec);

    template <bool Profiled>
    void issuePrefetchesT(const PrefetchAccess &access, bool at_l1);

    /**
     * The whole run loop, templated on the profiling flag so neither
     * the sampled nor the unsampled variant re-tests profileActive()
     * per instruction; run() dispatches once.
     */
    template <bool Profiled>
    void runTo(uint64_t instructions, uint64_t granularity);

    /** Last interval-sampler snapshot (sim/tracing.h); deltas between
     *  snapshots become the IPC / hit-rate / accuracy / DRAM-util
     *  counter tracks. */
    struct SampleSnapshot
    {
        uint64_t instructions = 0;
        uint64_t cycles = 0;
        uint64_t l2Accesses = 0;
        uint64_t l2Hits = 0;
        uint64_t pfIssued = 0;
        uint64_t pfUseful = 0;
        double dramBusyCycles = 0.0;
    };

    void sampleInterval();

    CoreConfig config_;
    CacheHierarchy hierarchy_;
    ReplaySource &trace_;
    Prefetcher *l2Prefetcher_;
    Prefetcher *l1Prefetcher_;

    /**
     * Devirtualization cache, resolved once at construction: when the
     * L2 prefetcher is a BanditPrefetchController (final; the paper's
     * subject) onAccess() is a direct call through this pointer.
     */
    BanditPrefetchController *banditL2_ = nullptr;

    uint64_t instructions_ = 0;
    double fetchClock_ = 0.0;
    double commitClock_ = 0.0;
    double robResidencySum_ = 0.0;
    uint64_t frontendStallUntil_ = 0;
    uint64_t prevLoadDone_ = 0;

    /**
     * Per-record loop invariants, hoisted out of the step path:
     * instructions_ % robSize as a wrapping cursor (instructions_
     * only ever increments by one per step, so the cursor tracks the
     * modulo exactly without the per-record integer divide) and the
     * reciprocal issue/commit increments (the divides by fetchWidth /
     * commitWidth are loop-invariant; precomputing the quotient
     * reuses the identical IEEE result every step).
     */
    size_t robSlot_ = 0;
    double fetchStep_ = 0.0;
    double commitStep_ = 0.0;

    /** Commit cycles of the last robSize instructions (ring). */
    std::vector<double> robCommit_;

    std::vector<uint64_t> pfScratch_;

    SampleSnapshot lastSample_;
};

} // namespace mab

#endif // MAB_CPU_CORE_MODEL_H
