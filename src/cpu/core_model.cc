#include "cpu/core_model.h"

#include <algorithm>
#include <type_traits>

#include "cpu/bandit_prefetch.h"
#include "sim/tracing.h"

namespace mab {

CoreModel::CoreModel(const CoreConfig &config,
                     const HierarchyConfig &hconfig, ReplaySource &trace,
                     Prefetcher *l2Prefetcher, Prefetcher *l1Prefetcher,
                     const DramConfig &dram)
    : config_(config), hierarchy_(hconfig, dram), trace_(trace),
      l2Prefetcher_(l2Prefetcher), l1Prefetcher_(l1Prefetcher),
      banditL2_(dynamic_cast<BanditPrefetchController *>(l2Prefetcher)),
      fetchStep_(1.0 / config.fetchWidth),
      commitStep_(1.0 / config.commitWidth),
      robCommit_(config.robSize, 0.0)
{
}

CoreModel::CoreModel(const CoreConfig &config,
                     const HierarchyConfig &hconfig, Cache *sharedLlc,
                     Dram *sharedDram, ReplaySource &trace,
                     Prefetcher *l2Prefetcher, Prefetcher *l1Prefetcher)
    : config_(config), hierarchy_(hconfig, sharedLlc, sharedDram),
      trace_(trace), l2Prefetcher_(l2Prefetcher),
      l1Prefetcher_(l1Prefetcher),
      banditL2_(dynamic_cast<BanditPrefetchController *>(l2Prefetcher)),
      fetchStep_(1.0 / config.fetchWidth),
      commitStep_(1.0 / config.commitWidth),
      robCommit_(config.robSize, 0.0)
{
}

template <bool Profiled>
void
CoreModel::issuePrefetchesT(const PrefetchAccess &access, bool at_l1)
{
    std::conditional_t<Profiled, tracing::ScopedPhase,
                       tracing::NoopPhase>
        phase(tracing::Phase::PrefetchIssue);
    Prefetcher *pf = at_l1 ? l1Prefetcher_ : l2Prefetcher_;
    pfScratch_.clear();
    if (!at_l1 && banditL2_)
        banditL2_->onAccess(access, pfScratch_); // direct (final)
    else
        pf->onAccess(access, pfScratch_);
    const uint64_t issue_cycle = access.cycle +
        config_.prefetchIssueLatency;
    for (uint64_t addr : pfScratch_) {
        if (at_l1)
            hierarchy_.issueL1Prefetch(addr, issue_cycle);
        else
            hierarchy_.issuePrefetch(addr, issue_cycle);
    }
}

template <bool Profiled>
void
CoreModel::stepRecT(const PackedRecord &rec)
{
    std::conditional_t<Profiled, tracing::ScopedPhase,
                       tracing::NoopPhase>
        phase(tracing::Phase::CoreTick);
    const size_t slot = robSlot_;
    if (++robSlot_ == static_cast<size_t>(config_.robSize))
        robSlot_ = 0;

    // Dispatch: the frontend must have the instruction (fetch clock,
    // possibly stalled by a misprediction) and the ROB entry of
    // instruction i - robSize must have committed.
    double dispatch = std::max(fetchClock_, robCommit_[slot]);
    dispatch = std::max(dispatch,
                        static_cast<double>(frontendStallUntil_));
    fetchClock_ = dispatch + fetchStep_;

    double complete = dispatch + 1.0;
    if (rec.isMemory()) {
        uint64_t issue_cycle = static_cast<uint64_t>(dispatch);
        if (rec.dependsOnPrevLoad())
            issue_cycle = std::max(issue_cycle, prevLoadDone_);

        const auto res = hierarchy_.demandAccessT<Profiled>(
            rec.addr, rec.isStore(), issue_cycle);
        if (rec.isLoad()) {
            complete = std::max(complete,
                                static_cast<double>(res.readyCycle));
            prevLoadDone_ = res.readyCycle;
        }
        // Stores commit without waiting for memory (store buffer).

        if (l2Prefetcher_ && res.level != HitLevel::L1) {
            PrefetchAccess pa;
            pa.pc = rec.pc();
            pa.addr = rec.addr;
            pa.hit = res.level == HitLevel::L2;
            pa.cycle = issue_cycle;
            pa.instrCount = instructions_;
            issuePrefetchesT<Profiled>(pa, false);
        }
        if (l1Prefetcher_) {
            PrefetchAccess pa;
            pa.pc = rec.pc();
            pa.addr = rec.addr;
            pa.hit = res.level == HitLevel::L1;
            pa.cycle = issue_cycle;
            pa.instrCount = instructions_;
            issuePrefetchesT<Profiled>(pa, true);
        }
    }

    if (rec.mispredictedBranch()) {
        frontendStallUntil_ = static_cast<uint64_t>(complete) +
            config_.branchMissPenalty;
    }

    // In-order commit at commitWidth per cycle.
    commitClock_ = std::max(commitClock_ + commitStep_, complete);
    robCommit_[slot] = commitClock_;
    robResidencySum_ += commitClock_ - dispatch;
    ++instructions_;
}

void
CoreModel::stepOne()
{
    if (tracing::Tracer::profileActive())
        stepRecT<true>(trace_.nextPacked());
    else
        stepRecT<false>(trace_.nextPacked());
}

template <bool Profiled>
void
CoreModel::runTo(uint64_t instructions, uint64_t granularity)
{
    if (granularity == 0) {
        // The baseline loop: no sampling and (for the unprofiled
        // instantiation) no phase timers, no per-step dispatch branch
        // anywhere down the call chain.
        while (instructions_ < instructions)
            stepRecT<Profiled>(trace_.nextPacked());
        return;
    }

    uint64_t next_sample = (cycles() / granularity + 1) * granularity;
    while (instructions_ < instructions) {
        stepRecT<Profiled>(trace_.nextPacked());
        if (cycles() >= next_sample) {
            sampleInterval();
            next_sample =
                (cycles() / granularity + 1) * granularity;
        }
    }
    sampleInterval();
}

void
CoreModel::run(uint64_t instructions)
{
    // One profiling test per run() call; both loop flavors below are
    // branch-free on the tracing state per instruction.
    const uint64_t granularity =
        tracing::Tracer::global().sampleGranularity();
    if (tracing::Tracer::profileActive())
        runTo<true>(instructions, granularity);
    else
        runTo<false>(instructions, granularity);
}

void
CoreModel::sampleInterval()
{
    tracing::Tracer &tracer = tracing::Tracer::global();
    const uint64_t now = cycles();
    SampleSnapshot cur;
    cur.instructions = instructions_;
    cur.cycles = now;
    cur.l2Accesses = hierarchy_.l2DemandAccesses();
    cur.l2Hits = hierarchy_.hitsAt(HitLevel::L2);
    cur.pfIssued = hierarchy_.prefetchStats().issued;
    cur.pfUseful = hierarchy_.prefetchStats().timely +
        hierarchy_.prefetchStats().late;
    if (hierarchy_.ownsDram())
        cur.dramBusyCycles = hierarchy_.dram().busBusyCycles();

    const SampleSnapshot &last = lastSample_;
    const uint64_t d_cycles =
        cur.cycles > last.cycles ? cur.cycles - last.cycles : 0;
    if (d_cycles == 0)
        return;

    tracer.counterSample(
        "IPC", now,
        static_cast<double>(cur.instructions - last.instructions) /
            static_cast<double>(d_cycles));
    const uint64_t d_l2 = cur.l2Accesses - last.l2Accesses;
    if (d_l2 > 0) {
        tracer.counterSample(
            "l2HitRate", now,
            static_cast<double>(cur.l2Hits - last.l2Hits) /
                static_cast<double>(d_l2));
    }
    const uint64_t d_issued = cur.pfIssued - last.pfIssued;
    if (d_issued > 0) {
        tracer.counterSample(
            "pfAccuracy", now,
            static_cast<double>(cur.pfUseful - last.pfUseful) /
                static_cast<double>(d_issued));
    }
    if (hierarchy_.ownsDram()) {
        tracer.counterSample(
            "dramBusUtil", now,
            (cur.dramBusyCycles - last.dramBusyCycles) /
                static_cast<double>(d_cycles));
    }
    lastSample_ = cur;
}

void
CoreModel::exportStats(StatsRegistry &reg,
                       const std::string &prefix) const
{
    reg.setCounter(prefix + ".instructions", instructions_);
    reg.setCounter(prefix + ".cycles", cycles());
    reg.setScalar(prefix + ".ipc", ipc());
    reg.setScalar(prefix + ".robOccupancy", robOccupancy());
    // MLP proxy: mean outstanding DRAM-bound demand misses observed
    // at miss issue.
    reg.setScalar(prefix + ".mlp",
                  hierarchy_.mshrOccupancy().mean());
    hierarchy_.exportStats(reg, prefix + ".mem", cycles());
}

} // namespace mab
