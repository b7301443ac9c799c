#include "cpu/multicore.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/tracing.h"

namespace mab {

MultiCoreSystem::MultiCoreSystem(const CoreConfig &config,
                                 const HierarchyConfig &hconfig,
                                 const DramConfig &dram, int numCores)
    : coreConfig_(config), hierConfig_(hconfig)
{
    if (numCores < 1)
        throw std::invalid_argument("MultiCoreSystem: numCores < 1");
    CacheConfig shared_llc = hconfig.llc;
    shared_llc.sizeBytes *= static_cast<uint64_t>(numCores);
    llc_ = std::make_unique<Cache>(shared_llc);
    dram_ = std::make_unique<Dram>(dram);
    slots_.resize(numCores);
}

void
MultiCoreSystem::attachCore(int index, const AppProfile &app,
                            Prefetcher *l2pf)
{
    if (index < 0 || index >= numCores())
        throw std::invalid_argument(
            "MultiCoreSystem::attachCore: no core " + std::to_string(index));
    Slot &slot = slots_[index];
    slot.app = app;
    // Empty until run() sizes it to the instruction target.
    slot.trace = std::make_unique<ReplaySource>(acquireRunTrace(app, 0));
    slot.core = std::make_unique<CoreModel>(coreConfig_, hierConfig_,
                                            llc_.get(), dram_.get(),
                                            *slot.trace, l2pf);
}

MultiCoreResult
MultiCoreSystem::run(uint64_t instrPerCore)
{
    const int n = numCores();
    // Finished cores keep running, so how far a core reads is unknown
    // in advance: traces start half again past the target (rarely
    // overrun by homogeneous mixes) and double when they run out.
    const uint64_t start = instrPerCore + instrPerCore / 2;
    for (int i = 0; i < n; ++i) {
        if (!slots_[i].core)
            throw std::logic_error("MultiCoreSystem::run: core " +
                                   std::to_string(i) + " not attached");
        if (slots_[i].trace->size() < start)
            slots_[i].trace->extend(acquireRunTrace(slots_[i].app, start));
    }

    MultiCoreResult result;
    result.ipc.assign(n, 0.0);
    std::vector<bool> recorded(n, false);
    int remaining = n;

    // Interval sampler: per-core IPC and shared-bus utilization on
    // the timeline of the slowest core (the shared-DRAM clock).
    tracing::Tracer &tracer = tracing::Tracer::global();
    const uint64_t granularity = tracer.sampleGranularity();
    uint64_t next_sample = granularity;
    std::vector<uint64_t> last_instr(n, 0);
    std::vector<uint64_t> last_cycles(n, 0);
    double last_busy = 0.0;
    uint64_t last_clock = 0;

    while (remaining > 0) {
        // Advance the core whose commit clock is furthest behind so
        // that all cores see a consistent shared-DRAM timeline.
        int pick = -1;
        uint64_t best = std::numeric_limits<uint64_t>::max();
        for (int i = 0; i < n; ++i) {
            const uint64_t c = slots_[i].core->cycles();
            if (c < best) {
                best = c;
                pick = i;
            }
        }
        Slot &slot = slots_[pick];
        ReplaySource &trace = *slot.trace;
        if (trace.position() == trace.size()) [[unlikely]]
            trace.extend(acquireRunTrace(
                slot.app, std::max<uint64_t>(2 * trace.size(), 1)));
        CoreModel &core = *slot.core;
        core.stepOne();

        if (!recorded[pick] && core.instructions() >= instrPerCore) {
            recorded[pick] = true;
            result.ipc[pick] = core.ipc();
            --remaining;
        }

        if (granularity != 0 && best >= next_sample) {
            for (int i = 0; i < n; ++i) {
                const CoreModel &c = *slots_[i].core;
                const uint64_t d_c = c.cycles() - last_cycles[i];
                if (d_c == 0)
                    continue;
                tracer.counterSample(
                    "core" + std::to_string(i) + ".IPC", best,
                    static_cast<double>(c.instructions() -
                                        last_instr[i]) /
                        static_cast<double>(d_c));
                last_instr[i] = c.instructions();
                last_cycles[i] = c.cycles();
            }
            if (best > last_clock) {
                tracer.counterSample(
                    "dramBusUtil", best,
                    (dram_->busBusyCycles() - last_busy) /
                        static_cast<double>(best - last_clock));
            }
            last_busy = dram_->busBusyCycles();
            last_clock = best;
            next_sample = (best / granularity + 1) * granularity;
        }
    }

    for (double ipc : result.ipc)
        result.sumIpc += ipc;
    return result;
}

void
MultiCoreSystem::exportStats(StatsRegistry &reg,
                             const std::string &prefix) const
{
    uint64_t max_cycles = 0;
    double sum_ipc = 0.0;
    for (size_t i = 0; i < slots_.size(); ++i) {
        const CoreModel *core = slots_[i].core.get();
        if (!core)
            continue;
        core->exportStats(reg, prefix + ".core" + std::to_string(i));
        max_cycles = std::max(max_cycles, core->cycles());
        sum_ipc += core->ipc();
    }
    reg.setScalar(prefix + ".sumIpc", sum_ipc);
    reg.setCounter(prefix + ".cycles", max_cycles);
    reg.setCounter(prefix + ".llc.demandHits", llc_->demandHits);
    reg.setCounter(prefix + ".llc.demandMisses", llc_->demandMisses);
    dram_->exportStats(reg, prefix + ".dram", max_cycles);
}

} // namespace mab
