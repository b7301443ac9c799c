/**
 * prefetch_explorer: run any cataloged workload under every arm of
 * the prefetching use case and under the Bandit, and print what the
 * agent learned.
 *
 *   ./examples/prefetch_explorer [app] [instructions]
 *   ./examples/prefetch_explorer mcf06 2000000
 */
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/heuristics.h"
#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "trace/suites.h"

using namespace mab;

namespace {

double
run(const AppProfile &app, Prefetcher &pf, uint64_t instr)
{
    // Every run replays one shared materialization of the workload.
    const auto trace = makeRunSource(app, instr);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, *trace, &pf);
    core.run(instr);
    return core.ipc();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app_name = argc > 1 ? argv[1] : "lbm06";
    const uint64_t instr = argc > 2
        ? std::strtoull(argv[2], nullptr, 10)
        : 1'000'000;
    const AppProfile app = appByName(app_name);

    std::printf("workload %s, %llu instructions\n\n", app_name.c_str(),
                static_cast<unsigned long long>(instr));

    // Static arms of Table 7.
    std::printf("%-6s %-28s %s\n", "arm", "config (NL/stride/stream)",
                "IPC");
    double best = 0.0;
    for (ArmId arm = 0; arm < BanditEnsemblePrefetcher::numArms();
         ++arm) {
        MabConfig mcfg;
        mcfg.numArms = BanditEnsemblePrefetcher::numArms();
        BanditPrefetchController pf(
            std::make_unique<FixedArmPolicy>(mcfg, arm),
            BanditHwConfig{});
        const double ipc = run(app, pf, instr);
        best = std::max(best, ipc);
        const PrefetchArm &cfg = prefetchArmTable()[arm];
        std::printf("%-6d NL=%-3s stride=%-2d stream=%-9d %.3f\n", arm,
                    cfg.nextLineOn ? "on" : "off", cfg.strideDegree,
                    cfg.streamDegree, ipc);
    }

    // The Bandit, with the step scaled to the short run.
    BanditPrefetchConfig cfg;
    cfg.hw.stepUnits = 125;
    cfg.mab.c = 0.2;
    cfg.mab.gamma = 0.99;
    cfg.hw.recordHistory = true;
    BanditPrefetchController bandit(cfg);
    const double bandit_ipc = run(app, bandit, instr);

    std::printf("\nBandit[DUCB]: IPC %.3f (%.1f%% of best static)\n",
                bandit_ipc, 100.0 * bandit_ipc / best);
    std::printf("greedy arm: %d, arm switches: %zu, agent storage: "
                "%llu B\n",
                bandit.agent().policy().greedyArm(),
                bandit.agent().history().size(),
                static_cast<unsigned long long>(
                    bandit.agent().storageBytes()));

    std::printf("learned arm values (normalized rewards):\n");
    const auto &rewards = bandit.agent().policy().armRewards();
    for (size_t i = 0; i < rewards.size(); ++i)
        std::printf("  arm %-2zu r=%.3f n=%.1f\n", i, rewards[i],
                    bandit.agent().policy().armCounts()[i]);
    return 0;
}
