#include <gtest/gtest.h>

#include <memory>

#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "core/heuristics.h"
#include "smt/smt_sim.h"
#include "trace/suites.h"

namespace mab {
namespace {

/** Bench-scale Bandit config: short steps for short runs. */
BanditPrefetchConfig
scaledConfig()
{
    BanditPrefetchConfig cfg;
    cfg.hw.stepUnits = 125;
    cfg.mab.c = 0.2;
    cfg.mab.gamma = 0.99;
    return cfg;
}

/**
 * Run @p n instructions of @p app through a single core with @p pf.
 * A nonzero @p seed overrides the profile's trace seed, so callers
 * can pin determinism explicitly instead of relying on the suite
 * defaults.
 */
double
runPf(const AppProfile &app, Prefetcher &pf, uint64_t n,
      uint64_t seed = 0)
{
    AppProfile prof = app;
    if (seed != 0)
        prof.seed = seed;
    ReplaySource trace(MaterializedTrace::generate(prof, n));
    CoreModel core(CoreConfig{}, HierarchyConfig{}, trace, &pf);
    core.run(n);
    return core.ipc();
}

TEST(Integration, RunPfSeedIsReproducible)
{
    const AppProfile app = appByName("gcc06");
    NullPrefetcher none;
    const double a = runPf(app, none, 100'000, 77);
    const double b = runPf(app, none, 100'000, 77);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(Integration, BanditBeatsNoPrefetchOnStreams)
{
    const AppProfile app = appByName("lbm06");
    BanditPrefetchController bandit(scaledConfig());
    NullPrefetcher none;
    const double b = runPf(app, bandit, 800'000);
    const double n = runPf(app, none, 800'000);
    EXPECT_GT(b, 1.4 * n);
}

TEST(Integration, BanditDoesNotTankUnprefetchableApps)
{
    const AppProfile app = appByName("parsec_canneal");
    BanditPrefetchController bandit(scaledConfig());
    NullPrefetcher none;
    const double b = runPf(app, bandit, 600'000);
    const double n = runPf(app, none, 600'000);
    EXPECT_GT(b, 0.93 * n); // exploration overhead stays small
}

TEST(Integration, BanditApproachesBestStaticArm)
{
    const AppProfile app = appByName("bwaves06");
    double best = 0.0;
    for (ArmId arm = 0; arm < BanditEnsemblePrefetcher::numArms();
         ++arm) {
        MabConfig mcfg;
        mcfg.numArms = BanditEnsemblePrefetcher::numArms();
        BanditPrefetchController fixed(
            std::make_unique<FixedArmPolicy>(mcfg, arm),
            BanditHwConfig{});
        best = std::max(best, runPf(app, fixed, 800'000));
    }
    BanditPrefetchController bandit(scaledConfig());
    const double b = runPf(app, bandit, 800'000);
    EXPECT_GT(b, 0.85 * best);
}

TEST(Integration, DucbSettlesOnDominantArm)
{
    // On a pure stream, the DUCB controller must spend most of its
    // main-loop steps on prefetching arms (not arm 1 = all off).
    const AppProfile app = appByName("parsec_streamcluster");
    BanditPrefetchConfig cfg = scaledConfig();
    cfg.hw.recordHistory = true;
    BanditPrefetchController bandit(cfg);
    runPf(app, bandit, 800'000);
    const auto &policy = bandit.agent().policy();
    // The "off" arm must not be the greedy choice.
    EXPECT_NE(policy.greedyArm(), 1);
}

TEST(Integration, SelectionLatencyCostIsNegligible)
{
    const AppProfile app = appByName("lbm06");
    BanditPrefetchConfig with_latency = scaledConfig();
    with_latency.hw.selectionLatencyCycles = 500;
    BanditPrefetchConfig ideal = scaledConfig();
    ideal.hw.selectionLatencyCycles = 0;
    BanditPrefetchController a(with_latency), b(ideal);
    const double real_ipc = runPf(app, a, 600'000);
    const double ideal_ipc = runPf(app, b, 600'000);
    EXPECT_GT(real_ipc, 0.97 * ideal_ipc);
}

TEST(Integration, SmtBanditBeatsIcountOnAsymmetricMixes)
{
    SmtRunConfig cfg;
    cfg.maxCycles = 600'000;
    int wins = 0;
    const std::vector<std::pair<const char *, const char *>> mixes = {
        {"gcc", "lbm"}, {"mcf", "namd"}, {"xz", "lbm"}};
    for (const auto &[a, b] : mixes) {
        SmtSimulator sim(a, b, cfg);
        const double icount = sim.runStatic(icountPolicy()).ipcSum;
        const double bandit = sim.runBandit().ipcSum;
        wins += bandit > icount;
    }
    EXPECT_GE(wins, 2);
}

TEST(Integration, SmtBanditArmHistoryShowsRoundRobinThenSettling)
{
    SmtRunConfig cfg;
    cfg.maxCycles = 800'000;
    SmtSimulator sim("gcc", "lbm", cfg);
    const SmtRunResult r = sim.runBandit();
    // The initial round-robin phase visits all 6 arms.
    std::set<int> early;
    for (const auto &[cycle, arm] : r.armHistory) {
        if (cycle < cfg.maxCycles / 2)
            early.insert(arm);
    }
    EXPECT_GE(early.size(), 5u);
}

TEST(Integration, PhaseChangeAdaptation)
{
    // mcf06's chase phase ends in a strided phase; DUCB must end the
    // run with a prefetching arm as greedy choice, having started
    // from the chase phase where arms are equivalent.
    AppProfile app = appByName("mcf06");
    app.phases[0].lengthInstrs = 500'000; // shorten the chase phase
    BanditPrefetchConfig cfg = scaledConfig();
    cfg.hw.recordHistory = true;
    BanditPrefetchController bandit(cfg);
    runPf(app, bandit, 1'500'000);
    const auto &policy = bandit.agent().policy();
    const ArmId greedy = policy.greedyArm();
    const PrefetchArm &arm = prefetchArmTable()[greedy];
    EXPECT_TRUE(arm.strideDegree > 0 || arm.streamDegree > 0 ||
                arm.nextLineOn)
        << "greedy arm " << greedy << " prefetches nothing";
}

} // namespace
} // namespace mab
