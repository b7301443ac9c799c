#include <gtest/gtest.h>

#include <stdexcept>

#include "smt/smt_sim.h"

namespace mab {
namespace {

SmtRunConfig
quick()
{
    SmtRunConfig cfg;
    cfg.maxCycles = 150'000;
    cfg.hcEpochCycles = 4096;
    return cfg;
}

TEST(ThreadCatalog, TwentyTwoApps)
{
    EXPECT_EQ(smtAppCatalog().size(), 22u);
}

TEST(ThreadCatalog, LookupByName)
{
    EXPECT_EQ(smtAppByName("lbm").name, "lbm");
    EXPECT_THROW(smtAppByName("nope"), std::out_of_range);
}

TEST(ThreadCatalog, LbmIsStoreAndDramHeavy)
{
    const SmtAppParams &lbm = smtAppByName("lbm");
    const SmtAppParams &exchange = smtAppByName("exchange2");
    EXPECT_GT(lbm.storeFrac, exchange.storeFrac);
    EXPECT_GT(lbm.storeDrainDramRate, 0.3);
    EXPECT_LT(exchange.l1MissRate, 0.05);
}

TEST(ThreadCatalog, MixesEnumerateUnorderedPairs)
{
    EXPECT_EQ(smtMixes(226).size(), 226u);
    EXPECT_EQ(smtMixes(1000).size(), 231u); // C(22,2)
    EXPECT_EQ(smtMixes(43, 10).size(), 43u);
    EXPECT_EQ(smtMixes(1000, 10).size(), 45u); // C(10,2)
}

TEST(ThreadSource, DeterministicAndResettable)
{
    ThreadSource a(smtAppByName("gcc"), 7);
    std::vector<uint32_t> lats;
    for (int i = 0; i < 1000; ++i)
        lats.push_back(a.next().execLatency);
    a.reset();
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next().execLatency, lats[i]);
}

TEST(ThreadSource, MixMatchesParams)
{
    const SmtAppParams &p = smtAppByName("mcf");
    ThreadSource src(p, 3);
    int loads = 0, branches = 0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i) {
        const Uop u = src.next();
        loads += u.kind == UopKind::Load;
        branches += u.kind == UopKind::Branch;
    }
    EXPECT_NEAR(static_cast<double>(loads) / n, p.loadFrac, 0.01);
    EXPECT_NEAR(static_cast<double>(branches) / n, p.branchFrac, 0.01);
}

TEST(ThreadSource, RejectsLatenciesBeyondUopFields)
{
    // Uop latencies are 16-bit: l2Latency and dramLatency + 63 (the
    // longest DRAM load) must fit.
    SmtAppParams p = smtAppByName("gcc");
    p.l2Latency = 65536;
    EXPECT_THROW(UopGen(p, 1), std::invalid_argument);
    EXPECT_THROW(ThreadSource(p, 1), std::invalid_argument);
    p = smtAppByName("gcc");
    p.dramLatency = 65473;
    EXPECT_THROW(UopGen(p, 1), std::invalid_argument);
    EXPECT_THROW(ThreadSource(p, 1), std::invalid_argument);
    p.dramLatency = 65472;
    p.l2Latency = 65535;
    EXPECT_NO_THROW(ThreadSource(p, 1));
}

TEST(SmtSim, StaticRunProducesBothIpcs)
{
    SmtSimulator sim("gcc", "namd", quick());
    const SmtRunResult r = sim.runStatic(choiPolicy());
    EXPECT_GT(r.ipc[0], 0.1);
    EXPECT_GT(r.ipc[1], 0.1);
    EXPECT_NEAR(r.ipcSum, r.ipc[0] + r.ipc[1], 1e-9);
    EXPECT_EQ(r.cycles, quick().maxCycles);
}

TEST(SmtSim, RunsAreReproducible)
{
    SmtSimulator sim("gcc", "lbm", quick());
    const SmtRunResult a = sim.runStatic(choiPolicy());
    const SmtRunResult b = sim.runStatic(choiPolicy());
    EXPECT_DOUBLE_EQ(a.ipcSum, b.ipcSum);
}

TEST(SmtSim, GatingBeatsPlainIcountOnAsymmetricMix)
{
    // The headline Choi result: on a mix of a memory hog and a
    // compute thread, occupancy-threshold gating beats plain ICount.
    SmtRunConfig cfg = quick();
    cfg.maxCycles = 400'000;
    SmtSimulator sim("gcc", "lbm", cfg);
    const double icount = sim.runStatic(icountPolicy()).ipcSum;
    const double choi = sim.runStatic(choiPolicy()).ipcSum;
    EXPECT_GT(choi, icount);
}

TEST(SmtSim, BanditRunsAndRecordsHistory)
{
    SmtRunConfig cfg = quick();
    cfg.maxCycles = 400'000;
    SmtSimulator sim("gcc", "lbm", cfg);
    const SmtRunResult r = sim.runBandit();
    EXPECT_GT(r.ipcSum, 0.2);
    EXPECT_FALSE(r.armHistory.empty());
    for (const auto &[cycle, arm] : r.armHistory) {
        EXPECT_LE(cycle, cfg.maxCycles);
        EXPECT_GE(arm, 0);
        EXPECT_LT(arm, 6);
    }
}

TEST(SmtSim, BanditCompetitiveWithChoi)
{
    SmtRunConfig cfg = quick();
    cfg.maxCycles = 600'000;
    SmtSimulator sim("gcc", "lbm", cfg);
    const double choi = sim.runStatic(choiPolicy()).ipcSum;
    const double bandit = sim.runBandit().ipcSum;
    EXPECT_GT(bandit, 0.9 * choi);
}

TEST(SmtSim, InstrPerThreadRecordsAtTarget)
{
    SmtRunConfig cfg = quick();
    cfg.instrPerThread = 20'000;
    cfg.maxCycles = 2'000'000;
    SmtSimulator sim("namd", "povray", cfg);
    const SmtRunResult r = sim.runStatic(choiPolicy());
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_GT(r.ipc[1], 0.0);
    EXPECT_LT(r.cycles, cfg.maxCycles); // both targets reached early
}

TEST(SmtSim, RejectsZeroEpochAndBadPipelineConfig)
{
    SmtRunConfig cfg = quick();
    cfg.hcEpochCycles = 0;
    EXPECT_THROW(SmtSimulator("gcc", "namd", cfg),
                 std::invalid_argument);
    SmtConfig pipe;
    pipe.commitWidth = 0;
    EXPECT_THROW(SmtSimulator("gcc", "namd", quick(), pipe),
                 std::invalid_argument);
    pipe = SmtConfig{};
    pipe.iqSize = SmtConfig::kMaxSize + 1;
    EXPECT_THROW(SmtSimulator("gcc", "namd", quick(), pipe),
                 std::invalid_argument);
    // Hill Climbing needs iqSize >= 2 * hcDelta (and hcDelta >= 1).
    pipe = SmtConfig{};
    pipe.iqSize = 3;
    EXPECT_THROW(SmtSimulator("gcc", "namd", quick(), pipe),
                 std::invalid_argument);
    SmtRunConfig no_delta = quick();
    no_delta.hcDelta = 0;
    EXPECT_THROW(SmtSimulator("gcc", "namd", no_delta),
                 std::invalid_argument);
    pipe.iqSize = 4;
    SmtRunConfig tiny = quick();
    tiny.maxCycles = 20'000;
    SmtSimulator smallest("gcc", "namd", tiny, pipe);
    EXPECT_EQ(smallest.runStatic(choiPolicy()).cycles, 20'000u);
    EXPECT_EQ(smallest.runBandit().cycles, 20'000u);

    cfg.hcEpochCycles = 1;
    cfg.maxCycles = 100;
    EXPECT_EQ(SmtSimulator("gcc", "namd", cfg).runStatic(choiPolicy())
                  .cycles,
              100u);
}

TEST(SmtSim, RenameBreakdownConsistent)
{
    SmtSimulator sim("mcf", "lbm", quick());
    const SmtRunResult r = sim.runStatic(choiPolicy());
    EXPECT_EQ(r.rename.stalled + r.rename.idle + r.rename.running,
              r.rename.cycles);
}

TEST(BanditPgSelector, SwitchesArmsAndRestoresHcState)
{
    SmtBanditConfig cfg;
    cfg.stepEpochs = 1;
    cfg.stepRrEpochs = 1;
    BanditPgSelector selector(cfg);
    HillClimbing hc({97, 2});

    // Drive epochs with synthetic counters; the round-robin phase
    // alone forces several arm switches.
    int switches = 0;
    uint64_t instr = 0;
    for (int e = 1; e <= 20; ++e) {
        instr += 5000 + 100 * static_cast<uint64_t>(e % 3);
        if (selector.onEpochEnd(instr, e * 4096ull, hc))
            ++switches;
    }
    EXPECT_GE(switches, 5);
    EXPECT_GE(selector.agent().stepsCompleted(), 19u);
}

} // namespace
} // namespace mab
