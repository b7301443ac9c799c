#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <tuple>

#include "sim/fuzz.h"
#include "sim/rng.h"
#include "smt/hill_climbing.h"
#include "smt/pipeline.h"
#include "smt/smt_sim.h"
#include "smt/thread_source.h"

namespace mab {
namespace {

SmtAppParams
computeApp()
{
    SmtAppParams p;
    p.name = "compute";
    p.loadFrac = 0.1;
    p.storeFrac = 0.05;
    p.branchFrac = 0.1;
    p.fpFrac = 0.0;
    p.mispredictRate = 0.0;
    p.l1MissRate = 0.0;
    p.depProb = 0.1;
    p.depMeanDistance = 20;
    return p;
}

SmtAppParams
memoryHogApp()
{
    SmtAppParams p;
    p.name = "hog";
    p.loadFrac = 0.35;
    p.storeFrac = 0.2;
    p.branchFrac = 0.05;
    p.fpFrac = 0.1;
    p.mispredictRate = 0.001;
    p.l1MissRate = 0.25;
    p.dramRate = 0.8;
    p.depProb = 0.4;
    p.depMeanDistance = 10;
    p.storeDrainDramRate = 0.6;
    return p;
}

struct Rig
{
    explicit Rig(SmtAppParams a, SmtAppParams b,
                 const SmtConfig &cfg = {})
        : src0(a, 1), src1(b, 2), pipe(cfg, {&src0, &src1})
    {
    }

    ThreadSource src0;
    ThreadSource src1;
    SmtPipeline pipe;
};

TEST(SmtPipeline, CommitsInstructionsFromBothThreads)
{
    Rig rig(computeApp(), computeApp());
    rig.pipe.run(20'000);
    EXPECT_GT(rig.pipe.committed(0), 10'000u);
    EXPECT_GT(rig.pipe.committed(1), 10'000u);
}

TEST(SmtPipeline, IpcBoundedByWidths)
{
    Rig rig(computeApp(), computeApp());
    rig.pipe.run(20'000);
    EXPECT_LE(rig.pipe.ipcSum(), SmtConfig{}.decodeWidth + 0.01);
    EXPECT_GT(rig.pipe.ipcSum(), 1.0);
}

TEST(SmtPipeline, DeterministicAcrossRuns)
{
    Rig a(computeApp(), memoryHogApp());
    Rig b(computeApp(), memoryHogApp());
    a.pipe.run(30'000);
    b.pipe.run(30'000);
    EXPECT_EQ(a.pipe.committed(0), b.pipe.committed(0));
    EXPECT_EQ(a.pipe.committed(1), b.pipe.committed(1));
}

TEST(SmtPipeline, OccupanciesNeverExceedStructureSizes)
{
    const SmtConfig cfg;
    Rig rig(memoryHogApp(), memoryHogApp());
    for (int i = 0; i < 50'000; ++i) {
        rig.pipe.cycle();
        const int rob = rig.pipe.robUsed(0) + rig.pipe.robUsed(1);
        const int iq = rig.pipe.iqUsed(0) + rig.pipe.iqUsed(1);
        const int lq = rig.pipe.lqUsed(0) + rig.pipe.lqUsed(1);
        const int sq = rig.pipe.sqUsed(0) + rig.pipe.sqUsed(1);
        const int irf = rig.pipe.irfUsed(0) + rig.pipe.irfUsed(1);
        const int frf = rig.pipe.frfUsed(0) + rig.pipe.frfUsed(1);
        ASSERT_LE(rob, cfg.robSize);
        ASSERT_LE(iq, cfg.iqSize);
        ASSERT_LE(lq, cfg.lqSize);
        ASSERT_LE(sq, cfg.sqSize);
        ASSERT_LE(irf, cfg.irfSize);
        ASSERT_LE(frf, cfg.frfSize);
        ASSERT_GE(rob, 0);
        ASSERT_GE(iq, 0);
        ASSERT_GE(lq, 0);
        ASSERT_GE(sq, 0);
    }
}

TEST(SmtPipeline, RenameStatsPartitionCycles)
{
    Rig rig(computeApp(), memoryHogApp());
    rig.pipe.run(30'000);
    const RenameStats &s = rig.pipe.renameStats();
    EXPECT_EQ(s.stalled + s.idle + s.running, s.cycles);
    EXPECT_EQ(s.cycles, 30'000u);
}

TEST(SmtPipeline, MemoryHogStallsRename)
{
    Rig rig(memoryHogApp(), memoryHogApp());
    rig.pipe.run(50'000);
    const RenameStats &s = rig.pipe.renameStats();
    EXPECT_GT(s.stalled, 0u);
    // The hog's long-latency stores/loads back up the queues, so at
    // least one specific structure must be implicated.
    EXPECT_GT(s.stallRob + s.stallIq + s.stallLq + s.stallSq +
                  s.stallRf,
              0u);
}

TEST(SmtPipeline, NoGatingWhenPolicyMonitorsNothing)
{
    Rig rig(memoryHogApp(), memoryHogApp());
    rig.pipe.setPolicy(icountPolicy()); // IC_0000
    for (int i = 0; i < 10'000; ++i) {
        rig.pipe.cycle();
        ASSERT_FALSE(rig.pipe.isGated(0));
        ASSERT_FALSE(rig.pipe.isGated(1));
    }
}

TEST(SmtPipeline, GatingTriggersWhenShareExceeded)
{
    Rig rig(memoryHogApp(), computeApp());
    rig.pipe.setPolicy(choiPolicy());
    rig.pipe.setShares({0.05, 0.95}); // starve thread 0
    bool gated = false;
    for (int i = 0; i < 20'000 && !gated; ++i) {
        rig.pipe.cycle();
        gated = rig.pipe.isGated(0);
    }
    EXPECT_TRUE(gated);
}

TEST(SmtPipeline, GatingLimitsThreadOccupancy)
{
    const SmtConfig cfg;
    Rig gated(memoryHogApp(), computeApp());
    gated.pipe.setPolicy(choiPolicy());
    gated.pipe.setShares({0.25, 0.75});
    Rig open(memoryHogApp(), computeApp());
    open.pipe.setPolicy(icountPolicy());
    gated.pipe.run(50'000);
    open.pipe.run(50'000);
    // Under gating, the hog commits less than with free rein.
    EXPECT_LT(gated.pipe.committed(0), open.pipe.committed(0));
}

TEST(SmtPipeline, LsqAwareGatingReducesSqPressure)
{
    // The Section 3.3 motivation: an SQ-hungry thread paired with a
    // compute thread. LSQ-aware gating must cut SQ-full stalls
    // relative to Choi (which ignores the LSQ).
    Rig choi(memoryHogApp(), computeApp());
    choi.pipe.setPolicy(choiPolicy());
    Rig lsq(memoryHogApp(), computeApp());
    lsq.pipe.setPolicy(pgPolicyFromName("IC_1110"));
    choi.pipe.run(80'000);
    lsq.pipe.run(80'000);
    EXPECT_LE(lsq.pipe.renameStats().stallSq,
              choi.pipe.renameStats().stallSq);
}

TEST(SmtPipeline, MispredictionsReduceThroughput)
{
    SmtAppParams clean = computeApp();
    SmtAppParams noisy = computeApp();
    noisy.branchFrac = 0.2;
    noisy.mispredictRate = 0.1;
    Rig a(clean, clean);
    Rig b(noisy, noisy);
    a.pipe.run(30'000);
    b.pipe.run(30'000);
    EXPECT_LT(b.pipe.ipcSum(), a.pipe.ipcSum());
}

TEST(SmtPipeline, DramBoundThreadHasLowIpc)
{
    Rig rig(memoryHogApp(), computeApp());
    rig.pipe.setPolicy(choiPolicy());
    rig.pipe.run(50'000);
    EXPECT_LT(rig.pipe.ipc(0), rig.pipe.ipc(1));
}

/** Fetch priority policies pick the metric-minimizing thread. */
TEST(SmtPipeline, IcountPrefersLowIqThread)
{
    // A memory hog accumulates IQ entries (waiting on operands);
    // ICount must favor the compute thread, giving it higher IPC
    // than the hog by a wide margin.
    Rig rig(memoryHogApp(), computeApp());
    rig.pipe.setPolicy(icountPolicy());
    rig.pipe.run(50'000);
    EXPECT_GT(rig.pipe.ipc(1), 2.0 * rig.pipe.ipc(0));
}

class PolicyRunTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PolicyRunTest, EveryPolicyRunsAndCommits)
{
    Rig rig(memoryHogApp(), computeApp());
    rig.pipe.setPolicy(pgPolicyFromName(GetParam()));
    rig.pipe.run(20'000);
    EXPECT_GT(rig.pipe.committed(0) + rig.pipe.committed(1), 5'000u);
    const RenameStats &s = rig.pipe.renameStats();
    EXPECT_EQ(s.stalled + s.idle + s.running, s.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Table1Arms, PolicyRunTest,
    ::testing::Values("IC_0000", "BrC_1000", "IC_1110", "IC_1111",
                      "LSQC_1111", "RR_1111", "IC_1011", "LSQC_0100",
                      "RR_0000", "BrC_1111"));

TEST(SmtPipeline, RejectsWidthsAndSizesOutsideCounterRange)
{
    const SmtAppParams app = computeApp();
    const auto build = [&](auto mutate) {
        SmtConfig cfg;
        mutate(cfg);
        Rig rig(app, app, cfg);
    };
    EXPECT_NO_THROW(build([](SmtConfig &) {}));
    EXPECT_THROW(build([](SmtConfig &c) { c.commitWidth = 0; }),
                 std::invalid_argument);
    EXPECT_THROW(build([](SmtConfig &c) { c.fetchWidth = -1; }),
                 std::invalid_argument);
    EXPECT_THROW(build([](SmtConfig &c) { c.decodeWidth = 0; }),
                 std::invalid_argument);
    EXPECT_THROW(build([](SmtConfig &c) { c.robSize = 0; }),
                 std::invalid_argument);
    EXPECT_THROW(build([](SmtConfig &c) { c.fetchQueueSize = 0; }),
                 std::invalid_argument);
    // IQ and SQ releases are counted in 16-bit calendar lanes.
    EXPECT_THROW(
        build([](SmtConfig &c) { c.iqSize = SmtConfig::kMaxSize + 1; }),
        std::invalid_argument);
    EXPECT_THROW(
        build([](SmtConfig &c) { c.sqSize = SmtConfig::kMaxSize + 1; }),
        std::invalid_argument);
    EXPECT_NO_THROW(build([](SmtConfig &c) {
        c.iqSize = SmtConfig::kMaxSize;
        c.robSize = 1;
        c.fetchQueueSize = 1;
    }));
}

/** Every observable of two pipelines, field by field. */
void
expectSameState(const SmtPipeline &a, const SmtPipeline &b)
{
    ASSERT_EQ(a.cycles(), b.cycles());
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        SCOPED_TRACE("thread " + std::to_string(t) + " at cycle " +
                     std::to_string(b.cycles()));
        EXPECT_EQ(a.committed(t), b.committed(t));
        EXPECT_EQ(a.fetched(t), b.fetched(t));
        EXPECT_EQ(a.iqUsed(t), b.iqUsed(t));
        EXPECT_EQ(a.robUsed(t), b.robUsed(t));
        EXPECT_EQ(a.lqUsed(t), b.lqUsed(t));
        EXPECT_EQ(a.sqUsed(t), b.sqUsed(t));
        EXPECT_EQ(a.irfUsed(t), b.irfUsed(t));
        EXPECT_EQ(a.frfUsed(t), b.frfUsed(t));
        EXPECT_EQ(a.branchesInRob(t), b.branchesInRob(t));
        EXPECT_EQ(a.isGated(t), b.isGated(t));
    }
    const RenameStats &ra = a.renameStats();
    const RenameStats &rb = b.renameStats();
    EXPECT_EQ(ra.stallRob, rb.stallRob);
    EXPECT_EQ(ra.stallIq, rb.stallIq);
    EXPECT_EQ(ra.stallLq, rb.stallLq);
    EXPECT_EQ(ra.stallSq, rb.stallSq);
    EXPECT_EQ(ra.stallRf, rb.stallRf);
    EXPECT_EQ(ra.stalled, rb.stalled);
    EXPECT_EQ(ra.idle, rb.idle);
    EXPECT_EQ(ra.running, rb.running);
    EXPECT_EQ(ra.cycles, rb.cycles);
    StatsRegistry ja, jb;
    a.exportStats(ja, "smt");
    b.exportStats(jb, "smt");
    EXPECT_EQ(ja.toJsonString(), jb.toJsonString());
}

/** (geometry rob/iq/sq, PG policy, thread-0 share). */
using SkipParam = std::tuple<std::tuple<int, int, int>, const char *,
                             double>;

class SkipAheadTest : public ::testing::TestWithParam<SkipParam>
{
};

/**
 * run(n) in random chunk sizes must leave exactly the state of n
 * cycle() calls, with shares and policy changing between chunks the
 * way Hill Climbing and the bandit change them between epochs.
 */
TEST_P(SkipAheadTest, RunInRandomChunksMatchesCycleStepping)
{
    const auto [geometry, policy, share] = GetParam();
    SmtConfig cfg;
    std::tie(cfg.robSize, cfg.iqSize, cfg.sqSize) = geometry;
    Rig fast(memoryHogApp(), computeApp(), cfg);
    Rig ref(memoryHogApp(), computeApp(), cfg);
    for (Rig *rig : {&fast, &ref}) {
        rig->pipe.setPolicy(pgPolicyFromName(policy));
        rig->pipe.setShares({share, 1.0 - share});
    }

    Rng rng(0xC0FFEE);
    while (ref.pipe.cycles() < 40'000) {
        // Mostly long chunks (where skipping happens), some short.
        const uint64_t n = rng.bernoulli(0.3) ? 1 + rng.below(8)
                                              : 1 + rng.below(3000);
        fast.pipe.run(n);
        for (uint64_t i = 0; i < n; ++i)
            ref.pipe.cycle();
        expectSameState(fast.pipe, ref.pipe);
        if (::testing::Test::HasFailure())
            return;
        if (rng.bernoulli(0.2)) {
            const double s = rng.uniform(0.05, 0.95);
            for (Rig *rig : {&fast, &ref})
                rig->pipe.setShares({s, 1.0 - s});
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesAndPolicies, SkipAheadTest,
    ::testing::Combine(
        ::testing::Values(std::make_tuple(64, 32, 16),
                          std::make_tuple(128, 64, 32),
                          std::make_tuple(224, 97, 56),
                          std::make_tuple(512, 192, 112)),
        ::testing::Values("IC_0000", "IC_1011", "LSQC_0110",
                          "RR_1101"),
        ::testing::Values(0.5, 0.3)));

/**
 * isGated() reads gate limits cached by setShares(). At every chunk
 * boundary it must equal the gate's definition over the public
 * occupancy accessors, for all 64 PG policies under a random share
 * schedule (extremes included).
 */
TEST(SmtPipeline, GatingMatchesDefinitionForEveryPolicy)
{
    const SmtConfig cfg;
    Rng rng(0x6A7E);
    uint64_t gated_checks = 0;
    for (const PgPolicy &policy : allPgPolicies()) {
        SCOPED_TRACE(policy.name());
        Rig rig(memoryHogApp(), computeApp(), cfg);
        rig.pipe.setPolicy(policy);
        std::array<double, SmtConfig::kThreads> shares{0.5, 0.5};
        while (rig.pipe.cycles() < 20'000) {
            if (rng.bernoulli(0.3)) {
                const double s = rng.bernoulli(0.1)
                    ? static_cast<double>(rng.below(3)) / 2.0
                    : rng.uniform();
                shares = {s, 1.0 - s};
                rig.pipe.setShares(shares);
            }
            rig.pipe.run(1 + rng.below(500));
            for (int t = 0; t < SmtConfig::kThreads; ++t) {
                const bool want = fuzz::smtGatedByDefinition(
                    rig.pipe, cfg, policy, shares[t], t);
                ASSERT_EQ(rig.pipe.isGated(t), want)
                    << "thread " << t << " at cycle "
                    << rig.pipe.cycles();
                gated_checks += want;
            }
        }
    }
    // The schedule must actually drive threads over their limits.
    EXPECT_GT(gated_checks, 1000u);
}

/** A fetch-starved mix: long mispredict redirects and DRAM stalls,
 *  so most cycles are dead and every wake source fires. */
TEST(SmtPipeline, SkipAheadMatchesOnMispredictHeavyMix)
{
    SmtAppParams noisy = computeApp();
    noisy.branchFrac = 0.25;
    noisy.mispredictRate = 0.3;
    SmtConfig cfg;
    cfg.mispredictPenalty = 40;
    Rig fast(noisy, memoryHogApp(), cfg);
    Rig ref(noisy, memoryHogApp(), cfg);
    fast.pipe.run(60'000);
    for (int i = 0; i < 60'000; ++i)
        ref.pipe.cycle();
    expectSameState(fast.pipe, ref.pipe);
}

/**
 * SmtSimulator's chunked loop records a thread's IPC at the exact
 * cycle it reaches instrPerThread: compare against the per-cycle
 * reference loop the simulator used to run.
 */
TEST(SmtPipeline, InstrPerThreadCrossingMatchesPerCycleLoop)
{
    for (const uint64_t target : {7'777ull, 31'000ull}) {
        SmtRunConfig rc;
        rc.maxCycles = 60'000;
        rc.hcEpochCycles = 1000;
        rc.instrPerThread = target;
        rc.seed = 3;
        SmtSimulator sim("mcf", "povray", rc);
        const SmtRunResult got = sim.runStatic(choiPolicy());

        const SmtConfig cfg;
        ThreadSource a(smtAppByName("mcf"), rc.seed * 0x9E37u + 1);
        ThreadSource b(smtAppByName("povray"), rc.seed * 0x9E37u + 2);
        SmtPipeline pipe(cfg, {&a, &b});
        pipe.setPolicy(choiPolicy());
        HillClimbing hc({cfg.iqSize, rc.hcDelta});
        pipe.setShares({hc.share(0), hc.share(1)});
        std::array<double, 2> ipc{};
        std::array<bool, 2> recorded{false, false};
        uint64_t epoch_start = 0;
        for (uint64_t c = 1; c <= rc.maxCycles; ++c) {
            pipe.cycle();
            for (int t = 0; t < 2; ++t) {
                if (!recorded[t] && pipe.committed(t) >= target) {
                    recorded[t] = true;
                    ipc[t] = pipe.ipc(t);
                }
            }
            if (recorded[0] && recorded[1])
                break;
            if (c % rc.hcEpochCycles == 0) {
                const uint64_t instr =
                    pipe.committed(0) + pipe.committed(1);
                hc.endEpoch(static_cast<double>(instr - epoch_start) /
                            static_cast<double>(rc.hcEpochCycles));
                epoch_start = instr;
                pipe.setShares({hc.share(0), hc.share(1)});
            }
        }
        for (int t = 0; t < 2; ++t) {
            if (!recorded[t])
                ipc[t] = pipe.ipc(t);
        }
        SCOPED_TRACE("target " + std::to_string(target));
        EXPECT_EQ(got.cycles, pipe.cycles());
        EXPECT_EQ(got.ipc[0], ipc[0]);
        EXPECT_EQ(got.ipc[1], ipc[1]);
        EXPECT_EQ(got.rename.cycles, pipe.renameStats().cycles);
    }
}

} // namespace
} // namespace mab
