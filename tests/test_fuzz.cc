#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <unistd.h>
#include <sstream>
#include <string>
#include <vector>

#include "core/bandit_agent.h"
#include "core/ducb.h"
#include "core/factory.h"
#include "sim/fuzz.h"
#include "sim/parallel.h"
#include "sim/tracing.h"

/**
 * Differential-fuzzing harness tests (sim/fuzz.h): reference-model
 * agreement across many generated cases, the mutant self-test that
 * proves planted cache bugs are caught and shrunk to short repros (the
 * ISSUE 4 acceptance criterion, kept as a permanent regression test),
 * the bandit shadow replay incl. a planted DUCB bug, sim property
 * checks, the sweep oracle, and the cross-seed determinism of the
 * stochastic policies (byte-identical audit logs).
 */

namespace mab {
namespace {

// ---------------------------------------------------------------------------
// Seed derivation

TEST(FuzzSeeds, SubSeedIsDeterministicAndLaneSeparated)
{
    EXPECT_EQ(fuzz::subSeed(1, 0), fuzz::subSeed(1, 0));
    EXPECT_NE(fuzz::subSeed(1, 0), fuzz::subSeed(1, 1));
    EXPECT_NE(fuzz::subSeed(1, 0), fuzz::subSeed(2, 0));
    // Low-entropy seeds must still produce well-mixed case seeds.
    EXPECT_NE(fuzz::iterationSeed(1, 0) >> 32, 0u);
    EXPECT_NE(fuzz::iterationSeed(1, 1) >> 32, 0u);
}

TEST(FuzzSeeds, GeneratorsArePureFunctionsOfTheSeed)
{
    const fuzz::CacheCase a = fuzz::genCacheCase(42);
    const fuzz::CacheCase b = fuzz::genCacheCase(42);
    EXPECT_EQ(fuzz::formatCacheCase(a), fuzz::formatCacheCase(b));

    const fuzz::BanditCase ba = fuzz::genBanditCase(42);
    const fuzz::BanditCase bb = fuzz::genBanditCase(42);
    EXPECT_EQ(fuzz::formatBanditCase(ba), fuzz::formatBanditCase(bb));

    const fuzz::SimCase sa = fuzz::genSimCase(42);
    const fuzz::SimCase sb = fuzz::genSimCase(42);
    EXPECT_EQ(fuzz::formatSimCase(sa), fuzz::formatSimCase(sb));

    EXPECT_EQ(fuzz::formatSmtCase(fuzz::genSmtCase(42)),
              fuzz::formatSmtCase(fuzz::genSmtCase(42)));

    const fuzz::PrefetchCase pa = fuzz::genPrefetchCase(42);
    const fuzz::PrefetchCase pb = fuzz::genPrefetchCase(42);
    EXPECT_EQ(fuzz::formatPrefetchCase(pa), fuzz::formatPrefetchCase(pb));
    ASSERT_EQ(pa.ops.size(), pb.ops.size());
    for (size_t i = 0; i < pa.ops.size(); ++i) {
        EXPECT_EQ(pa.ops[i].access.addr, pb.ops[i].access.addr);
        EXPECT_EQ(pa.ops[i].knob, pb.ops[i].knob);
    }
}

TEST(FuzzSeeds, GeneratedCacheGeometriesAreValid)
{
    for (uint64_t seed = 0; seed < 200; ++seed) {
        const fuzz::CacheCase c = fuzz::genCacheCase(seed);
        ASSERT_GE(c.config.ways, 1);
        const uint64_t sets =
            c.config.sizeBytes / (kLineBytes * c.config.ways);
        ASSERT_GT(sets, 0u);
        ASSERT_EQ(sets & (sets - 1), 0u)
            << "sets must be a power of two (seed " << seed << ")";
        ASSERT_FALSE(c.ops.empty());
    }
}

// ---------------------------------------------------------------------------
// Cache differential

TEST(CacheDifferential, OptimizedCacheAgreesWithReferenceOnManySeeds)
{
    for (uint64_t i = 0; i < 300; ++i) {
        const uint64_t cs = fuzz::iterationSeed(1, i);
        const fuzz::CacheCase c =
            fuzz::genCacheCase(fuzz::subSeed(cs, 1));
        const std::string err = fuzz::diffCacheCase(c);
        ASSERT_EQ(err, "") << "case seed " << cs;
    }
}

/**
 * The acceptance criterion of ISSUE 4, as a permanent test: every
 * planted cache bug must be caught by the differential loop and
 * shrunk to a repro of at most 20 accesses.
 */
TEST(CacheDifferential, EveryMutantIsCaughtAndShrunkToShortRepro)
{
    for (const fuzz::CacheMutation m : fuzz::allCacheMutations()) {
        SCOPED_TRACE(fuzz::toString(m));
        const fuzz::CacheModelFactory mutant =
            fuzz::mutantCacheFactory(m);
        bool caught = false;
        for (uint64_t i = 0; i < 50 && !caught; ++i) {
            const uint64_t cs = fuzz::iterationSeed(1, i);
            const fuzz::CacheCase c =
                fuzz::genCacheCase(fuzz::subSeed(cs, 1));
            if (fuzz::diffCacheCase(c, mutant).empty())
                continue;
            caught = true;
            const fuzz::CacheCase min = fuzz::shrinkCacheCase(c, mutant);
            // The minimized case must still witness the bug...
            EXPECT_NE(fuzz::diffCacheCase(min, mutant), "");
            // ...and be a short, readable repro.
            EXPECT_LE(min.ops.size(), 20u);
            EXPECT_LE(min.ops.size(), c.ops.size());
        }
        EXPECT_TRUE(caught)
            << "mutant not detected within 50 case seeds";
    }
}

TEST(CacheDifferential, ShrinkIsANoOpOnPassingCases)
{
    const fuzz::CacheCase c = fuzz::genCacheCase(7);
    ASSERT_EQ(fuzz::diffCacheCase(c), "");
    const fuzz::CacheCase s =
        fuzz::shrinkCacheCase(c, fuzz::optimizedCacheFactory());
    EXPECT_EQ(s.ops.size(), c.ops.size());
}

TEST(CacheDifferential, ReferenceInvariantsHoldUnderRandomStreams)
{
    const fuzz::CacheCase c = fuzz::genCacheCase(11);
    fuzz::ReferenceCache ref(c.config);
    for (const fuzz::CacheOp &op : c.ops) {
        switch (op.kind) {
          case fuzz::CacheOp::Kind::Lookup:
            ref.lookupDemand(op.line, op.cycle);
            break;
          case fuzz::CacheOp::Kind::DemandFill:
            ref.fill(op.line, op.cycle, false);
            break;
          case fuzz::CacheOp::Kind::PrefetchFill:
            ref.fill(op.line, op.cycle, true);
            break;
          case fuzz::CacheOp::Kind::Invalidate:
            ref.invalidate(op.line);
            break;
          case fuzz::CacheOp::Kind::Contains:
            ref.contains(op.line);
            break;
          case fuzz::CacheOp::Kind::Clear:
            ref.clear();
            break;
        }
        ASSERT_EQ(ref.checkInvariants(), "");
    }
}

// ---------------------------------------------------------------------------
// Bandit differential

fuzz::BanditCase
banditCaseFor(MabAlgorithm algo, uint64_t seed)
{
    fuzz::BanditCase c = fuzz::genBanditCase(seed);
    c.algo = algo;
    if (c.window < c.mab.numArms)
        c.window = c.mab.numArms;
    return c;
}

TEST(BanditDifferential, ShadowAgreesForEveryAlgorithm)
{
    const MabAlgorithm algos[] = {
        MabAlgorithm::Ducb, MabAlgorithm::SwUcb, MabAlgorithm::Ucb,
        MabAlgorithm::EpsilonGreedy};
    for (const MabAlgorithm algo : algos) {
        SCOPED_TRACE(toString(algo));
        for (uint64_t seed = 0; seed < 40; ++seed) {
            const fuzz::BanditCase c = banditCaseFor(algo, seed);
            ASSERT_EQ(fuzz::diffBanditCase(c), "")
                << fuzz::formatBanditCase(c);
        }
    }
}

TEST(BanditDifferential, GeneratedCasesAgree)
{
    for (uint64_t i = 0; i < 150; ++i) {
        const uint64_t cs = fuzz::iterationSeed(3, i);
        const fuzz::BanditCase c =
            fuzz::genBanditCase(fuzz::subSeed(cs, 2));
        ASSERT_EQ(fuzz::diffBanditCase(c), "")
            << fuzz::formatBanditCase(c);
    }
}

/** DUCB with the classic forgetting bug: the per-arm counts are
 *  discounted but n_total is not, silently inflating the exploration
 *  bonus denominator over time. */
class BrokenDucb final : public Ducb
{
  public:
    explicit BrokenDucb(const MabConfig &config) : Ducb(config) {}

  protected:
    void
    updSels(ArmId arm) override
    {
        for (double &n : n_)
            n *= config_.gamma;
        nTotal_ += 1.0; // bug: forgets the gamma discount
        n_[arm] += 1.0;
    }
};

TEST(BanditDifferential, CatchesPlantedDucbDiscountBug)
{
    bool caught = false;
    for (uint64_t seed = 0; seed < 20 && !caught; ++seed) {
        fuzz::BanditCase c = banditCaseFor(MabAlgorithm::Ducb, seed);
        BrokenDucb broken(c.mab);
        caught = !fuzz::diffBanditPolicy(broken, c).empty();
    }
    EXPECT_TRUE(caught)
        << "shadow replay did not notice the missing discount";
}

TEST(BanditDifferential, ShrinkIsANoOpOnPassingCases)
{
    const fuzz::BanditCase c = fuzz::genBanditCase(5);
    ASSERT_EQ(fuzz::diffBanditCase(c), "");
    const fuzz::BanditCase s = fuzz::shrinkBanditCase(c);
    EXPECT_EQ(s.steps, c.steps);
}

// ---------------------------------------------------------------------------
// End-to-end property checks

TEST(SimProperties, HoldOnGeneratedCases)
{
    for (uint64_t i = 0; i < 25; ++i) {
        const uint64_t cs = fuzz::iterationSeed(5, i);
        const fuzz::SimCase c =
            fuzz::genSimCase(fuzz::subSeed(cs, 3));
        ASSERT_EQ(fuzz::checkSimProperties(c), "");
    }
}

TEST(SimProperties, ShrinkIsANoOpOnPassingCases)
{
    const fuzz::SimCase c = fuzz::genSimCase(9);
    ASSERT_EQ(fuzz::checkSimProperties(c), "");
    const fuzz::SimCase s = fuzz::shrinkSimCase(c);
    EXPECT_EQ(s.instructions, c.instructions);
}

// ---------------------------------------------------------------------------
// SMT skip-ahead differential

TEST(SmtDifferential, GeneratedCasesAgree)
{
    for (uint64_t i = 0; i < 60; ++i) {
        const fuzz::SmtCase c =
            fuzz::genSmtCase(fuzz::subSeed(fuzz::iterationSeed(1, i), 6));
        ASSERT_EQ(fuzz::diffSmtCase(c), "") << "iteration " << i;
    }
}

/** Every planted wake fault is caught and shrunk to a prefix of at
 *  most 2000 cycles that still witnesses it. */
TEST(SmtDifferential, EveryMutantIsCaughtAndShrunk)
{
    for (const fuzz::SmtMutation m : fuzz::allSmtMutations()) {
        SCOPED_TRACE(fuzz::toString(m));
        bool caught = false;
        for (uint64_t i = 0; i < 50 && !caught; ++i) {
            const fuzz::SmtCase c = fuzz::genSmtCase(
                fuzz::subSeed(fuzz::iterationSeed(1, i), 6));
            if (fuzz::diffSmtCase(c, m).empty())
                continue;
            caught = true;
            const fuzz::SmtCase min = fuzz::shrinkSmtCase(c, m);
            EXPECT_NE(fuzz::diffSmtCase(min, m), "");
            EXPECT_EQ(fuzz::diffSmtCase(min), "");
            EXPECT_LE(min.totalCycles(), 2000u);
            EXPECT_LE(min.totalCycles(), c.totalCycles());
        }
        EXPECT_TRUE(caught) << "mutant not detected within 50 case seeds";
    }
}

TEST(SmtDifferential, ShrinkIsANoOpOnPassingCases)
{
    const fuzz::SmtCase c = fuzz::genSmtCase(7);
    ASSERT_EQ(fuzz::diffSmtCase(c), "");
    EXPECT_EQ(fuzz::formatSmtCase(fuzz::shrinkSmtCase(c)),
              fuzz::formatSmtCase(c));
}

// ---------------------------------------------------------------------------
// Prefetcher differential

TEST(PrefetchDifferential, GeneratedCasesAgreeForEveryPrefetcher)
{
    std::set<fuzz::PrefetchKind> kinds;
    for (uint64_t i = 0; i < 200; ++i) {
        const fuzz::PrefetchCase c = fuzz::genPrefetchCase(
            fuzz::subSeed(fuzz::iterationSeed(1, i), 7));
        kinds.insert(c.kind);
        ASSERT_EQ(fuzz::diffPrefetchCase(c), "") << "iteration " << i;
    }
    EXPECT_EQ(kinds.size(), 7u) << "every prefetcher kind is generated";
}

/** Every planted prefetcher fault is caught and shrunk to a witness
 *  of at most 40 ops that the optimized prefetchers pass. */
TEST(PrefetchDifferential, EveryMutantIsCaughtAndShrunk)
{
    for (const fuzz::PrefetchMutation m : fuzz::allPrefetchMutations()) {
        SCOPED_TRACE(fuzz::toString(m));
        const fuzz::PrefetchModelFactory mutant =
            fuzz::referencePrefetchFactory(m);
        bool caught = false;
        for (uint64_t i = 0; i < 50 && !caught; ++i) {
            const fuzz::PrefetchCase c = fuzz::genPrefetchCase(
                fuzz::subSeed(fuzz::iterationSeed(1, i), 7));
            if (fuzz::diffPrefetchCase(c, mutant).empty())
                continue;
            caught = true;
            const fuzz::PrefetchCase min =
                fuzz::shrinkPrefetchCase(c, mutant);
            EXPECT_NE(fuzz::diffPrefetchCase(min, mutant), "");
            EXPECT_EQ(fuzz::diffPrefetchCase(min), "");
            EXPECT_LE(min.ops.size(), 40u);
        }
        EXPECT_TRUE(caught) << "mutant not detected within 50 case seeds";
    }
}

TEST(PrefetchDifferential, UnmutatedReferenceAgreesWithItself)
{
    const fuzz::PrefetchCase c = fuzz::genPrefetchCase(3);
    EXPECT_EQ(fuzz::diffPrefetchCase(c, fuzz::referencePrefetchFactory()),
              "");
}

TEST(PrefetchDifferential, ShrinkIsANoOpOnPassingCases)
{
    const fuzz::PrefetchCase c = fuzz::genPrefetchCase(7);
    ASSERT_EQ(fuzz::diffPrefetchCase(c), "");
    EXPECT_EQ(fuzz::formatPrefetchCase(fuzz::shrinkPrefetchCase(
                  c, fuzz::optimizedPrefetchFactory())),
              fuzz::formatPrefetchCase(c));
}

// ---------------------------------------------------------------------------
// Sweep oracle

TEST(SweepOracle, SerialAndParallelRunsAgree)
{
    for (uint64_t seed = 0; seed < 6; ++seed)
        ASSERT_EQ(fuzz::checkSweepEquivalence(seed), "");
}

// ---------------------------------------------------------------------------
// Top-level harness

TEST(FuzzHarness, SmokeRunPassesAndCountsCases)
{
    fuzz::FuzzOptions opt;
    opt.seedBase = 1;
    opt.iters = 40;
    opt.jobs = 2;
    const fuzz::FuzzReport report = fuzz::runFuzz(opt);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.iterations, 40u);
    EXPECT_EQ(report.cacheCases, 40u);
    EXPECT_EQ(report.banditCases, 40u);
    EXPECT_EQ(report.simCases, 40u);
    EXPECT_EQ(report.smtCases, 40u);
    EXPECT_EQ(report.prefetchCases, 40u);

    uint64_t expected_sweeps = 0;
    for (uint64_t i = 0; i < 40; ++i)
        expected_sweeps += (fuzz::iterationSeed(1, i) & 7) == 0;
    EXPECT_EQ(report.sweepCases, expected_sweeps);
}

TEST(FuzzHarness, IterationReplayIsDeterministic)
{
    const uint64_t cs = fuzz::iterationSeed(1, 17);
    fuzz::FuzzReport a, b;
    fuzz::runFuzzIteration(cs, a, false);
    fuzz::runFuzzIteration(cs, b, false);
    EXPECT_EQ(a.ok(), b.ok());
    EXPECT_EQ(a.cacheCases, b.cacheCases);
    EXPECT_EQ(a.sweepCases, b.sweepCases);
}

TEST(FuzzHarness, ReportMergeAccumulates)
{
    fuzz::FuzzReport a, b;
    a.iterations = 3;
    a.cacheCases = 3;
    b.iterations = 2;
    b.sweepCases = 1;
    b.prefetchCases = 2;
    b.failures.push_back({7, "cache", "msg", "repro"});
    a.merge(b);
    EXPECT_EQ(a.iterations, 5u);
    EXPECT_EQ(a.cacheCases, 3u);
    EXPECT_EQ(a.sweepCases, 1u);
    EXPECT_EQ(a.prefetchCases, 2u);
    ASSERT_EQ(a.failures.size(), 1u);
    EXPECT_FALSE(a.ok());
}

// ---------------------------------------------------------------------------
// Cross-seed determinism of the stochastic policies (ISSUE 4
// satellite): identical seeds must give byte-identical audit logs
// across in-process runs, and identical agent trajectories across
// sweep job counts.

std::string
tmpPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir ? dir : "/tmp") + "/mab_fuzz_" + name +
        "_" + std::to_string(::getpid()) + ".jsonl";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** One full audited agent run; returns the audit log bytes. A fresh
 *  ScopedTracer per run resets the tracer's agent-track numbering, so
 *  identical runs must produce identical bytes. */
std::string
runAuditedAgent(MabAlgorithm algo, uint64_t seed,
                const std::string &path)
{
    {
        tracing::ScopedTracer guard;
        EXPECT_TRUE(guard->openAudit(path));
        MabConfig cfg;
        cfg.numArms = 4;
        cfg.seed = seed;
        BanditHwConfig hw;
        hw.stepUnits = 4;
        hw.selectionLatencyCycles = 0;
        BanditAgent agent(makePolicy(algo, cfg), hw);
        uint64_t instr = 0, cycles = 0;
        for (int s = 0; s < 60; ++s) {
            instr += 300 + 10 * s;
            cycles += 400;
            agent.tick(4, instr, cycles);
        }
    }
    const std::string bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

class StochasticDeterminism
    : public ::testing::TestWithParam<MabAlgorithm>
{
};

TEST_P(StochasticDeterminism, IdenticalSeedsGiveByteIdenticalAudits)
{
    const MabAlgorithm algo = GetParam();
    const std::string a =
        runAuditedAgent(algo, 123, tmpPath("a"));
    const std::string b =
        runAuditedAgent(algo, 123, tmpPath("b"));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "same seed, different audit bytes";

    const std::string c =
        runAuditedAgent(algo, 124, tmpPath("c"));
    EXPECT_NE(a, c) << "different seeds should explore differently";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, StochasticDeterminism,
    ::testing::Values(MabAlgorithm::EpsilonGreedy,
                      MabAlgorithm::Thompson),
    [](const ::testing::TestParamInfo<MabAlgorithm> &info) {
        return info.param == MabAlgorithm::EpsilonGreedy
            ? "eGreedy"
            : "Thompson";
    });

/** Fingerprint of one (seeded) agent trajectory: the full switch
 *  history plus the exact bits of the final policy state. */
std::string
agentTrajectory(MabAlgorithm algo, uint64_t seed)
{
    MabConfig cfg;
    cfg.numArms = 4;
    cfg.seed = seed;
    BanditHwConfig hw;
    hw.stepUnits = 4;
    hw.selectionLatencyCycles = 0;
    hw.recordHistory = true;
    BanditAgent agent(makePolicy(algo, cfg), hw);
    uint64_t instr = 0, cycles = 0;
    for (int s = 0; s < 80; ++s) {
        instr += 250 + 7 * s;
        cycles += 350;
        agent.tick(4, instr, cycles);
    }
    std::ostringstream ss;
    for (const auto &[cycle, arm] : agent.history())
        ss << cycle << ":" << arm << ";";
    ss << std::hexfloat;
    for (const double r : agent.policy().armRewards())
        ss << r << ",";
    ss << agent.policy().totalCount();
    return ss.str();
}

TEST(StochasticDeterminismAcrossJobs, TrajectoriesMatchJobCounts)
{
    const MabAlgorithm algos[] = {MabAlgorithm::EpsilonGreedy,
                                  MabAlgorithm::Thompson};
    const size_t n = 8;
    const auto fn = [&](size_t i) {
        return agentTrajectory(algos[i % 2], 1000 + i / 2);
    };
    SweepRunner serial(1);
    const std::vector<std::string> a =
        serial.runAll<std::string>(n, fn);
    SweepRunner pool(4);
    const std::vector<std::string> b =
        pool.runAll<std::string>(n, fn);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(a[i], b[i]) << "task " << i;
}

} // namespace
} // namespace mab
