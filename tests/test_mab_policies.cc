#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ducb.h"
#include "core/egreedy.h"
#include "core/factory.h"
#include "core/heuristics.h"
#include "core/hierarchical.h"
#include "core/swucb.h"
#include "core/ucb.h"
#include "sim/rng.h"

namespace mab {
namespace {

/** A stationary Bernoulli bandit environment for convergence tests. */
class BernoulliEnv
{
  public:
    BernoulliEnv(std::vector<double> means, uint64_t seed)
        : means_(std::move(means)), rng_(seed)
    {
    }

    double pull(ArmId arm) { return rng_.bernoulli(means_[arm]); }

    ArmId
    bestArm() const
    {
        ArmId best = 0;
        for (ArmId i = 1; i < static_cast<ArmId>(means_.size()); ++i) {
            if (means_[i] > means_[best])
                best = i;
        }
        return best;
    }

  private:
    std::vector<double> means_;
    Rng rng_;
};

MabConfig
config(int arms)
{
    MabConfig cfg;
    cfg.numArms = arms;
    cfg.c = 0.3;
    cfg.gamma = 0.99;
    cfg.epsilon = 0.1;
    cfg.seed = 42;
    return cfg;
}

// ---------------------------------------------------------------------
// Algorithm-1 template behaviour (round-robin phase, bookkeeping).
// ---------------------------------------------------------------------

TEST(MabTemplate, InitialRoundRobinTriesEveryArmOnce)
{
    Ducb policy(config(5));
    for (ArmId expect = 0; expect < 5; ++expect) {
        EXPECT_TRUE(policy.inRoundRobin());
        EXPECT_EQ(policy.selectArm(), expect);
        policy.observeReward(0.5);
    }
    EXPECT_FALSE(policy.inRoundRobin());
}

TEST(MabTemplate, RoundRobinSeedsCountsToOne)
{
    Ucb policy(config(4));
    for (int i = 0; i < 4; ++i) {
        policy.selectArm();
        policy.observeReward(1.0 + i);
    }
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(policy.armCounts()[i], 1.0);
    EXPECT_DOUBLE_EQ(policy.totalCount(), 4.0);
}

TEST(MabTemplate, StepsCounted)
{
    Ducb policy(config(3));
    for (int i = 0; i < 10; ++i) {
        policy.selectArm();
        policy.observeReward(0.1);
    }
    EXPECT_EQ(policy.steps(), 10u);
}

TEST(MabTemplate, ResetRestoresInitialState)
{
    Ducb policy(config(3));
    for (int i = 0; i < 8; ++i) {
        policy.selectArm();
        policy.observeReward(0.7);
    }
    policy.reset();
    EXPECT_TRUE(policy.inRoundRobin());
    EXPECT_EQ(policy.steps(), 0u);
    EXPECT_DOUBLE_EQ(policy.totalCount(), 0.0);
    EXPECT_EQ(policy.selectArm(), 0);
}

TEST(MabTemplate, ResetReproducesIdenticalRun)
{
    EpsilonGreedy policy(config(4));
    BernoulliEnv env({0.2, 0.8, 0.5, 0.3}, 7);
    std::vector<ArmId> first;
    for (int i = 0; i < 50; ++i) {
        const ArmId a = policy.selectArm();
        first.push_back(a);
        policy.observeReward(env.pull(a));
    }
    policy.reset();
    BernoulliEnv env2({0.2, 0.8, 0.5, 0.3}, 7);
    for (int i = 0; i < 50; ++i) {
        const ArmId a = policy.selectArm();
        EXPECT_EQ(a, first[i]);
        policy.observeReward(env2.pull(a));
    }
}

TEST(MabTemplate, GreedyArmTracksHighestReward)
{
    Ucb policy(config(3));
    policy.selectArm();
    policy.observeReward(0.1);
    policy.selectArm();
    policy.observeReward(0.9);
    policy.selectArm();
    policy.observeReward(0.4);
    EXPECT_EQ(policy.greedyArm(), 1);
}

TEST(MabTemplate, NoArmsIsRejectedInEveryBuild)
{
    // A checked error, so NDEBUG builds cannot construct a policy
    // whose greedyArm() would read past empty reward tables.
    for (int arms : {0, -1}) {
        EXPECT_THROW(Ducb{config(arms)}, std::invalid_argument)
            << arms << " arms";
        EXPECT_THROW(makePolicy(MabAlgorithm::Ucb, config(arms)),
                     std::invalid_argument)
            << arms << " arms";
    }
}

TEST(MabTemplate, NonFiniteRewardIsRejectedInEveryBuild)
{
    // Reproduction: one NaN reward during DUCB's initial round robin
    // used to normalize every r_i to NaN, after which DUCB picked arm 0
    // on every remaining step although arm 3 is by far the best.
    BernoulliEnv env({0.2, 0.3, 0.4, 0.9}, 7);
    Ducb policy(config(4));
    policy.observeReward(env.pull(policy.selectArm()));
    policy.selectArm();
    EXPECT_THROW(
        policy.observeReward(std::numeric_limits<double>::quiet_NaN()),
        std::invalid_argument);
    EXPECT_EQ(policy.steps(), 1u) << "a rejected reward changes nothing";

    // The round robin retries step 1's arm, then learning goes on.
    int best = 0;
    for (int t = 1; t < 400; ++t) {
        const ArmId a = policy.selectArm();
        best += a == 3;
        policy.observeReward(env.pull(a));
    }
    EXPECT_GT(best, 200) << "DUCB kept learning after the rejection";

    for (double bad : {std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
        policy.selectArm();
        EXPECT_THROW(policy.observeReward(bad), std::invalid_argument)
            << bad;
    }
}

TEST(MabTemplate, NonFiniteRewardIsRejectedByHierarchicalLearners)
{
    HierarchicalBandit policy(config(4));
    policy.selectArm();
    EXPECT_THROW(
        policy.observeReward(std::numeric_limits<double>::quiet_NaN()),
        std::invalid_argument);
}

TEST(MabTemplate, RewardBeforeSelectIsALogicError)
{
    Ducb policy(config(3));
    EXPECT_THROW(policy.observeReward(0.5), std::logic_error);
    policy.selectArm();
    policy.observeReward(0.5);
    policy.reset();
    EXPECT_THROW(policy.observeReward(0.5), std::logic_error)
        << "reset() forgets the selected arm";
}

// ---------------------------------------------------------------------
// Reward normalization (Section 4.3, first modification).
// ---------------------------------------------------------------------

TEST(Normalization, RewardsDividedByRoundRobinAverage)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = true;
    Ucb policy(cfg);
    policy.selectArm();
    policy.observeReward(2.0);
    policy.selectArm();
    policy.observeReward(4.0);
    // r_avg = 3.0 -> stored rewards become 2/3 and 4/3.
    EXPECT_NEAR(policy.armRewards()[0], 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(policy.armRewards()[1], 4.0 / 3.0, 1e-12);
}

TEST(Normalization, DisabledKeepsRawRewards)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    Ucb policy(cfg);
    policy.selectArm();
    policy.observeReward(2.0);
    policy.selectArm();
    policy.observeReward(4.0);
    EXPECT_DOUBLE_EQ(policy.armRewards()[0], 2.0);
    EXPECT_DOUBLE_EQ(policy.armRewards()[1], 4.0);
}

TEST(Normalization, MakesExplorationScaleInvariant)
{
    // The same reward sequence at 10x the scale must produce the same
    // arm choices when normalization is on.
    for (double scale : {1.0, 10.0}) {
        (void)scale;
    }
    MabConfig cfg = config(3);
    cfg.normalizeRewards = true;
    Ducb low(cfg), high(cfg);
    BernoulliEnv env_seq({0.3, 0.9, 0.5}, 11);
    std::vector<double> rewards;
    for (int i = 0; i < 200; ++i)
        rewards.push_back(env_seq.pull(i % 3) + 0.1);

    std::vector<ArmId> low_choices, high_choices;
    size_t idx = 0;
    for (int i = 0; i < 100; ++i) {
        low_choices.push_back(low.selectArm());
        low.observeReward(rewards[idx]);
        high_choices.push_back(high.selectArm());
        high.observeReward(10.0 * rewards[idx]);
        ++idx;
    }
    EXPECT_EQ(low_choices, high_choices);
}

TEST(Normalization, ZeroAverageFallsBackGracefully)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = true;
    Ucb policy(cfg);
    policy.selectArm();
    policy.observeReward(0.0);
    policy.selectArm();
    policy.observeReward(0.0);
    // Must not divide by zero; subsequent updates still work.
    policy.selectArm();
    policy.observeReward(1.0);
    EXPECT_GE(policy.armRewards()[policy.greedyArm()], 0.0);
}

// ---------------------------------------------------------------------
// Round-robin restart (Section 4.3, second modification).
// ---------------------------------------------------------------------

TEST(RrRestart, RestartSweepsArmsInOrderWithoutReset)
{
    MabConfig cfg = config(3);
    cfg.rrRestartProb = 1.0; // restart on every main-loop selection
    cfg.normalizeRewards = false;
    Ducb policy(cfg);
    for (int i = 0; i < 3; ++i) {
        policy.selectArm();
        policy.observeReward(0.5);
    }
    // Main loop: with probability 1 the policy re-enters round robin.
    for (ArmId expect : {0, 1, 2}) {
        EXPECT_EQ(policy.selectArm(), expect);
        policy.observeReward(0.5);
    }
    // Counts were kept (not reset to the initial-phase values).
    EXPECT_GT(policy.totalCount(), 3.0);
}

TEST(RrRestart, ZeroProbabilityNeverRestarts)
{
    MabConfig cfg = config(3);
    cfg.rrRestartProb = 0.0;
    Ucb policy(cfg);
    BernoulliEnv env({0.1, 0.9, 0.1}, 3);
    for (int i = 0; i < 200; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(env.pull(a));
        if (i >= 3)
            EXPECT_FALSE(policy.inRoundRobin());
    }
}

// ---------------------------------------------------------------------
// epsilon-Greedy specifics.
// ---------------------------------------------------------------------

TEST(EpsilonGreedy, ZeroEpsilonIsPureGreedy)
{
    MabConfig cfg = config(3);
    cfg.epsilon = 0.0;
    cfg.normalizeRewards = false;
    EpsilonGreedy policy(cfg);
    policy.selectArm();
    policy.observeReward(0.2);
    policy.selectArm();
    policy.observeReward(0.9);
    policy.selectArm();
    policy.observeReward(0.1);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(policy.selectArm(), 1);
        policy.observeReward(0.9);
    }
}

TEST(EpsilonGreedy, FullEpsilonExploresAllArms)
{
    MabConfig cfg = config(4);
    cfg.epsilon = 1.0;
    EpsilonGreedy policy(cfg);
    std::vector<int> seen(4, 0);
    for (int i = 0; i < 400; ++i) {
        const ArmId a = policy.selectArm();
        ++seen[a];
        policy.observeReward(0.5);
    }
    for (int count : seen)
        EXPECT_GT(count, 40);
}

TEST(EpsilonGreedy, NonDecayingExplorationKeepsSamplingBadArms)
{
    MabConfig cfg = config(2);
    cfg.epsilon = 0.2;
    cfg.normalizeRewards = false;
    EpsilonGreedy policy(cfg);
    BernoulliEnv env({0.9, 0.05}, 5);
    int bad_picks_late = 0;
    for (int i = 0; i < 2000; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(env.pull(a));
        if (i > 1000 && a == 1)
            ++bad_picks_late;
    }
    // ~10% of late selections should still hit the bad arm.
    EXPECT_GT(bad_picks_late, 40);
}

// ---------------------------------------------------------------------
// UCB specifics.
// ---------------------------------------------------------------------

TEST(Ucb, PotentialAddsExplorationBonus)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    Ucb policy(cfg);
    policy.selectArm();
    policy.observeReward(0.5);
    policy.selectArm();
    policy.observeReward(0.5);
    EXPECT_GT(policy.potential(0), policy.armRewards()[0]);
}

TEST(Ucb, UndersampledArmGetsLargerBonus)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    Ucb policy(cfg);
    BernoulliEnv env({0.5, 0.5}, 9);
    for (int i = 0; i < 100; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(env.pull(a));
    }
    const ArmId less = policy.armCounts()[0] < policy.armCounts()[1]
        ? 0 : 1;
    const double bonus_less =
        policy.potential(less) - policy.armRewards()[less];
    const double bonus_more =
        policy.potential(1 - less) - policy.armRewards()[1 - less];
    EXPECT_GE(bonus_less, bonus_more);
}

TEST(Ucb, ExplorationDecaysOverTime)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    cfg.c = 0.5;
    Ucb policy(cfg);
    // Equal rewards: selections should even out; bonus shrinks as
    // ln(n)/n -> 0.
    double early_bonus = 0.0, late_bonus = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(0.5);
        if (i == 10)
            early_bonus = policy.potential(a) - policy.armRewards()[a];
        if (i == 999)
            late_bonus = policy.potential(a) - policy.armRewards()[a];
    }
    EXPECT_LT(late_bonus, early_bonus);
}

// ---------------------------------------------------------------------
// DUCB specifics.
// ---------------------------------------------------------------------

TEST(Ducb, DiscountKeepsCountsBounded)
{
    MabConfig cfg = config(2);
    cfg.gamma = 0.9;
    Ducb policy(cfg);
    for (int i = 0; i < 1000; ++i) {
        policy.selectArm();
        policy.observeReward(0.5);
    }
    // n_total saturates at 1/(1-gamma) = 10.
    EXPECT_LE(policy.totalCount(), 10.0 + 1e-9);
    EXPECT_GT(policy.totalCount(), 9.0);
}

TEST(Ducb, GammaOneDegeneratesToUcb)
{
    MabConfig cfg = config(3);
    cfg.gamma = 1.0;
    cfg.normalizeRewards = false;
    Ducb ducb(cfg);
    Ucb ucb(cfg);
    BernoulliEnv e1({0.3, 0.7, 0.5}, 13), e2({0.3, 0.7, 0.5}, 13);
    for (int i = 0; i < 300; ++i) {
        const ArmId a = ducb.selectArm();
        const ArmId b = ucb.selectArm();
        EXPECT_EQ(a, b);
        ducb.observeReward(e1.pull(a));
        ucb.observeReward(e2.pull(b));
    }
}

TEST(Ducb, AdaptsToNonStationaryEnvironment)
{
    MabConfig cfg = config(2);
    cfg.gamma = 0.95;
    cfg.c = 0.3;
    cfg.normalizeRewards = false;
    Ducb policy(cfg);
    BernoulliEnv phase1({0.9, 0.1}, 17);
    BernoulliEnv phase2({0.1, 0.9}, 18);
    for (int i = 0; i < 300; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(phase1.pull(a));
    }
    EXPECT_EQ(policy.greedyArm(), 0);
    int arm1_late = 0;
    for (int i = 0; i < 600; ++i) {
        const ArmId a = policy.selectArm();
        policy.observeReward(phase2.pull(a));
        if (i > 400 && a == 1)
            ++arm1_late;
    }
    // After the phase change, DUCB must have moved to arm 1.
    EXPECT_GT(arm1_late, 150);
    EXPECT_EQ(policy.greedyArm(), 1);
}

TEST(Ducb, UcbFailsWherDucbAdapts)
{
    // Same scenario as above: plain UCB's counts grow unboundedly, so
    // after a long first phase it explores the alternative arm far
    // less than DUCB does.
    MabConfig cfg = config(2);
    cfg.gamma = 0.95;
    cfg.c = 0.3;
    cfg.normalizeRewards = false;
    Ducb ducb(cfg);
    MabConfig ucb_cfg = cfg;
    ucb_cfg.gamma = 1.0;
    Ducb ucb(ucb_cfg);

    BernoulliEnv a1({0.9, 0.1}, 21), a2({0.9, 0.1}, 21);
    for (int i = 0; i < 2000; ++i) {
        ducb.observeReward(a1.pull(ducb.selectArm()));
        ucb.observeReward(a2.pull(ucb.selectArm()));
    }
    BernoulliEnv b1({0.1, 0.9}, 22), b2({0.1, 0.9}, 22);
    int ducb_arm1 = 0, ucb_arm1 = 0;
    for (int i = 0; i < 400; ++i) {
        const ArmId da = ducb.selectArm();
        ducb.observeReward(b1.pull(da));
        ducb_arm1 += da == 1;
        const ArmId ua = ucb.selectArm();
        ucb.observeReward(b2.pull(ua));
        ucb_arm1 += ua == 1;
    }
    EXPECT_GT(ducb_arm1, ucb_arm1);
}

// ---------------------------------------------------------------------
// Heuristics.
// ---------------------------------------------------------------------

TEST(Single, CommitsToRoundRobinWinnerForever)
{
    MabConfig cfg = config(3);
    cfg.normalizeRewards = false;
    SingleHeuristic policy(cfg);
    policy.selectArm();
    policy.observeReward(0.3);
    policy.selectArm();
    policy.observeReward(0.8);
    policy.selectArm();
    policy.observeReward(0.5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(policy.selectArm(), 1);
        // Even terrible rewards do not change the choice.
        policy.observeReward(0.0);
    }
}

TEST(Single, OneNoisySampleCanLockInABadArm)
{
    // The failure mode Table 8 highlights (worst min column).
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    SingleHeuristic policy(cfg);
    policy.selectArm();
    policy.observeReward(0.9); // lucky draw from the bad arm
    policy.selectArm();
    policy.observeReward(0.5); // unlucky draw from the good arm
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(policy.selectArm(), 0);
        policy.observeReward(0.1);
    }
}

TEST(Periodic, AlternatesExploitationAndSweeps)
{
    MabConfig cfg = config(3);
    cfg.normalizeRewards = false;
    PeriodicConfig pcfg;
    pcfg.exploitSteps = 5;
    pcfg.movingAvgWindow = 2;
    PeriodicHeuristic policy(cfg, pcfg);
    for (int i = 0; i < 3; ++i) {
        policy.selectArm();
        policy.observeReward(i == 1 ? 0.9 : 0.2);
    }
    // 5 exploitation steps of the winner...
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(policy.selectArm(), 1);
        policy.observeReward(0.9);
    }
    // ...then a sweep over all arms in order.
    for (ArmId expect : {0, 1, 2}) {
        EXPECT_EQ(policy.selectArm(), expect);
        policy.observeReward(0.5);
    }
}

TEST(Periodic, SweepCanSwitchWinner)
{
    MabConfig cfg = config(2);
    cfg.normalizeRewards = false;
    PeriodicConfig pcfg;
    pcfg.exploitSteps = 3;
    pcfg.movingAvgWindow = 1;
    PeriodicHeuristic policy(cfg, pcfg);
    policy.selectArm();
    policy.observeReward(0.8);
    policy.selectArm();
    policy.observeReward(0.2);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(policy.selectArm(), 0);
        policy.observeReward(0.8);
    }
    // During the sweep, arm 1 now pays much better.
    policy.selectArm();
    policy.observeReward(0.1); // arm 0 degraded
    policy.selectArm();
    policy.observeReward(0.9); // arm 1 improved
    EXPECT_EQ(policy.selectArm(), 1);
}

TEST(FixedArm, NeverExploresAndSkipsRoundRobin)
{
    FixedArmPolicy policy(config(5), 3);
    EXPECT_FALSE(policy.inRoundRobin());
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(policy.selectArm(), 3);
        policy.observeReward(0.0);
    }
}

TEST(FixedArm, OutOfRangeArmIsRejectedInEveryBuild)
{
    // A checked error, so NDEBUG builds cannot construct a policy
    // whose first selectArm() would write n_[arm] out of bounds.
    for (ArmId arm : {-1, 5, 6, 1'000'000})
        EXPECT_THROW((FixedArmPolicy{config(5), arm}),
                     std::invalid_argument)
            << "arm " << arm;
    FixedArmPolicy last(config(5), 4);
    EXPECT_EQ(last.selectArm(), 4);
}

TEST(SwUcb, WindowBelowTheArmCountIsRejectedInEveryBuild)
{
    // With window < numArms, pending samples are evicted before their
    // reward arrives, so n_ would grow without bound.
    for (int window : {-1, 0, 1, 4})
        EXPECT_THROW((SwUcb{config(5), window}), std::invalid_argument)
            << "window " << window;
    SwUcb smallest(config(5), 5);
    EXPECT_EQ(smallest.window(), 5);
}

TEST(Factory, MakesEveryAlgorithm)
{
    for (MabAlgorithm algo :
         {MabAlgorithm::EpsilonGreedy, MabAlgorithm::Ucb,
          MabAlgorithm::Ducb, MabAlgorithm::Single,
          MabAlgorithm::Periodic}) {
        auto policy = makePolicy(algo, config(4));
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), toString(algo));
        EXPECT_EQ(policy->numArms(), 4);
    }
}

// ---------------------------------------------------------------------
// Property-style sweeps: every algorithm must find the best arm of a
// stationary bandit with a clear gap.
// ---------------------------------------------------------------------

class ConvergenceTest
    : public ::testing::TestWithParam<std::tuple<MabAlgorithm, int>>
{
};

TEST_P(ConvergenceTest, FindsBestArmOfStationaryBandit)
{
    const auto [algo, arms] = GetParam();
    MabConfig cfg = config(arms);
    cfg.normalizeRewards = false;
    auto policy = makePolicy(algo, cfg);

    std::vector<double> means(arms);
    for (int i = 0; i < arms; ++i)
        means[i] = 0.2;
    means[arms / 2] = 0.9;
    BernoulliEnv env(means, 12345);

    int best_picks = 0;
    const int total = 600 * arms;
    for (int i = 0; i < total; ++i) {
        const ArmId a = policy->selectArm();
        policy->observeReward(env.pull(a));
        if (i > total / 2 && a == env.bestArm())
            ++best_picks;
    }
    // In the second half, the best arm must dominate selections.
    EXPECT_GT(best_picks, total / 4)
        << toString(algo) << " with " << arms << " arms";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ConvergenceTest,
    ::testing::Combine(
        ::testing::Values(MabAlgorithm::EpsilonGreedy,
                          MabAlgorithm::Ucb, MabAlgorithm::Ducb,
                          MabAlgorithm::Periodic),
        ::testing::Values(2, 6, 11)));

class InvariantTest
    : public ::testing::TestWithParam<std::tuple<MabAlgorithm, int>>
{
};

TEST_P(InvariantTest, CountsStayConsistent)
{
    const auto [algo, arms] = GetParam();
    auto policy = makePolicy(algo, config(arms));
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        const ArmId a = policy->selectArm();
        ASSERT_GE(a, 0);
        ASSERT_LT(a, arms);
        policy->observeReward(rng.uniform());
        double sum = 0.0;
        for (double n : policy->armCounts()) {
            ASSERT_GE(n, 0.0);
            sum += n;
        }
        // n_total tracks the sum of per-arm counts.
        ASSERT_NEAR(sum, policy->totalCount(), 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, InvariantTest,
    ::testing::Combine(
        ::testing::Values(MabAlgorithm::EpsilonGreedy,
                          MabAlgorithm::Ucb, MabAlgorithm::Ducb,
                          MabAlgorithm::Single),
        ::testing::Values(2, 5, 11, 32)));


// ---------------------------------------------------------------------
// Reward contract, checked for every algorithm the factory builds: a
// rejected reward must leave the policy exactly where it was, and a
// reward before any selectArm() is a caller bug in every build.
// ---------------------------------------------------------------------

const MabAlgorithm kEveryAlgorithm[] = {
    MabAlgorithm::EpsilonGreedy, MabAlgorithm::Ucb,
    MabAlgorithm::Ducb,          MabAlgorithm::Single,
    MabAlgorithm::Periodic,      MabAlgorithm::SwUcb,
    MabAlgorithm::Thompson,      MabAlgorithm::Hierarchical,
};

std::string
algorithmTestName(const ::testing::TestParamInfo<MabAlgorithm> &info)
{
    std::string name = toString(info.param);
    for (char &ch : name) {
        if (ch == '-')
            ch = '_';
    }
    return name;
}

class RewardContractTest : public ::testing::TestWithParam<MabAlgorithm>
{
};

TEST_P(RewardContractTest, NonFiniteRewardLeavesThePolicyUnchanged)
{
    // Two twins see the same rewards; one is also offered NaN and
    // +/-inf at steps inside and after the initial round robin. Both
    // must pick the same arms and end with the same bookkeeping.
    const MabAlgorithm algo = GetParam();
    auto twin = makePolicy(algo, config(4));
    auto probed = makePolicy(algo, config(4));
    BernoulliEnv env({0.2, 0.3, 0.4, 0.9}, 7);
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};

    for (int t = 0; t < 400; ++t) {
        const ArmId a = twin->selectArm();
        ASSERT_EQ(probed->selectArm(), a)
            << toString(algo) << " step " << t;
        if (t == 1 || t == 50 || t == 333) {
            for (double r : bad)
                EXPECT_THROW(probed->observeReward(r),
                             std::invalid_argument)
                    << toString(algo) << " step " << t << " reward " << r;
        }
        const double r = env.pull(a);
        twin->observeReward(r);
        probed->observeReward(r);
    }
    EXPECT_EQ(probed->steps(), twin->steps());
    EXPECT_EQ(probed->armCounts(), twin->armCounts());
    EXPECT_EQ(probed->totalCount(), twin->totalCount());
}

TEST_P(RewardContractTest, RewardBeforeSelectIsALogicError)
{
    const MabAlgorithm algo = GetParam();
    auto policy = makePolicy(algo, config(3));
    EXPECT_THROW(policy->observeReward(0.5), std::logic_error)
        << toString(algo);
    policy->selectArm();
    EXPECT_NO_THROW(policy->observeReward(0.5)) << toString(algo);
}

INSTANTIATE_TEST_SUITE_P(EveryAlgorithm, RewardContractTest,
                         ::testing::ValuesIn(kEveryAlgorithm),
                         algorithmTestName);

} // namespace
} // namespace mab
