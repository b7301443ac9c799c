#include <gtest/gtest.h>

#include <stdexcept>

#include "smt/hill_climbing.h"

namespace mab {
namespace {

HillClimbing::Config
cfg(int iq = 96, int delta = 2)
{
    return {iq, delta};
}

TEST(HillClimbing, StartsAtEqualSplit)
{
    HillClimbing hc(cfg());
    EXPECT_EQ(hc.baseEntries(), 48);
    EXPECT_DOUBLE_EQ(hc.share(0), 0.5);
    EXPECT_DOUBLE_EQ(hc.share(1), 0.5);
}

TEST(HillClimbing, SharesSumToOne)
{
    HillClimbing hc(cfg());
    for (int i = 0; i < 30; ++i) {
        EXPECT_NEAR(hc.share(0) + hc.share(1), 1.0, 1e-12);
        hc.endEpoch(1.0);
    }
}

TEST(HillClimbing, TrialsCoverBasePlusMinusDelta)
{
    HillClimbing hc(cfg(96, 2));
    const int first = hc.currentEntries();
    EXPECT_EQ(first, 48);
    hc.endEpoch(1.0);
    EXPECT_EQ(hc.currentEntries(), 50);
    hc.endEpoch(1.0);
    EXPECT_EQ(hc.currentEntries(), 46);
}

TEST(HillClimbing, MovesTowardBetterAllocation)
{
    HillClimbing hc(cfg(96, 2));
    // Reward larger thread-0 allocations.
    for (int round = 0; round < 10; ++round) {
        for (int trial = 0; trial < 3; ++trial) {
            const double perf = hc.currentEntries();
            hc.endEpoch(perf);
        }
    }
    EXPECT_GT(hc.baseEntries(), 60);
}

TEST(HillClimbing, MovesDownWhenSmallerIsBetter)
{
    HillClimbing hc(cfg(96, 2));
    for (int round = 0; round < 10; ++round) {
        for (int trial = 0; trial < 3; ++trial)
            hc.endEpoch(-hc.currentEntries());
    }
    EXPECT_LT(hc.baseEntries(), 36);
}

TEST(HillClimbing, StaysWhenIncumbentBest)
{
    HillClimbing hc(cfg(96, 2));
    for (int round = 0; round < 5; ++round) {
        for (int trial = 0; trial < 3; ++trial) {
            // Quadratic peak exactly at 48.
            const double x = hc.currentEntries() - 48.0;
            hc.endEpoch(-x * x);
        }
        EXPECT_EQ(hc.baseEntries(), 48);
    }
}

TEST(HillClimbing, ClampsAtBounds)
{
    HillClimbing hc(cfg(96, 2));
    for (int i = 0; i < 300; ++i)
        hc.endEpoch(hc.currentEntries());
    EXPECT_LE(hc.baseEntries(), 94);
    for (int i = 0; i < 600; ++i)
        hc.endEpoch(-hc.currentEntries());
    EXPECT_GE(hc.baseEntries(), 2);
}

TEST(HillClimbing, SaveRestoreRoundTrips)
{
    HillClimbing hc(cfg(96, 2));
    for (int i = 0; i < 30; ++i)
        hc.endEpoch(hc.currentEntries());
    const int base = hc.baseEntries();
    const HillClimbing::State saved = hc.save();

    for (int i = 0; i < 30; ++i)
        hc.endEpoch(-hc.currentEntries());
    EXPECT_NE(hc.baseEntries(), base);

    hc.restore(saved);
    EXPECT_EQ(hc.baseEntries(), base);
}

TEST(HillClimbing, RestoreInvalidStateIsNoOp)
{
    HillClimbing hc(cfg(96, 2));
    const int base = hc.baseEntries();
    hc.restore(HillClimbing::State{}); // default: invalid
    EXPECT_EQ(hc.baseEntries(), base);
}

TEST(HillClimbing, ResetReturnsToSplit)
{
    HillClimbing hc(cfg(96, 2));
    for (int i = 0; i < 30; ++i)
        hc.endEpoch(hc.currentEntries());
    hc.reset();
    EXPECT_EQ(hc.baseEntries(), 48);
}

TEST(HillClimbing, RejectsEmptyTrialRange)
{
    // The trial range [delta, iqSize - delta] must not be empty.
    EXPECT_THROW(HillClimbing(cfg(3, 2)), std::invalid_argument);
    EXPECT_THROW(HillClimbing(cfg(1, 1)), std::invalid_argument);
    EXPECT_THROW(HillClimbing(cfg(96, 0)), std::invalid_argument);
    EXPECT_THROW(HillClimbing(cfg(96, -2)), std::invalid_argument);
}

TEST(HillClimbing, SinglePointTrialRangeStaysPut)
{
    // iqSize == 2 * delta: every candidate clamps to delta.
    HillClimbing hc(cfg(4, 2));
    for (int i = 0; i < 30; ++i) {
        EXPECT_EQ(hc.currentEntries(), 2);
        EXPECT_DOUBLE_EQ(hc.share(0), 0.5);
        hc.endEpoch(i % 3);
    }
    EXPECT_EQ(hc.baseEntries(), 2);
    hc.restore({90, true});
    EXPECT_EQ(hc.baseEntries(), 2);
}

} // namespace
} // namespace mab
