#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "prefetch/ensemble.h"
#include "prefetch/nextline.h"
#include "prefetch/stream.h"
#include "prefetch/stride.h"
#include "sim/rng.h"
#include "trace/record.h"

namespace mab {
namespace {

PrefetchAccess
access(uint64_t pc, uint64_t addr, uint64_t cycle = 0)
{
    PrefetchAccess a;
    a.pc = pc;
    a.addr = addr;
    a.cycle = cycle;
    return a;
}

bool
contains(const std::vector<uint64_t> &v, uint64_t addr)
{
    return std::find(v.begin(), v.end(), addr) != v.end();
}

// ---------------------------------------------------------------------
// Next-line.
// ---------------------------------------------------------------------

TEST(NextLine, PrefetchesFollowingLine)
{
    NextLinePrefetcher pf;
    std::vector<uint64_t> out;
    pf.onAccess(access(1, 0x1008), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x1040u);
}

TEST(NextLine, DisabledIsSilent)
{
    NextLinePrefetcher pf;
    pf.setEnabled(false);
    std::vector<uint64_t> out;
    pf.onAccess(access(1, 0x1000), out);
    EXPECT_TRUE(out.empty());
}

TEST(NextLine, ZeroStorage)
{
    EXPECT_EQ(NextLinePrefetcher{}.storageBytes(), 0u);
}

// ---------------------------------------------------------------------
// Stream.
// ---------------------------------------------------------------------

TEST(Stream, DetectsAscendingStreamAfterTraining)
{
    StreamPrefetcher pf(8);
    pf.setDegree(4);
    std::vector<uint64_t> out;
    const uint64_t base = 0x100000;
    for (int i = 0; i < 3; ++i) {
        out.clear();
        pf.onAccess(access(1, base + i * kLineBytes), out);
    }
    // Third access confirms direction; degree-4 prefetch issued.
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], base + 3 * kLineBytes);
    EXPECT_EQ(out[3], base + 6 * kLineBytes);
}

TEST(Stream, DetectsDescendingStream)
{
    StreamPrefetcher pf(8);
    pf.setDegree(2);
    std::vector<uint64_t> out;
    const uint64_t base = 0x200000;
    for (int i = 0; i < 3; ++i) {
        out.clear();
        pf.onAccess(access(1, base - i * kLineBytes), out);
    }
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], base - 3 * kLineBytes);
}

TEST(Stream, DegreeZeroDisablesPrefetchButKeepsTraining)
{
    StreamPrefetcher pf(8);
    pf.setDegree(0);
    std::vector<uint64_t> out;
    const uint64_t base = 0x300000;
    for (int i = 0; i < 5; ++i)
        pf.onAccess(access(1, base + i * kLineBytes), out);
    EXPECT_TRUE(out.empty());
    // Re-enabling picks up the already-trained stream immediately.
    pf.setDegree(3);
    pf.onAccess(access(1, base + 5 * kLineBytes), out);
    EXPECT_EQ(out.size(), 3u);
}

TEST(Stream, RandomAccessesDoNotTrigger)
{
    StreamPrefetcher pf(8);
    pf.setDegree(4);
    std::vector<uint64_t> out;
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        pf.onAccess(access(1, rng.below(1 << 30) * kLineBytes), out);
    // Spurious matches possible but must stay rare.
    EXPECT_LT(out.size(), 20u);
}

TEST(Stream, TracksMultipleConcurrentStreams)
{
    StreamPrefetcher pf(8);
    pf.setDegree(1);
    std::vector<uint64_t> out;
    const uint64_t a = 0x1000000, b = 0x9000000;
    for (int i = 0; i < 4; ++i) {
        pf.onAccess(access(1, a + i * kLineBytes), out);
        pf.onAccess(access(2, b + i * kLineBytes), out);
    }
    EXPECT_TRUE(contains(out, a + 4 * kLineBytes) ||
                contains(out, a + 3 * kLineBytes));
    EXPECT_TRUE(contains(out, b + 4 * kLineBytes) ||
                contains(out, b + 3 * kLineBytes));
}

TEST(Stream, StorageScalesWithTrackers)
{
    EXPECT_GT(StreamPrefetcher(64).storageBytes(),
              StreamPrefetcher(16).storageBytes());
}

TEST(Stream, ResetForgetsStreams)
{
    StreamPrefetcher pf(8);
    pf.setDegree(2);
    std::vector<uint64_t> out;
    const uint64_t base = 0x400000;
    for (int i = 0; i < 3; ++i)
        pf.onAccess(access(1, base + i * kLineBytes), out);
    pf.reset();
    out.clear();
    pf.onAccess(access(1, base + 3 * kLineBytes), out);
    EXPECT_TRUE(out.empty());
}

/** Line-number keys of the trackers in index order; 0 = free. */
std::vector<uint64_t>
keys(const std::vector<TrackerTag> &tags)
{
    std::vector<uint64_t> k;
    for (const TrackerTag &t : tags)
        k.push_back(t.valid ? t.key : 0);
    return k;
}

TEST(Stream, LowerIndexWinsWhenTwoTrackersQualify)
{
    StreamPrefetcher pf(4);
    std::vector<uint64_t> out;
    // Two accesses to line 100: the second has delta 0 to the first
    // tracker, so it opens a second one (fill order: 3, then 2).
    pf.onAccess(access(1, 100 * kLineBytes), out);
    pf.onAccess(access(1, 100 * kLineBytes), out);
    EXPECT_EQ(keys(pf.trackerTags()),
              (std::vector<uint64_t>{0, 0, 100, 100}));
    // Line 102 is within the window of both; tracker 2 takes it.
    pf.onAccess(access(1, 102 * kLineBytes), out);
    EXPECT_EQ(keys(pf.trackerTags()),
              (std::vector<uint64_t>{0, 0, 102, 100}));
}

TEST(Stream, FillsHighestFreeThenEvictsLeastRecentlyUsed)
{
    StreamPrefetcher pf(3);
    std::vector<uint64_t> out;
    for (uint64_t line : {1000, 2000, 3000})
        pf.onAccess(access(1, line * kLineBytes), out);
    EXPECT_EQ(keys(pf.trackerTags()),
              (std::vector<uint64_t>{3000, 2000, 1000}));
    // Extending the oldest stream makes 2000 the LRU tracker.
    pf.onAccess(access(1, 1001 * kLineBytes), out);
    pf.onAccess(access(1, 4000 * kLineBytes), out);
    EXPECT_EQ(keys(pf.trackerTags()),
              (std::vector<uint64_t>{3000, 4000, 1001}));
    pf.onAccess(access(1, 5000 * kLineBytes), out);
    EXPECT_EQ(keys(pf.trackerTags()),
              (std::vector<uint64_t>{5000, 4000, 1001}));
    pf.reset();
    EXPECT_EQ(keys(pf.trackerTags()), (std::vector<uint64_t>{0, 0, 0}));
}

TEST(Stream, TrackerCountOutsideOneTo64IsRejected)
{
    EXPECT_THROW(StreamPrefetcher(0), std::invalid_argument);
    EXPECT_THROW(StreamPrefetcher(-1), std::invalid_argument);
    EXPECT_THROW(StreamPrefetcher(65), std::invalid_argument);
    EXPECT_NO_THROW(StreamPrefetcher(1));
    EXPECT_NO_THROW(StreamPrefetcher(64));
}

// ---------------------------------------------------------------------
// PC-stride.
// ---------------------------------------------------------------------

TEST(Stride, LearnsPerPcStride)
{
    StridePrefetcher pf(16, 2);
    std::vector<uint64_t> out;
    for (int i = 0; i < 4; ++i) {
        out.clear();
        pf.onAccess(access(0xA, 0x10000 + i * 512), out);
    }
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0x10000 + 3 * 512 + 512);
    EXPECT_EQ(out[1], 0x10000 + 3 * 512 + 1024);
}

TEST(Stride, DistinguishesPcs)
{
    StridePrefetcher pf(16, 1);
    std::vector<uint64_t> out;
    // Interleaved PCs with different strides.
    for (int i = 0; i < 5; ++i) {
        pf.onAccess(access(0xA, 0x10000 + i * 256), out);
        pf.onAccess(access(0xB, 0x80000 + i * 1024), out);
    }
    EXPECT_TRUE(contains(out, 0x10000 + 4 * 256 + 256));
    EXPECT_TRUE(contains(out, 0x80000 + 4 * 1024 + 1024));
}

TEST(Stride, StrideChangeRetrains)
{
    StridePrefetcher pf(16, 1);
    std::vector<uint64_t> out;
    for (int i = 0; i < 4; ++i)
        pf.onAccess(access(0xA, 0x10000 + i * 256), out);
    out.clear();
    // Stride changes: first new-stride access must not prefetch with
    // the old stride's confidence.
    pf.onAccess(access(0xA, 0x50000), out);
    EXPECT_TRUE(out.empty());
    pf.onAccess(access(0xA, 0x50000 + 128), out);
    EXPECT_TRUE(out.empty()); // confidence 1 < threshold
    pf.onAccess(access(0xA, 0x50000 + 256), out);
    EXPECT_TRUE(contains(out, 0x50000 + 256 + 128));
}

TEST(Stride, ZeroDeltaDoesNotPrefetch)
{
    StridePrefetcher pf(16, 2);
    std::vector<uint64_t> out;
    for (int i = 0; i < 5; ++i)
        pf.onAccess(access(0xA, 0x10000), out);
    EXPECT_TRUE(out.empty());
}

TEST(Stride, NegativeStrideSupported)
{
    StridePrefetcher pf(16, 1);
    std::vector<uint64_t> out;
    for (int i = 0; i < 4; ++i) {
        out.clear();
        pf.onAccess(access(0xA, 0x100000 - i * 320), out);
    }
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x100000 - 3 * 320 - 320);
}

TEST(Stride, TableEvictsLruPc)
{
    StridePrefetcher pf(2, 1);
    std::vector<uint64_t> out;
    for (int i = 0; i < 4; ++i) {
        pf.onAccess(access(0xA, 0x10000 + i * 256), out);
        pf.onAccess(access(0xB, 0x20000 + i * 256), out);
    }
    // A third PC evicts the LRU entry; retraining PC 0xC works.
    for (int i = 0; i < 4; ++i) {
        out.clear();
        pf.onAccess(access(0xC, 0x30000 + i * 256), out);
    }
    EXPECT_FALSE(out.empty());
}

TEST(Stride, FillsHighestFreeThenEvictsLeastRecentlyUsed)
{
    StridePrefetcher pf(3, 1);
    std::vector<uint64_t> out;
    for (uint64_t pc : {0xA, 0xB, 0xC})
        pf.onAccess(access(pc, 0x10000 * pc), out);
    EXPECT_EQ(keys(pf.trackerTags()),
              (std::vector<uint64_t>{0xC, 0xB, 0xA}));
    // Touching 0xA makes 0xB the LRU PC.
    pf.onAccess(access(0xA, 0x10000 * 0xA + 64), out);
    pf.onAccess(access(0xD, 0xD0000), out);
    EXPECT_EQ(keys(pf.trackerTags()),
              (std::vector<uint64_t>{0xC, 0xD, 0xA}));
    pf.onAccess(access(0xE, 0xE0000), out);
    EXPECT_EQ(keys(pf.trackerTags()),
              (std::vector<uint64_t>{0xE, 0xD, 0xA}));
}

TEST(Stride, TrackerCountOutsideOneTo64IsRejected)
{
    EXPECT_THROW(StridePrefetcher(0), std::invalid_argument);
    EXPECT_THROW(StridePrefetcher(65, 1), std::invalid_argument);
    EXPECT_NO_THROW(StridePrefetcher(1, 1));
    EXPECT_NO_THROW(StridePrefetcher(64, 1));
}

// ---------------------------------------------------------------------
// Ensemble / Table 7 arms.
// ---------------------------------------------------------------------

TEST(Ensemble, OutOfRangeArmIsRejectedInEveryBuild)
{
    BanditEnsemblePrefetcher pf;
    pf.applyArm(3);
    EXPECT_THROW(pf.applyArm(-1), std::invalid_argument);
    EXPECT_THROW(pf.applyArm(11), std::invalid_argument);
    EXPECT_EQ(pf.currentArm(), 3);
}

TEST(Ensemble, ArmTableMatchesTable7)
{
    const auto &arms = prefetchArmTable();
    ASSERT_EQ(arms.size(), 11u);
    // Spot-check the arms the paper prints.
    EXPECT_FALSE(arms[0].nextLineOn);
    EXPECT_EQ(arms[0].strideDegree, 0);
    EXPECT_EQ(arms[0].streamDegree, 4);
    // Arm 1: everything off.
    EXPECT_FALSE(arms[1].nextLineOn);
    EXPECT_EQ(arms[1].strideDegree, 0);
    EXPECT_EQ(arms[1].streamDegree, 0);
    // Arm 2: next-line only.
    EXPECT_TRUE(arms[2].nextLineOn);
    // Arm 10: most aggressive.
    EXPECT_EQ(arms[10].strideDegree, 15);
    EXPECT_EQ(arms[10].streamDegree, 15);
}

TEST(Ensemble, ArmOffProducesNoPrefetches)
{
    BanditEnsemblePrefetcher pf;
    pf.applyArm(1);
    std::vector<uint64_t> out;
    for (int i = 0; i < 20; ++i)
        pf.onAccess(access(1, 0x1000000 + i * kLineBytes), out);
    EXPECT_TRUE(out.empty());
}

TEST(Ensemble, NextLineArmPrefetchesOneAhead)
{
    BanditEnsemblePrefetcher pf;
    pf.applyArm(2);
    std::vector<uint64_t> out;
    pf.onAccess(access(1, 0x1000), out);
    EXPECT_TRUE(contains(out, 0x1040));
}

TEST(Ensemble, ArmSwitchKeepsWarmTrainingState)
{
    BanditEnsemblePrefetcher pf;
    pf.applyArm(1); // off, but trackers keep training
    std::vector<uint64_t> out;
    const uint64_t base = 0x2000000;
    for (int i = 0; i < 6; ++i)
        pf.onAccess(access(1, base + i * kLineBytes), out);
    EXPECT_TRUE(out.empty());
    pf.applyArm(0); // streamer degree 4
    pf.onAccess(access(1, base + 6 * kLineBytes), out);
    EXPECT_FALSE(out.empty()); // fires immediately: already trained
}

TEST(Ensemble, CurrentArmTracked)
{
    BanditEnsemblePrefetcher pf;
    pf.applyArm(7);
    EXPECT_EQ(pf.currentArm(), 7);
}

TEST(Ensemble, StorageUnder2KB)
{
    // Section 7.2.1: ensemble + agent < 2KB.
    EXPECT_LT(BanditEnsemblePrefetcher{}.storageBytes(), 2048u);
}

/** Property sweep: every arm's configuration is applied faithfully. */
class ArmTest : public ::testing::TestWithParam<int>
{
};

TEST_P(ArmTest, AppliedDegreesMatchTable)
{
    const int arm = GetParam();
    BanditEnsemblePrefetcher pf;
    pf.applyArm(arm);
    const PrefetchArm &expect = prefetchArmTable()[arm];

    // Strided accesses with a 2-line stride: only the stride
    // prefetcher fires, emitting exactly strideDegree requests.
    std::vector<uint64_t> out;
    for (int i = 0; i < 6; ++i) {
        out.clear();
        pf.onAccess(access(0xAB, 0x4000000 + i * 8 * kLineBytes), out);
    }
    const int nl = expect.nextLineOn ? 1 : 0;
    EXPECT_EQ(out.size(),
              static_cast<size_t>(expect.strideDegree + nl));
}

INSTANTIATE_TEST_SUITE_P(AllArms, ArmTest,
                         ::testing::Range(0, 11));

} // namespace
} // namespace mab
