#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "prefetch/bingo.h"
#include "prefetch/ipcp.h"
#include "prefetch/mlop.h"
#include "prefetch/pythia.h"
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
// Bingo.
// ---------------------------------------------------------------------

TEST(Bingo, ReplaysLearnedFootprintOnRetrigger)
{
    BingoPrefetcher pf(2048, 8, 256);
    std::vector<uint64_t> out;
    // Teach a footprint: region visits lines {0, 3, 7} triggered by
    // pc 0x11 at offset 0, over several region instances.
    const int offsets[] = {0, 3, 7};
    for (uint64_t region = 0; region < 12; ++region) {
        const uint64_t base = 0x100000 + region * 2048;
        for (int off : offsets)
            pf.onAccess(access(0x11, base + off * kLineBytes), out);
    }
    // A brand-new region triggered at offset 0 must replay {3, 7}.
    out.clear();
    const uint64_t fresh = 0x900000;
    pf.onAccess(access(0x11, fresh), out);
    EXPECT_TRUE(contains(out, fresh + 3 * kLineBytes));
    EXPECT_TRUE(contains(out, fresh + 7 * kLineBytes));
    EXPECT_FALSE(contains(out, fresh + 1 * kLineBytes));
}

TEST(Bingo, NoHistoryNoPrefetch)
{
    BingoPrefetcher pf;
    std::vector<uint64_t> out;
    pf.onAccess(access(0x22, 0x500000), out);
    EXPECT_TRUE(out.empty());
}

TEST(Bingo, AccumulationPullsRemainingFootprint)
{
    BingoPrefetcher pf(2048, 8, 256);
    std::vector<uint64_t> out;
    const int offsets[] = {0, 1, 2, 3};
    for (uint64_t region = 0; region < 12; ++region) {
        const uint64_t base = 0x100000 + region * 2048;
        for (int off : offsets)
            pf.onAccess(access(0x11, base + off * kLineBytes), out);
    }
    out.clear();
    const uint64_t fresh = 0xA00000;
    pf.onAccess(access(0x11, fresh), out); // trigger: predicts 1,2,3
    out.clear();
    // Second access (accumulating): remaining lines re-requested.
    pf.onAccess(access(0x11, fresh + kLineBytes), out);
    EXPECT_TRUE(contains(out, fresh + 2 * kLineBytes));
    EXPECT_TRUE(contains(out, fresh + 3 * kLineBytes));
}

TEST(Bingo, FallbackToShortKeyOnNewOffset)
{
    BingoPrefetcher pf(2048, 8, 256);
    std::vector<uint64_t> out;
    const int offsets[] = {5, 9};
    for (uint64_t region = 0; region < 12; ++region) {
        const uint64_t base = 0x100000 + region * 2048;
        for (int off : offsets)
            pf.onAccess(access(0x33, base + off * kLineBytes), out);
    }
    // Trigger at a different offset: the long key misses but the
    // PC-only key still supplies the footprint.
    out.clear();
    const uint64_t fresh = 0xB00000;
    pf.onAccess(access(0x33, fresh + 9 * kLineBytes), out);
    EXPECT_TRUE(contains(out, fresh + 5 * kLineBytes));
}

TEST(Bingo, LruEvictionClosesTheGenerationIntoHistory)
{
    BingoPrefetcher pf(2048, 2, 2048);
    std::vector<uint64_t> out;
    const uint64_t r1 = 0x100000, r2 = 0x200000, r3 = 0x300000,
                   r4 = 0x400000;
    // Region 1 (PC 0x11) touches lines 0, 1 and 2.
    for (uint64_t line = 0; line < 3; ++line)
        pf.onAccess(access(0x11, r1 + line * kLineBytes), out);
    pf.onAccess(access(0x22, r2), out);
    EXPECT_EQ(pf.trackerTags()[0].key, r1 / 2048);
    EXPECT_EQ(pf.trackerTags()[1].key, r2 / 2048);
    // Nothing was recorded yet: a new region under PC 0x11 is silent.
    // Opening it evicts region 1, the LRU generation, into history.
    out.clear();
    pf.onAccess(access(0x11, r3), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(pf.trackerTags()[0].key, r3 / 2048);
    // The next trigger under PC 0x11 replays region 1's footprint.
    out.clear();
    pf.onAccess(access(0x11, r4), out);
    EXPECT_EQ(out, (std::vector<uint64_t>{r4 + kLineBytes,
                                          r4 + 2 * kLineBytes}));
    EXPECT_EQ(pf.trackerTags()[1].key, r4 / 2048);
}

TEST(Bingo, FillsLowestFreeEntryFirst)
{
    BingoPrefetcher pf(2048, 3, 2048);
    std::vector<uint64_t> out;
    pf.onAccess(access(1, 0x100000), out);
    const std::vector<TrackerTag> tags = pf.trackerTags();
    EXPECT_TRUE(tags[0].valid);
    EXPECT_FALSE(tags[1].valid);
    EXPECT_FALSE(tags[2].valid);
}

TEST(Bingo, BadGeometryIsRejectedInEveryBuild)
{
    // Not a power of two, below one line, above 64 lines.
    for (uint64_t region : {0ull, 32ull, 96ull, 8192ull})
        EXPECT_THROW(BingoPrefetcher{region}, std::invalid_argument)
            << region;
    // Not 4 times a power of two (below 4 divided by zero sets).
    for (int hist : {-4, 0, 2, 6, 12})
        EXPECT_THROW(BingoPrefetcher(2048, 64, hist),
                     std::invalid_argument)
            << hist;
    EXPECT_THROW(BingoPrefetcher(2048, 0, 2048), std::invalid_argument);
    EXPECT_THROW(BingoPrefetcher(2048, 65, 2048), std::invalid_argument);
    EXPECT_NO_THROW(BingoPrefetcher(64, 1, 4));
    EXPECT_NO_THROW(BingoPrefetcher(4096, 64, 8));
}

TEST(Bingo, StorageInTensOfKb)
{
    const uint64_t bytes = BingoPrefetcher{}.storageBytes();
    EXPECT_GT(bytes, 10u * 1024u);
    EXPECT_LT(bytes, 64u * 1024u);
}

// ---------------------------------------------------------------------
// MLOP.
// ---------------------------------------------------------------------

TEST(Mlop, LearnsUnitStrideStream)
{
    MlopPrefetcher pf(16, 256, 128);
    std::vector<uint64_t> out;
    const uint64_t base = 0x100000;
    for (int i = 0; i < 400; ++i)
        pf.onAccess(access(1, base + i * kLineBytes), out);
    // After retraining, level-1 offset must be +1.
    EXPECT_EQ(pf.levelOffset(0), 1);
    out.clear();
    pf.onAccess(access(1, base + 400 * kLineBytes), out);
    EXPECT_TRUE(contains(out, base + 401 * kLineBytes));
}

TEST(Mlop, LearnsMultiLineStride)
{
    MlopPrefetcher pf(16, 256, 128);
    std::vector<uint64_t> out;
    const uint64_t base = 0x200000;
    for (int i = 0; i < 400; ++i)
        pf.onAccess(access(1, base + i * 4 * kLineBytes), out);
    EXPECT_EQ(pf.levelOffset(0), 4);
    out.clear();
    pf.onAccess(access(1, base + 400 * 4 * kLineBytes), out);
    EXPECT_TRUE(
        contains(out, base + 401 * 4 * kLineBytes));
}

TEST(Mlop, DeepLevelsExtendLookahead)
{
    MlopPrefetcher pf(16, 256, 128);
    std::vector<uint64_t> out;
    const uint64_t base = 0x300000;
    for (int i = 0; i < 600; ++i)
        pf.onAccess(access(1, base + i * kLineBytes), out);
    // Level k of a unit stream is offset k.
    EXPECT_EQ(pf.levelOffset(3), 4);
    EXPECT_EQ(pf.levelOffset(7), 8);
}

TEST(Mlop, SilentOnRandomTraffic)
{
    MlopPrefetcher pf(16, 256, 128);
    std::vector<uint64_t> out;
    Rng rng(3);
    for (int i = 0; i < 2000; ++i)
        pf.onAccess(access(1, rng.below(1 << 28) * kLineBytes), out);
    EXPECT_LT(out.size(), 100u);
}

TEST(Mlop, RetrainOverAWrappedRingMatchesTheUnwrappedHistory)
{
    // 101 accesses: stride 3, then stride 5 for the last 20.
    std::vector<uint64_t> lines;
    uint64_t line = 1 << 20;
    for (int i = 0; i < 101; ++i) {
        lines.push_back(line);
        line += i < 80 ? 3 : 5;
    }
    // Wrapped: a 64-entry ring retrained after 101 accesses, so its
    // write position sits at 37. Unwrapped: the same ring fed only the
    // last 64 accesses and retrained as it fills (position 0).
    MlopPrefetcher wrapped(16, 64, 101);
    MlopPrefetcher unwrapped(16, 64, 64);
    std::vector<uint64_t> out;
    for (uint64_t l : lines)
        wrapped.onAccess(access(1, l * kLineBytes), out);
    for (size_t i = lines.size() - 64; i < lines.size(); ++i)
        unwrapped.onAccess(access(1, lines[i] * kLineBytes), out);
    bool any = false;
    for (int k = 0; k < 16; ++k) {
        EXPECT_EQ(wrapped.levelOffset(k), unwrapped.levelOffset(k)) << k;
        any = any || wrapped.levelOffset(k) != 0;
    }
    EXPECT_TRUE(any);
    EXPECT_EQ(wrapped.levelOffset(0), 3);
}

TEST(Mlop, ResetClearsOffsets)
{
    MlopPrefetcher pf(16, 256, 128);
    std::vector<uint64_t> out;
    for (int i = 0; i < 400; ++i)
        pf.onAccess(access(1, 0x100000 + i * kLineBytes), out);
    pf.reset();
    for (int k = 0; k < 16; ++k)
        EXPECT_EQ(pf.levelOffset(k), 0);
}

// ---------------------------------------------------------------------
// IPCP.
// ---------------------------------------------------------------------

TEST(Ipcp, ClassifiesConstantStrideIp)
{
    IpcpPrefetcher pf;
    std::vector<uint64_t> out;
    for (int i = 0; i < 5; ++i) {
        out.clear();
        pf.onAccess(access(0xC5, 0x100000 + i * 640), out);
    }
    EXPECT_TRUE(contains(out, 0x100000 + 4 * 640 + 640));
}

TEST(Ipcp, GlobalStreamClassCoversNewIps)
{
    IpcpPrefetcher pf;
    std::vector<uint64_t> out;
    // A monotonic global stream issued from rotating IPs.
    uint64_t addr = 0x400000;
    for (int i = 0; i < 40; ++i) {
        out.clear();
        addr += kLineBytes;
        pf.onAccess(access(0xD0 + (i % 4), addr, i), out);
    }
    EXPECT_FALSE(out.empty());
}

TEST(Ipcp, RandomIpsStaySilent)
{
    IpcpPrefetcher pf;
    std::vector<uint64_t> out;
    Rng rng(11);
    for (int i = 0; i < 500; ++i)
        pf.onAccess(access(rng.below(64), rng.below(1 << 28) * 64),
                    out);
    EXPECT_LT(out.size(), 50u);
}

TEST(Ipcp, StorageSmall)
{
    EXPECT_LT(IpcpPrefetcher{}.storageBytes(), 4096u);
}

// ---------------------------------------------------------------------
// Pythia.
// ---------------------------------------------------------------------

TEST(Pythia, ActionSpaceIs16x4)
{
    EXPECT_EQ(PythiaPrefetcher::offsets().size(), 16u);
    EXPECT_EQ(PythiaPrefetcher::degrees().size(), 4u);
    EXPECT_EQ(PythiaPrefetcher::kNumActions, 64);
    // Offset 0 (no prefetch) is part of the space.
    EXPECT_TRUE(std::count(PythiaPrefetcher::offsets().begin(),
                           PythiaPrefetcher::offsets().end(), 0) == 1);
}

TEST(Pythia, Deterministic)
{
    PythiaPrefetcher a, b;
    std::vector<uint64_t> oa, ob;
    for (int i = 0; i < 2000; ++i) {
        oa.clear();
        ob.clear();
        a.onAccess(access(1, 0x100000 + i * kLineBytes, i * 10), oa);
        b.onAccess(access(1, 0x100000 + i * kLineBytes, i * 10), ob);
        ASSERT_EQ(oa, ob);
    }
}

TEST(Pythia, LearnsToPrefetchOnStream)
{
    PythiaPrefetcher pf;
    std::vector<uint64_t> out;
    size_t late_phase = 0;
    for (int i = 0; i < 6000; ++i) {
        out.clear();
        pf.onAccess(access(1, 0x100000 + static_cast<uint64_t>(i) *
                                  kLineBytes,
                           static_cast<uint64_t>(i) * 20),
                    out);
        if (i > 4000)
            late_phase += out.size();
    }
    // In steady state the agent issues prefetches regularly.
    EXPECT_GT(late_phase, 1000u);
    // And the dominant action is a prefetching one.
    const auto &counts = pf.actionCounts();
    const int top = static_cast<int>(
        std::max_element(counts.begin(), counts.end()) -
        counts.begin());
    EXPECT_NE(PythiaPrefetcher::offsets()[top >> 2], 0);
}

TEST(Pythia, LearnsNotToPrefetchOnRandom)
{
    PythiaPrefetcher pf;
    std::vector<uint64_t> out;
    Rng rng(21);
    size_t late_phase = 0;
    for (int i = 0; i < 8000; ++i) {
        out.clear();
        pf.onAccess(access(1, rng.below(1 << 24) * kLineBytes,
                           static_cast<uint64_t>(i) * 50),
                    out);
        if (i > 6000)
            late_phase += out.size();
    }
    // Late in the run the agent should mostly abstain: well under
    // one line per access on average.
    EXPECT_LT(late_phase, 1500u);
}

TEST(Pythia, ActionCountsSumToAccesses)
{
    PythiaPrefetcher pf;
    std::vector<uint64_t> out;
    for (int i = 0; i < 500; ++i)
        pf.onAccess(access(1, 0x100000 + i * kLineBytes, i), out);
    const auto &counts = pf.actionCounts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull),
              500ull);
}

TEST(Pythia, ArgmaxTiesGoToTheLowestAction)
{
    // No exploration and all Q-values equal: every decision is a tie.
    // With no evaluation queue each decision is paid at once, which
    // lowers its Q below the rest, so a repeated access walks the
    // tied actions upward one at a time.
    PythiaConfig cfg;
    cfg.epsilon = 0.0;
    cfg.eqDepth = 0;
    PythiaPrefetcher pf(cfg);
    std::vector<uint64_t> out;
    for (int a = 0; a < 8; ++a) {
        pf.onAccess(access(0x42, 0x100000), out);
        EXPECT_EQ(pf.actionCounts()[a], 1u) << a;
    }
    EXPECT_EQ(std::accumulate(pf.actionCounts().begin(),
                              pf.actionCounts().end(), uint64_t{0}),
              8u);
}

TEST(Pythia, NonFiniteBandwidthReadingsKeepDecisionsDefined)
{
    // A NaN utilization poisons the Q-values it touches; the argmax
    // then behaves as a serial scan would (a NaN Q never wins, a NaN
    // Q(0) keeps action 0) instead of reading out of range.
    PythiaConfig cfg;
    cfg.epsilon = 0.0;
    cfg.eqDepth = 0;
    PythiaPrefetcher pf(cfg);
    pf.setBandwidthProbe([](uint64_t) { return std::nan(""); });
    std::vector<uint64_t> out;
    for (int i = 0; i < 5; ++i)
        pf.onAccess(access(0x42, 0x100000), out);
    EXPECT_EQ(pf.actionCounts()[0], 5u);
}

TEST(Pythia, BadQueueOrPlaneSizeIsRejected)
{
    PythiaConfig cfg;
    cfg.eqDepth = -1;
    EXPECT_THROW(PythiaPrefetcher{cfg}, std::invalid_argument);
    cfg.eqDepth = 0;
    cfg.planeEntries = 0;
    EXPECT_THROW(PythiaPrefetcher{cfg}, std::invalid_argument);
    cfg.planeEntries = 1;
    EXPECT_NO_THROW(PythiaPrefetcher{cfg});
}

TEST(Pythia, StorageMatchesPaperBudget)
{
    // ~25.5KB in the paper.
    const uint64_t bytes = PythiaPrefetcher{}.storageBytes();
    EXPECT_GT(bytes, 24u * 1024u);
    EXPECT_LT(bytes, 27u * 1024u);
}

TEST(Pythia, ResetClearsLearnedState)
{
    PythiaPrefetcher pf;
    std::vector<uint64_t> out;
    for (int i = 0; i < 2000; ++i)
        pf.onAccess(access(1, 0x100000 + i * kLineBytes, i * 10), out);
    pf.reset();
    const auto &counts = pf.actionCounts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull),
              0ull);
}

TEST(Pythia, BandwidthProbeReducesAggressionUnderPressure)
{
    // With a saturated-bus probe, the wrong-prefetch penalty grows
    // and the no-prefetch reward improves: on random traffic the
    // pressured agent must abstain at least as much as the baseline.
    PythiaPrefetcher relaxed, pressured;
    pressured.setBandwidthProbe([](uint64_t) { return 1.0; });
    std::vector<uint64_t> o1, o2;
    size_t relaxed_total = 0, pressured_total = 0;
    Rng rng(5);
    for (int i = 0; i < 8000; ++i) {
        const uint64_t addr = rng.below(1 << 24) * kLineBytes;
        o1.clear();
        o2.clear();
        relaxed.onAccess(access(1, addr, i * 50), o1);
        pressured.onAccess(access(1, addr, i * 50), o2);
        relaxed_total += o1.size();
        pressured_total += o2.size();
    }
    EXPECT_LE(pressured_total, relaxed_total + 200);
}

} // namespace
} // namespace mab
