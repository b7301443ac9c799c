#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cpu/core_model.h"
#include "prefetch/stride.h"
#include "smt/thread_source.h"
#include "trace/generator.h"
#include "trace/replay.h"
#include "trace/suites.h"

using namespace mab;

/**
 * Trace-arena / replay tests: the hard invariant is that replay is
 * byte-identical to the generator — every field of every record, for
 * every workload, after reset(), after extend(), and for every thread
 * that acquires the trace concurrently.
 */

static_assert(sizeof(PackedRecord) == 16,
              "replay buffers assume 16-byte packed records");

namespace {

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                 uint64_t index, const std::string &who)
{
    ASSERT_EQ(a.pc, b.pc) << who << " record " << index;
    ASSERT_EQ(a.addr, b.addr) << who << " record " << index;
    ASSERT_EQ(a.isLoad, b.isLoad) << who << " record " << index;
    ASSERT_EQ(a.isStore, b.isStore) << who << " record " << index;
    ASSERT_EQ(a.isBranch, b.isBranch) << who << " record " << index;
    ASSERT_EQ(a.mispredicted, b.mispredicted)
        << who << " record " << index;
    ASSERT_EQ(a.dependsOnPrevLoad, b.dependsOnPrevLoad)
        << who << " record " << index;
}

/**
 * Every test runs against the process-global arena; snapshot and
 * restore its knobs (and contents) so tests compose in any order.
 */
class ReplayTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        TraceArena &arena = TraceArena::global();
        enabled_ = arena.stats().enabled;
        budget_ = arena.budgetBytes();
        arena.clear();
        arena.setEnabled(true);
    }

    void
    TearDown() override
    {
        TraceArena &arena = TraceArena::global();
        arena.clear();
        arena.setEnabled(enabled_);
        arena.setBudgetBytes(budget_);
    }

  private:
    bool enabled_ = true;
    uint64_t budget_ = 0;
};

} // namespace

TEST(PackedRecord, RoundTripsEveryFieldCombination)
{
    for (unsigned bits = 0; bits < 32; ++bits) {
        TraceRecord rec;
        rec.pc = 0x400000 + bits * 0x1111;
        rec.addr = 0xdeadbeef000 + bits;
        rec.isLoad = bits & 1;
        rec.isStore = (bits >> 1) & 1;
        rec.isBranch = (bits >> 2) & 1;
        rec.mispredicted = (bits >> 3) & 1;
        rec.dependsOnPrevLoad = (bits >> 4) & 1;
        const TraceRecord back = PackedRecord::pack(rec).unpack();
        expectSameRecord(rec, back, bits, "roundtrip");
    }
}

TEST(PackedRecord, PreservesFullAddressAndMaxPc)
{
    TraceRecord rec;
    rec.pc = PackedRecord::kPcMask; // 56-bit ceiling
    rec.addr = ~0ull;
    const TraceRecord back = PackedRecord::pack(rec).unpack();
    EXPECT_EQ(back.pc, PackedRecord::kPcMask);
    EXPECT_EQ(back.addr, ~0ull);
}

TEST(PackedRecord, RejectsOverwidePc)
{
    TraceRecord rec;
    rec.pc = PackedRecord::kPcMask + 1;
    EXPECT_THROW(PackedRecord::pack(rec), std::runtime_error);
}

/** Replay equivalence for every field of every record of every
 *  workload of every suite. */
TEST_F(ReplayTest, ReplayMatchesLiveGenerationForEveryWorkload)
{
    const uint64_t n = 20'000;
    for (const WorkloadSpec &w : allWorkloads()) {
        SyntheticTrace live(w.app);
        ReplaySource replay(
            TraceArena::global().acquireTrace(w.app, n));
        for (uint64_t i = 0; i < n; ++i) {
            expectSameRecord(live.next(), replay.next(), i,
                             w.suite + "/" + w.app.name);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST_F(ReplayTest, ResetReplaysTheSameRecords)
{
    const AppProfile app = appByName("lbm06");
    const uint64_t n = 5000;
    ReplaySource replay(TraceArena::global().acquireTrace(app, n));
    for (uint64_t i = 0; i < 1234; ++i)
        replay.next(); // consume partway
    replay.reset();
    EXPECT_EQ(replay.position(), 0u);
    SyntheticTrace live(app);
    for (uint64_t i = 0; i < n; ++i) {
        expectSameRecord(live.next(), replay.next(), i, "post-reset");
        if (HasFatalFailure())
            return;
    }
}

TEST_F(ReplayTest, ExhaustionThrowsInsteadOfWrapping)
{
    const AppProfile app = appByName("lbm06");
    ReplaySource replay(TraceArena::global().acquireTrace(app, 100));
    for (uint64_t i = 0; i < 100; ++i)
        replay.next();
    EXPECT_THROW(replay.next(), std::runtime_error);
}

/** Four threads acquire one workload from a cold arena at once: one
 *  generates it, the other three wait on the arena's future, and all
 *  four replay exactly the live stream. */
TEST_F(ReplayTest, ConcurrentConsumersSeeIdenticalRecords)
{
    const AppProfile app = appByName("ligra_bfs");
    const uint64_t n = 32'768;
    auto hashOf = [](auto &src, uint64_t count) {
        uint64_t h = 1469598103934665603ull;
        for (uint64_t i = 0; i < count; ++i) {
            const TraceRecord rec = src.next();
            for (uint64_t v :
                 {rec.pc, rec.addr,
                  static_cast<uint64_t>(rec.isLoad) |
                      static_cast<uint64_t>(rec.isStore) << 1 |
                      static_cast<uint64_t>(rec.isBranch) << 2 |
                      static_cast<uint64_t>(rec.mispredicted) << 3 |
                      static_cast<uint64_t>(rec.dependsOnPrevLoad)
                          << 4}) {
                h ^= v;
                h *= 1099511628211ull;
            }
        }
        return h;
    };
    SyntheticTrace live(app);
    const uint64_t expected = hashOf(live, n);

    std::vector<uint64_t> hashes(4, 0);
    {
        std::vector<std::thread> threads;
        for (size_t t = 0; t < hashes.size(); ++t)
            threads.emplace_back([&, t] {
                ReplaySource src(
                    TraceArena::global().acquireTrace(app, n));
                hashes[t] = hashOf(src, n);
            });
        for (auto &th : threads)
            th.join();
    }
    for (size_t t = 0; t < hashes.size(); ++t)
        EXPECT_EQ(hashes[t], expected) << "consumer " << t;
    const TraceArena::Stats s = TraceArena::global().stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.entries, 1u);
}

/** A cold in-memory acquire returns the whole trace: every record is
 *  resident and its generation time is counted. */
TEST_F(ReplayTest, ColdAcquireMaterializesTheWholeTrace)
{
    const uint64_t n = 50'000;
    const auto trace =
        TraceArena::global().acquireTrace(appByName("mcf06"), n);
    EXPECT_EQ(trace->bytes(), n * sizeof(PackedRecord));
    const TraceArena::Stats s = TraceArena::global().stats();
    EXPECT_EQ(s.bytes, n * sizeof(PackedRecord));
    EXPECT_GT(s.genMs, 0.0);
}

TEST_F(ReplayTest, ArenaCountsHitsAndMisses)
{
    TraceArena &arena = TraceArena::global();
    const AppProfile app = appByName("lbm06");
    const auto a = arena.acquireTrace(app, 1000);
    const auto b = arena.acquireTrace(app, 1000);
    EXPECT_EQ(a.get(), b.get()); // one workload, one materialization
    const auto c = arena.acquireTrace(app, 2000);
    EXPECT_NE(a.get(), c.get()); // instruction count is part of the key

    AppProfile reseeded = app;
    reseeded.seed ^= 1;
    const auto d = arena.acquireTrace(reseeded, 1000);
    EXPECT_NE(a.get(), d.get()); // seed is part of the key

    const TraceArena::Stats s = arena.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 3u);
    EXPECT_EQ(s.entries, 3u);
}

TEST_F(ReplayTest, ArenaEvictsLeastRecentlyUsedOverBudget)
{
    TraceArena &arena = TraceArena::global();
    const uint64_t n = 4096;
    // Budget fits exactly one fully-materialized 4096-record trace,
    // so the third acquire (with two resident) must evict the oldest.
    arena.setBudgetBytes(n * sizeof(PackedRecord));

    const char *apps[] = {"lbm06", "mcf06", "gcc06"};
    for (const char *name : apps)
        arena.acquireTrace(appByName(name), n);
    const TraceArena::Stats s = arena.stats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_LE(s.entries, 2u);

    // The survivor set is the most recently acquired; re-acquiring
    // the oldest is a miss again.
    arena.acquireTrace(appByName("lbm06"), n);
    EXPECT_EQ(arena.stats().misses, 4u);
}

TEST_F(ReplayTest, DisabledArenaMaterializesAPrivateTrace)
{
    TraceArena &arena = TraceArena::global();
    arena.setEnabled(false);
    const AppProfile app = appByName("lbm06");
    const auto src = makeRunSource(app, 1000);
    EXPECT_EQ(src->size(), 1000u);
    EXPECT_EQ(src->position(), 0u);
    SyntheticTrace gen(app);
    for (uint64_t i = 0; i < 1000; ++i) {
        expectSameRecord(gen.next(), src->next(), i, "private");
        if (HasFatalFailure())
            return;
    }
    const TraceArena::Stats off = arena.stats();
    EXPECT_EQ(off.hits + off.misses, 0u);
    EXPECT_EQ(off.entries, 0u);

    arena.setEnabled(true);
    const auto shared = makeRunSource(app, 1000);
    EXPECT_EQ(shared->size(), 1000u);
    EXPECT_EQ(arena.stats().misses, 1u);
}

TEST_F(ReplayTest, ExtendKeepsThePositionAndContinuesTheStream)
{
    const AppProfile app = appByName("mcf06");
    ReplaySource src(MaterializedTrace::generate(app, 700));
    SyntheticTrace gen(app);
    for (uint64_t i = 0; i < 700; ++i)
        src.next();
    for (uint64_t i = 0; i < 700; ++i)
        gen.next();
    src.extend(TraceArena::global().acquireTrace(app, 1500));
    EXPECT_EQ(src.position(), 700u);
    EXPECT_EQ(src.size(), 1500u);
    for (uint64_t i = 700; i < 1500; ++i) {
        expectSameRecord(gen.next(), src.next(), i, "extended");
        if (HasFatalFailure())
            return;
    }
    EXPECT_THROW(src.next(), std::runtime_error);

    // An equally long trace of the same workload is accepted.
    src.extend(MaterializedTrace::generate(app, 1500));
    EXPECT_EQ(src.position(), 1500u);
}

TEST_F(ReplayTest, ExtendRejectsAShorterTraceOrAnotherWorkload)
{
    const AppProfile app = appByName("mcf06");
    ReplaySource src(MaterializedTrace::generate(app, 1000));
    src.next();
    EXPECT_THROW(src.extend(MaterializedTrace::generate(app, 999)),
                 std::invalid_argument);
    EXPECT_THROW(src.extend(nullptr), std::invalid_argument);
    EXPECT_THROW(
        src.extend(MaterializedTrace::generate(appByName("lbm06"), 2000)),
        std::invalid_argument);
    // Same name, other seed: another workload all the same.
    AppProfile reseeded = app;
    reseeded.seed += 911;
    EXPECT_THROW(src.extend(MaterializedTrace::generate(reseeded, 2000)),
                 std::invalid_argument);
    EXPECT_EQ(src.size(), 1000u);
    EXPECT_EQ(src.position(), 1u);
}

/** End-to-end: a CoreModel run over the arena must produce exactly
 *  the counters of the same run over a private materialization. */
TEST_F(ReplayTest, CoreModelRunIsIdenticalOnAndOffArena)
{
    const AppProfile app = appByName("mcf06");
    const uint64_t instr = 30000;
    auto runOnce = [&] {
        StridePrefetcher pf(64, 1);
        const auto trace = makeRunSource(app, instr);
        CoreModel core(CoreConfig{}, HierarchyConfig{}, *trace, &pf);
        core.run(instr);
        return std::tuple<uint64_t, uint64_t, uint64_t>(
            core.cycles(), core.hierarchy().llcDemandMisses(),
            core.hierarchy().prefetchStats().issued);
    };
    const auto generated = runOnce(); // arena miss: generates, replays
    const auto replayed = runOnce();  // arena hit: pure replay
    TraceArena::global().setEnabled(false);
    const auto priv = runOnce(); // private materialization

    EXPECT_EQ(generated, priv);
    EXPECT_EQ(replayed, priv);
    TraceArena::global().setEnabled(true);
}

/** Replay @p n uops of (@p params, @p seed) from the shared stream
 *  next to a live source; every field must match. */
void
expectReplayMatchesLive(const SmtAppParams &params, uint64_t seed,
                        uint64_t n)
{
    ThreadSource live(params, seed);
    ThreadSource replay(params, seed);
    replay.attachStream(acquireUopStream(params, seed));
    ASSERT_TRUE(replay.replaying());
    ASSERT_FALSE(live.replaying());

    for (uint64_t i = 0; i < n; ++i) {
        const Uop a = live.next();
        const Uop b = replay.next();
        ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
            << "uop " << i;
        ASSERT_EQ(a.execLatency, b.execLatency) << "uop " << i;
        ASSERT_EQ(a.drainLatency, b.drainLatency) << "uop " << i;
        ASSERT_EQ(a.mispredicted, b.mispredicted) << "uop " << i;
        ASSERT_EQ(a.depDistance, b.depDistance) << "uop " << i;
    }
}

/** SMT leg: a ThreadSource replaying a shared UopStream must emit
 *  exactly the uops of a live ThreadSource, across chunk borders. */
TEST_F(ReplayTest, UopStreamReplayMatchesLiveThreadSource)
{
    const SmtAppParams &params = smtAppCatalog().front();
    const uint64_t seed = 12345;
    expectReplayMatchesLive(params, seed, UopStream::kChunkUops + 2000);

    // Same (params, seed) acquires the same shared stream; and reset
    // rewinds the replay to uop 0.
    EXPECT_EQ(acquireUopStream(params, seed).get(),
              acquireUopStream(params, seed).get());
    ThreadSource replay(params, seed);
    replay.attachStream(acquireUopStream(params, seed));
    for (uint64_t i = 0; i < UopStream::kChunkUops + 2000; ++i)
        replay.next();
    replay.reset();
    ThreadSource fresh(params, seed);
    const Uop a = fresh.next();
    const Uop b = replay.next();
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
    EXPECT_EQ(a.execLatency, b.execLatency);
}

/** The largest latencies a Uop holds survive generation and replay
 *  unchanged: dramLatency = 65472 puts DRAM loads at 65472..65535. */
TEST_F(ReplayTest, UopStreamReplayKeepsLargestLatencies)
{
    SmtAppParams params = smtAppByName("lbm");
    params.l1MissRate = 0.5;
    params.dramRate = 0.9;
    params.l2Latency = 65535;
    params.dramLatency = 65472;
    const uint64_t seed = 77;
    const uint64_t n = UopStream::kChunkUops + 2000;
    expectReplayMatchesLive(params, seed, n);

    ThreadSource replay(params, seed);
    replay.attachStream(acquireUopStream(params, seed));
    uint64_t dram_loads = 0, slow_drains = 0;
    uint16_t max_exec = 0;
    for (uint64_t i = 0; i < n; ++i) {
        const Uop u = replay.next();
        if (u.kind == UopKind::Load) {
            ASSERT_TRUE(u.execLatency == 4 ||
                        u.execLatency == params.l2Latency ||
                        u.execLatency >= params.dramLatency)
                << "uop " << i << " execLatency " << u.execLatency;
            dram_loads += u.execLatency >= params.dramLatency;
            max_exec = std::max(max_exec, u.execLatency);
        } else if (u.kind == UopKind::Store) {
            ASSERT_TRUE(u.drainLatency == params.l2Latency ||
                        u.drainLatency == params.dramLatency)
                << "uop " << i << " drainLatency " << u.drainLatency;
            slow_drains += u.drainLatency == params.dramLatency;
        }
    }
    EXPECT_GT(dram_loads, 100u);
    EXPECT_GT(slow_drains, 100u);
    EXPECT_EQ(max_exec, params.dramLatency + 63);
}
