#include <gtest/gtest.h>

#include "cpu/core_model.h"
#include "prefetch/stream.h"
#include "trace/suites.h"

namespace mab {
namespace {

AppProfile
pureApp(PatternKind kind, double mem = 0.3, uint64_t footprint = 64
        << 20)
{
    AppProfile app;
    app.name = "t";
    app.seed = 9;
    PatternPhase ph;
    ph.kind = kind;
    ph.memFraction = mem;
    ph.branchFraction = 0.1;
    ph.footprintBytes = footprint;
    ph.lengthInstrs = 10'000'000;
    app.phases = {ph};
    return app;
}

double
runIpc(const AppProfile &app, Prefetcher *pf, uint64_t n = 300'000,
       CoreConfig cfg = {})
{
    ReplaySource trace(MaterializedTrace::generate(app, n));
    NullPrefetcher null_pf;
    CoreModel core(cfg, HierarchyConfig{}, trace,
                   pf ? pf : &null_pf);
    core.run(n);
    return core.ipc();
}

TEST(CoreModel, RunsExactInstructionCount)
{
    ReplaySource trace(
        MaterializedTrace::generate(pureApp(PatternKind::Random), 20'000));
    NullPrefetcher pf;
    CoreModel core(CoreConfig{}, HierarchyConfig{}, trace, &pf);
    core.run(12345);
    EXPECT_EQ(core.instructions(), 12345u);
    EXPECT_EQ(trace.position(), 12345u);
    EXPECT_GT(core.cycles(), 0u);
}

TEST(CoreModel, StepOneMatchesRun)
{
    const AppProfile app = appByName("mcf06");
    const uint64_t n = 30'000;
    const auto mat = MaterializedTrace::generate(app, n);
    ReplaySource a(mat), b(mat);
    StreamPrefetcher pa(64), pb(64);
    CoreModel ran(CoreConfig{}, HierarchyConfig{}, a, &pa);
    CoreModel stepped(CoreConfig{}, HierarchyConfig{}, b, &pb);
    ran.run(n);
    for (uint64_t i = 0; i < n; ++i)
        stepped.stepOne();
    EXPECT_EQ(ran.cycles(), stepped.cycles());
    EXPECT_EQ(ran.hierarchy().l2DemandAccesses(),
              stepped.hierarchy().l2DemandAccesses());
    EXPECT_EQ(ran.hierarchy().prefetchStats().issued,
              stepped.hierarchy().prefetchStats().issued);
}

TEST(CoreModel, IpcBoundedByCommitWidth)
{
    AppProfile app = pureApp(PatternKind::Random, 0.0);
    app.phases[0].branchFraction = 0.0;
    const double ipc = runIpc(app, nullptr);
    EXPECT_LE(ipc, CoreConfig{}.commitWidth + 0.01);
    EXPECT_GT(ipc, 3.0); // pure ALU code commits near full width
}

TEST(CoreModel, CacheResidentCodeIsFast)
{
    // 16KB working set lives in the 32KB L1.
    const double hot =
        runIpc(pureApp(PatternKind::Random, 0.3, 16 << 10), nullptr);
    const double cold =
        runIpc(pureApp(PatternKind::Random, 0.3, 64 << 20), nullptr);
    EXPECT_GT(hot, 2.0 * cold);
}

TEST(CoreModel, MispredictionsCostCycles)
{
    AppProfile clean = pureApp(PatternKind::Random, 0.0);
    clean.phases[0].branchFraction = 0.2;
    clean.phases[0].mispredictRate = 0.0;
    AppProfile noisy = clean;
    noisy.phases[0].mispredictRate = 0.1;
    EXPECT_GT(runIpc(clean, nullptr), 1.2 * runIpc(noisy, nullptr));
}

TEST(CoreModel, PointerChaseSerializesMisses)
{
    AppProfile parallel = pureApp(PatternKind::Random, 0.3);
    parallel.phases[0].accessesPerLine = 1;
    AppProfile serial = pureApp(PatternKind::PointerChase, 0.3);
    serial.phases[0].accessesPerLine = 1;
    serial.phases[0].chaseSerialFrac = 1.0;
    // Same miss rate, but the chase cannot overlap its misses.
    EXPECT_GT(runIpc(parallel, nullptr),
              2.0 * runIpc(serial, nullptr));
}

TEST(CoreModel, LargerRobExtractsMoreMlp)
{
    AppProfile app = pureApp(PatternKind::Random, 0.3);
    app.phases[0].accessesPerLine = 1;
    CoreConfig small;
    small.robSize = 32;
    CoreConfig big;
    big.robSize = 512;
    EXPECT_GT(runIpc(app, nullptr, 300'000, big),
              1.2 * runIpc(app, nullptr, 300'000, small));
}

TEST(CoreModel, PrefetchingSpeedsUpStreams)
{
    AppProfile app = pureApp(PatternKind::Streaming, 0.35);
    app.phases[0].accessesPerLine = 12;
    StreamPrefetcher pf(64);
    pf.setDegree(6);
    const double with_pf = runIpc(app, &pf);
    const double without = runIpc(app, nullptr);
    EXPECT_GT(with_pf, 1.3 * without);
}

TEST(CoreModel, PrefetcherSeesOnlyL1Misses)
{
    // An L1-resident workload must never train the L2 prefetcher.
    AppProfile app = pureApp(PatternKind::Streaming, 0.3, 8 << 10);
    ReplaySource trace(MaterializedTrace::generate(app, 200'000));
    StreamPrefetcher pf(64);
    pf.setDegree(4);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, trace, &pf);
    core.run(200'000);
    // After warmup the L2 access rate collapses.
    EXPECT_LT(core.hierarchy().l2DemandAccesses(), 10'000u);
}

TEST(CoreModel, DeterministicAcrossIdenticalRuns)
{
    const AppProfile app = appByName("gcc06");
    EXPECT_DOUBLE_EQ(runIpc(app, nullptr), runIpc(app, nullptr));
}

TEST(CoreModel, BandwidthLimitCapsStreamIpc)
{
    AppProfile app = pureApp(PatternKind::Streaming, 0.4);
    const auto mat = MaterializedTrace::generate(app, 200'000);
    ReplaySource t1(mat), t2(mat);
    NullPrefetcher pf1, pf2;
    DramConfig slow;
    slow.mtps = 150;
    CoreModel fast(CoreConfig{}, HierarchyConfig{}, t1, &pf1, nullptr,
                   DramConfig{});
    CoreModel constrained(CoreConfig{}, HierarchyConfig{}, t2, &pf2,
                          nullptr, slow);
    fast.run(200'000);
    constrained.run(200'000);
    EXPECT_GT(fast.ipc(), 2.0 * constrained.ipc());
}

} // namespace
} // namespace mab
