#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/generator.h"
#include "trace/suites.h"

namespace mab {
namespace {

AppProfile
oneApp(PatternKind kind, uint64_t footprint = 1 << 20)
{
    AppProfile app;
    app.name = "t";
    app.seed = 5;
    PatternPhase ph;
    ph.kind = kind;
    ph.footprintBytes = footprint;
    ph.lengthInstrs = 100'000;
    app.phases = {ph};
    return app;
}

TEST(Trace, Deterministic)
{
    SyntheticTrace a(oneApp(PatternKind::Streaming));
    SyntheticTrace b(oneApp(PatternKind::Streaming));
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(ra.isLoad, rb.isLoad);
    }
}

TEST(Trace, ResetReplaysFromStart)
{
    SyntheticTrace t(oneApp(PatternKind::Random));
    std::vector<uint64_t> first;
    for (int i = 0; i < 1000; ++i)
        first.push_back(t.next().addr);
    t.reset();
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(t.next().addr, first[i]);
}

TEST(Trace, InstructionMixMatchesFractions)
{
    AppProfile app = oneApp(PatternKind::Random);
    app.phases[0].memFraction = 0.4;
    app.phases[0].branchFraction = 0.2;
    SyntheticTrace t(app);
    int mem = 0, branch = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i) {
        const TraceRecord r = t.next();
        mem += r.isMemory();
        branch += r.isBranch;
    }
    EXPECT_NEAR(static_cast<double>(mem) / n, 0.4, 0.02);
    EXPECT_NEAR(static_cast<double>(branch) / n, 0.2, 0.02);
}

TEST(Trace, StoreFractionRespected)
{
    AppProfile app = oneApp(PatternKind::Streaming);
    app.phases[0].memFraction = 0.5;
    app.phases[0].storeFraction = 0.5;
    SyntheticTrace t(app);
    int loads = 0, stores = 0;
    for (int i = 0; i < 100'000; ++i) {
        const TraceRecord r = t.next();
        loads += r.isLoad;
        stores += r.isStore;
    }
    EXPECT_NEAR(static_cast<double>(stores) / (loads + stores), 0.5,
                0.03);
}

TEST(Trace, AddressesStayInsideFootprint)
{
    for (PatternKind kind :
         {PatternKind::Streaming, PatternKind::Strided,
          PatternKind::PointerChase, PatternKind::SpatialRegion,
          PatternKind::Random}) {
        AppProfile app = oneApp(kind, 1 << 20);
        SyntheticTrace t(app);
        uint64_t base = ~0ull, top = 0;
        for (int i = 0; i < 50'000; ++i) {
            const TraceRecord r = t.next();
            if (!r.isMemory())
                continue;
            base = std::min(base, r.addr);
            top = std::max(top, r.addr);
        }
        EXPECT_LE(top - base, (1u << 20) + kLineBytes)
            << toString(kind);
    }
}

TEST(Trace, StreamingProducesSequentialLineRuns)
{
    AppProfile app = oneApp(PatternKind::Streaming);
    app.phases[0].numStreams = 1;
    app.phases[0].accessesPerLine = 1;
    app.phases[0].memFraction = 1.0;
    app.phases[0].branchFraction = 0.0;
    SyntheticTrace t(app);
    int sequential = 0, total = 0;
    uint64_t prev = lineAddr(t.next().addr);
    for (int i = 0; i < 5000; ++i) {
        const uint64_t line = lineAddr(t.next().addr);
        sequential += line == prev + kLineBytes;
        ++total;
        prev = line;
    }
    EXPECT_GT(sequential, total * 9 / 10);
}

TEST(Trace, StridedKeepsConfiguredStride)
{
    AppProfile app = oneApp(PatternKind::Strided);
    app.phases[0].numStreams = 1;
    app.phases[0].accessesPerLine = 1;
    app.phases[0].memFraction = 1.0;
    app.phases[0].branchFraction = 0.0;
    app.phases[0].strideBytes = 512;
    SyntheticTrace t(app);
    int strided = 0, total = 0;
    int64_t prev = static_cast<int64_t>(t.next().addr);
    for (int i = 0; i < 5000; ++i) {
        const int64_t addr = static_cast<int64_t>(t.next().addr);
        strided += (addr - prev) == 512;
        ++total;
        prev = addr;
    }
    EXPECT_GT(strided, total * 9 / 10);
}

TEST(Trace, PointerChaseSetsDependencyFlagAtConfiguredRate)
{
    AppProfile app = oneApp(PatternKind::PointerChase);
    app.phases[0].chaseSerialFrac = 0.25;
    app.phases[0].accessesPerLine = 1;
    app.phases[0].memFraction = 1.0;
    app.phases[0].branchFraction = 0.0;
    SyntheticTrace t(app);
    int deps = 0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i)
        deps += t.next().dependsOnPrevLoad;
    EXPECT_NEAR(static_cast<double>(deps) / n, 0.25, 0.02);
}

TEST(Trace, SpatialRegionRevisitsSameFootprint)
{
    AppProfile app = oneApp(PatternKind::SpatialRegion, 1 << 16);
    app.phases[0].accessesPerLine = 1;
    app.phases[0].memFraction = 1.0;
    app.phases[0].branchFraction = 0.0;
    SyntheticTrace t(app);
    // Collect per-region offset sets; they must all be identical.
    std::map<uint64_t, std::set<int>> regions;
    for (int i = 0; i < 20'000; ++i) {
        const TraceRecord r = t.next();
        regions[r.addr / 2048].insert(
            static_cast<int>((r.addr % 2048) / kLineBytes));
    }
    ASSERT_GT(regions.size(), 3u);
    const auto &ref = regions.begin()->second;
    int matches = 0, total = 0;
    for (const auto &[base, fp] : regions) {
        ++total;
        matches += fp == ref;
    }
    EXPECT_GT(matches, total * 2 / 3);
}

TEST(Trace, AccessesPerLineControlsL1Locality)
{
    AppProfile app = oneApp(PatternKind::Random);
    app.phases[0].accessesPerLine = 4;
    app.phases[0].memFraction = 1.0;
    app.phases[0].branchFraction = 0.0;
    SyntheticTrace t(app);
    int same_line = 0, total = 0;
    uint64_t prev = lineAddr(t.next().addr);
    for (int i = 0; i < 20'000; ++i) {
        const uint64_t line = lineAddr(t.next().addr);
        same_line += line == prev;
        ++total;
        prev = line;
    }
    // 3 of every 4 accesses stay in the line.
    EXPECT_NEAR(static_cast<double>(same_line) / total, 0.75, 0.03);
}

TEST(Trace, PhasesAdvanceAndLoop)
{
    AppProfile app;
    app.name = "p";
    app.seed = 3;
    PatternPhase a;
    a.kind = PatternKind::Streaming;
    a.lengthInstrs = 1000;
    PatternPhase b;
    b.kind = PatternKind::Random;
    b.lengthInstrs = 1000;
    app.phases = {a, b};
    app.loopPhases = true;
    SyntheticTrace t(app);
    EXPECT_EQ(t.currentPhase(), 0u);
    for (int i = 0; i < 1000; ++i)
        t.next();
    EXPECT_EQ(t.currentPhase(), 1u);
    for (int i = 0; i < 1000; ++i)
        t.next();
    EXPECT_EQ(t.currentPhase(), 0u);
}

TEST(Trace, NonLoopingStaysInLastPhase)
{
    AppProfile app = oneApp(PatternKind::Streaming);
    app.phases[0].lengthInstrs = 500;
    app.loopPhases = false;
    SyntheticTrace t(app);
    for (int i = 0; i < 2000; ++i)
        t.next();
    EXPECT_EQ(t.currentPhase(), 0u);
}

TEST(Trace, DifferentSeedsDiverge)
{
    AppProfile a = oneApp(PatternKind::Random);
    AppProfile b = oneApp(PatternKind::Random);
    b.seed = 6;
    SyntheticTrace ta(a), tb(b);
    std::vector<uint64_t> ma, mb;
    while (ma.size() < 1000) {
        const TraceRecord r = ta.next();
        if (r.isMemory())
            ma.push_back(r.addr);
    }
    while (mb.size() < 1000) {
        const TraceRecord r = tb.next();
        if (r.isMemory())
            mb.push_back(r.addr);
    }
    int same = 0;
    for (size_t i = 0; i < 1000; ++i)
        same += ma[i] == mb[i];
    EXPECT_LT(same, 100);
}

TEST(Trace, DifferentAppsDoNotAliasInAddressSpace)
{
    SyntheticTrace a(appByName("lbm06"));
    SyntheticTrace b(appByName("mcf06"));
    uint64_t amin = ~0ull, amax = 0, bmin = ~0ull, bmax = 0;
    for (int i = 0; i < 20'000; ++i) {
        const TraceRecord ra = a.next(), rb = b.next();
        if (ra.isMemory()) {
            amin = std::min(amin, ra.addr);
            amax = std::max(amax, ra.addr);
        }
        if (rb.isMemory()) {
            bmin = std::min(bmin, rb.addr);
            bmax = std::max(bmax, rb.addr);
        }
    }
    EXPECT_TRUE(amax < bmin || bmax < amin);
}

TEST(Suites, FiveSuitesWithWorkloads)
{
    const auto suites = allSuites();
    ASSERT_EQ(suites.size(), 5u);
    for (const auto &suite : suites) {
        const auto w = suiteWorkloads(suite);
        EXPECT_GE(w.size(), 4u) << suite;
        for (const auto &spec : w)
            EXPECT_EQ(spec.suite, suite);
    }
}

TEST(Suites, UnknownSuiteThrows)
{
    EXPECT_THROW(suiteWorkloads("NOPE"), std::out_of_range);
}

TEST(Suites, TuneSetHas46SpecTraces)
{
    const auto tune = tuneSetPrefetch();
    EXPECT_EQ(tune.size(), 46u);
    // Variants of the same app must differ in seed only.
    EXPECT_EQ(tune[0].name.substr(0, tune[0].name.size() - 2),
              tune[1].name.substr(0, tune[1].name.size() - 2));
    EXPECT_NE(tune[0].seed, tune[1].seed);
}

TEST(Suites, AllWorkloadNamesUnique)
{
    std::set<std::string> names;
    for (const auto &spec : allWorkloads())
        EXPECT_TRUE(names.insert(spec.app.name).second)
            << spec.app.name;
}

TEST(Suites, AppByNameRoundTrips)
{
    const AppProfile app = appByName("mcf06");
    EXPECT_EQ(app.name, "mcf06");
    EXPECT_THROW(appByName("not_an_app"), std::out_of_range);
}

TEST(Suites, Mcf06HasPhaseChange)
{
    const AppProfile app = appByName("mcf06");
    ASSERT_GE(app.phases.size(), 2u);
    EXPECT_EQ(app.phases[0].kind, PatternKind::PointerChase);
    EXPECT_EQ(app.phases[1].kind, PatternKind::Strided);
}

TEST(PatternKindNames, AllDistinct)
{
    std::set<std::string> names;
    for (PatternKind kind :
         {PatternKind::Streaming, PatternKind::Strided,
          PatternKind::PointerChase, PatternKind::SpatialRegion,
          PatternKind::Random}) {
        EXPECT_TRUE(names.insert(toString(kind)).second);
    }
}

} // namespace
} // namespace mab
