#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cpu/core_model.h"
#include "prefetch/stride.h"
#include "sim/rng.h"
#include "trace/suites.h"

namespace mab {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next64() == b.next64())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestarts)
{
    Rng a(7);
    const uint64_t first = a.next64();
    a.next64();
    a.reseed(7);
    EXPECT_EQ(a.next64(), first);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.5, 7.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 7.5);
    }
}

TEST(Rng, UniformMeanRoughlyHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(5);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[rng.below(8)];
    for (int v : seen)
        EXPECT_GT(v, 0);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRate)
{
    Rng rng(2);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricCapRespected)
{
    Rng rng(4);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(rng.geometric(0.1, 5), 5u);
}

TEST(Rng, GeometricCertainSuccessIsZero)
{
    Rng rng(4);
    EXPECT_EQ(rng.geometric(1.0, 100), 0u);
}

TEST(Rng, GeometricMean)
{
    Rng rng(6);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(0.25, 1000));
    // Mean of failures-before-success is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

// ---- Seed-threading contract (golden snapshots rely on this) ----

TEST(SeedThreading, SameSeedSameTraceRecords)
{
    AppProfile app = appByName("mcf06");
    app.seed = 1234;
    SyntheticTrace a(app);
    SyntheticTrace b(app);
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        EXPECT_EQ(ra.pc, rb.pc);
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.isLoad, rb.isLoad);
    }
}

TEST(SeedThreading, DifferentSeedsDivergeSameWorkload)
{
    AppProfile app = appByName("mcf06");
    app.seed = 1;
    SyntheticTrace a(app);
    app.seed = 2;
    SyntheticTrace b(app);
    int diff = 0;
    for (int i = 0; i < 5000; ++i)
        diff += a.next().addr != b.next().addr;
    EXPECT_GT(diff, 100); // pointer-chase addresses must diverge
}

TEST(SeedThreading, SameSeedSameSimulationResult)
{
    const auto run = [](uint64_t seed) {
        AppProfile app = appByName("lbm06");
        app.seed = seed;
        ReplaySource trace(MaterializedTrace::generate(app, 50'000));
        StridePrefetcher pf(64, 1);
        CoreModel core(CoreConfig{}, HierarchyConfig{}, trace, &pf);
        core.run(50'000);
        return std::make_pair(core.cycles(), core.ipc());
    };
    const auto [cycles1, ipc1] = run(99);
    const auto [cycles2, ipc2] = run(99);
    EXPECT_EQ(cycles1, cycles2);
    EXPECT_DOUBLE_EQ(ipc1, ipc2);

    const auto [cycles3, ipc3] = run(100);
    // Not a hard guarantee for every seed pair, but these two differ.
    EXPECT_NE(cycles1, cycles3);
}

} // namespace
} // namespace mab
