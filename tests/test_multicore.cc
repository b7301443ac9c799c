#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/multicore.h"
#include "prefetch/stride.h"
#include "trace/replay.h"
#include "trace/suites.h"

namespace mab {
namespace {

MultiCoreResult
runHomogeneous(const std::string &app_name, int cores,
               uint64_t instr_per_core)
{
    MultiCoreSystem sys(CoreConfig{}, HierarchyConfig{}, DramConfig{},
                        cores);
    std::vector<std::unique_ptr<Prefetcher>> pfs;
    for (int c = 0; c < cores; ++c) {
        AppProfile app = appByName(app_name);
        app.seed += static_cast<uint64_t>(c) * 101;
        pfs.push_back(std::make_unique<NullPrefetcher>());
        sys.attachCore(c, app, pfs.back().get());
    }
    return sys.run(instr_per_core);
}

TEST(MultiCore, EveryCoreReachesTarget)
{
    const MultiCoreResult r = runHomogeneous("gcc06", 4, 50'000);
    ASSERT_EQ(r.ipc.size(), 4u);
    for (double ipc : r.ipc)
        EXPECT_GT(ipc, 0.0);
    EXPECT_NEAR(r.sumIpc, r.ipc[0] + r.ipc[1] + r.ipc[2] + r.ipc[3],
                1e-9);
}

TEST(MultiCore, BandwidthContentionDegradesPerCoreIpc)
{
    // A bandwidth-hungry app: 4 cores sharing one channel must each
    // run slower than a core alone.
    const MultiCoreResult solo = runHomogeneous("lbm06", 1, 300'000);
    const MultiCoreResult quad = runHomogeneous("lbm06", 4, 300'000);
    EXPECT_LT(quad.ipc[0], 0.9 * solo.ipc[0]);
}

TEST(MultiCore, ComputeBoundAppsScaleCleanly)
{
    const MultiCoreResult solo = runHomogeneous("exchange17", 1,
                                                300'000);
    const MultiCoreResult quad = runHomogeneous("exchange17", 4,
                                                300'000);
    EXPECT_GT(quad.ipc[0], 0.88 * solo.ipc[0]);
}

TEST(MultiCore, Deterministic)
{
    const MultiCoreResult a = runHomogeneous("milc06", 2, 50'000);
    const MultiCoreResult b = runHomogeneous("milc06", 2, 50'000);
    EXPECT_DOUBLE_EQ(a.sumIpc, b.sumIpc);
}

TEST(MultiCore, FewerThanOneCoreIsRejected)
{
    EXPECT_THROW(MultiCoreSystem(CoreConfig{}, HierarchyConfig{},
                                 DramConfig{}, 0),
                 std::invalid_argument);
    EXPECT_THROW(MultiCoreSystem(CoreConfig{}, HierarchyConfig{},
                                 DramConfig{}, -3),
                 std::invalid_argument);
}

TEST(MultiCore, AttachOutsideTheCoreRangeIsRejected)
{
    MultiCoreSystem sys(CoreConfig{}, HierarchyConfig{}, DramConfig{},
                        2);
    NullPrefetcher pf;
    const AppProfile app = appByName("gcc06");
    EXPECT_THROW(sys.attachCore(-1, app, &pf), std::invalid_argument);
    EXPECT_THROW(sys.attachCore(2, app, &pf), std::invalid_argument);
    EXPECT_NO_THROW(sys.attachCore(1, app, &pf));
}

TEST(MultiCore, RunWithAnUnattachedCoreIsRejected)
{
    MultiCoreSystem sys(CoreConfig{}, HierarchyConfig{}, DramConfig{},
                        2);
    NullPrefetcher pf;
    sys.attachCore(0, appByName("gcc06"), &pf);
    EXPECT_THROW(sys.run(1000), std::logic_error);
}

/**
 * A streaming core next to a pointer-chasing one runs far past its
 * target while it waits (lbm06 reads about 7 times its target of
 * records here), so its trace must grow at least twice mid-run. The
 * result must not depend on where the traces come from: the shared
 * arena or private materializations.
 */
TEST(MultiCore, GrownTracesMatchWithTheArenaOnAndOff)
{
    TraceArena &arena = TraceArena::global();
    const bool was_enabled = arena.enabled();
    const auto runMix = [] {
        MultiCoreSystem sys(CoreConfig{}, HierarchyConfig{},
                            DramConfig{}, 2);
        StridePrefetcher pf0(64, 1), pf1(64, 1);
        sys.attachCore(0, appByName("lbm06"), &pf0);
        sys.attachCore(1, appByName("mcf06"), &pf1);
        sys.run(20'000);
        EXPECT_GT(sys.core(0).instructions(), 4 * 20'000u);
        StatsRegistry reg;
        sys.exportStats(reg, "system");
        return reg.toJsonString();
    };

    arena.clear();
    arena.setEnabled(true);
    const std::string on = runMix();
    const TraceArena::Stats shared = arena.stats();
    arena.setEnabled(false);
    const std::string off = runMix();
    const TraceArena::Stats priv = arena.stats();
    arena.clear();
    arena.setEnabled(was_enabled);

    // One arena entry per trace: the two starting ones, half again
    // past the 20k target, and lbm06's growths to 60k, 120k and 240k.
    EXPECT_EQ(shared.misses, 5u);
    EXPECT_EQ(shared.bytes,
              (2 * 30'000 + 60'000 + 120'000 + 240'000) *
                  sizeof(PackedRecord));
    // Arena off: private materializations, no arena traffic.
    EXPECT_EQ(priv.misses, shared.misses);
    EXPECT_EQ(priv.hits, shared.hits);
    EXPECT_EQ(on, off);
}

} // namespace
} // namespace mab
