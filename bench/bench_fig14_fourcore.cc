/**
 * Figure 14: four-core performance, homogeneous mixes (the same
 * application on every core, sharing the LLC and one DRAM channel).
 * Metric: sum of per-core IPCs, normalized to the no-prefetching
 * system, geomean across mixes.
 *
 * The Bandit agents run with rr_restart_prob = 0.001 (Table 6) to
 * escape arms mis-judged under inter-core interference. Paper: Bandit
 * vs Stride +6%, MLOP +2.4%, Bingo +4%, and ~1% behind Pythia.
 */
#include <map>
#include <memory>

#include "common.h"
#include "cpu/multicore.h"

using namespace mab;
using namespace mab::bench;

namespace {

constexpr int kCores = 4;

double
runHomogeneous(const AppProfile &app, const std::string &pf_name,
               uint64_t instr_per_core)
{
    // 4-core system with a dual-channel memory system (the per-core
    // bandwidth the multi-programmed ChampSim studies provision).
    DramConfig dram;
    dram.mtps = 4800;
    MultiCoreSystem sys(CoreConfig{}, HierarchyConfig{}, dram,
                        kCores);
    std::vector<std::unique_ptr<Prefetcher>> pfs;
    for (int c = 0; c < kCores; ++c) {
        AppProfile per_core = app;
        // Different trace regions of the same app per core.
        per_core.seed = app.seed + static_cast<uint64_t>(c) * 911;

        if (pf_name == "Bandit") {
            BanditPrefetchConfig cfg;
            cfg.mab.seed = per_core.seed;
            cfg.hw.stepUnits = 125; // scaled (DESIGN.md 4b)
            cfg.mab.c = 0.2;
            cfg.mab.gamma = 0.99;
            // Table 6 uses 0.001 per step over ~10^5 steps; scaled to
            // the ~10^2-step runs.
            cfg.mab.rrRestartProb = 0.005;
            pfs.push_back(
                std::make_unique<BanditPrefetchController>(cfg));
        } else {
            pfs.push_back(makePrefetcher(pf_name, per_core.seed));
        }
        sys.attachCore(c, per_core, pfs.back().get());
    }
    return sys.run(instr_per_core).sumIpc;
}

} // namespace

int
main(int argc, char **argv)
{
    TracingSession observability(argc, argv);
    const int jobs = benchJobs(argc, argv);
    const uint64_t instr = scaled(600'000);
    const auto pf_names = comparisonPrefetchers();
    const auto workloads = allWorkloads();

    const size_t per_app = 1 + pf_names.size();
    const std::vector<double> sums = sweepGrid<double>(
        jobs, workloads.size(), per_app, [&](size_t w, size_t c) {
            return runHomogeneous(workloads[w].app,
                                  c == 0 ? "None" : pf_names[c - 1],
                                  instr);
        });

    std::map<std::string, std::vector<double>> speedups;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const double base = sums[w * per_app];
        for (size_t c = 0; c < pf_names.size(); ++c)
            speedups[pf_names[c]].push_back(
                sums[w * per_app + 1 + c] / base);
    }

    std::printf("Figure 14: 4-core homogeneous mixes, geomean IPC-sum "
                "normalized to no prefetching\n");
    rule(40);
    std::map<std::string, double> overall;
    for (const auto &pf : pf_names) {
        overall[pf] = gmean(speedups[pf]);
        std::printf("%-10s %8s\n", pf.c_str(),
                    fmt(overall[pf], 3).c_str());
    }
    rule(40);
    std::printf("Paper: Bandit vs Stride +6%%, Bingo +4.0%%, "
                "MLOP +2.4%%, Pythia -1.0%%\n");
    for (const auto &pf : {"Stride", "Bingo", "MLOP", "Pythia"}) {
        std::printf("Measured: Bandit vs %-7s %+5.1f%%\n", pf,
                    100.0 * (overall["Bandit"] / overall[pf] - 1.0));
    }
    return 0;
}
