#ifndef MAB_SMT_SMT_SIM_H
#define MAB_SMT_SMT_SIM_H

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "smt/bandit_pg.h"
#include "smt/fetch_policy.h"
#include "smt/hill_climbing.h"
#include "smt/pipeline.h"
#include "smt/thread_source.h"

namespace mab {

/** Common knobs of one SMT simulation run. */
struct SmtRunConfig
{
    /** Hill Climbing epoch length in cycles (64k in the paper;
     *  scaled down with the shorter runs, see DESIGN.md). */
    uint64_t hcEpochCycles = 4096;

    /** Hill Climbing delta in IQ entries (Table 6). */
    int hcDelta = 2;

    /** Hard cycle budget of the run. */
    uint64_t maxCycles = 1'000'000;

    /**
     * Optional per-thread instruction target: when nonzero, a
     * thread's IPC is recorded the moment it commits this many
     * instructions (the run still executes until maxCycles or until
     * both threads hit the target, whichever is first).
     */
    uint64_t instrPerThread = 0;

    /** Seed offset applied to the thread sources. */
    uint64_t seed = 1;
};

/** Result of one SMT run. */
struct SmtRunResult
{
    std::array<double, 2> ipc{};
    double ipcSum = 0.0;
    uint64_t cycles = 0;
    RenameStats rename;

    /** (cycle, arm) switches for Bandit runs (Figure 7). */
    std::vector<std::pair<uint64_t, int>> armHistory;
};

/**
 * Harness running one 2-thread mix through the SMT pipeline under a
 * given fetch PG regime. Three regimes cover the whole evaluation:
 *
 *  - runStatic(): a fixed PG policy; when the policy gates, the Hill
 *    Climbing algorithm drives the occupancy threshold (this is the
 *    Choi baseline when the policy is IC_1011, plain ICount when it
 *    is IC_0000, and the per-arm "best static" runs otherwise).
 *  - runBandit(): the Micro-Armed Bandit selecting among the 6 arms
 *    of Table 1 on top of Hill Climbing.
 */
class SmtSimulator
{
  public:
    /** @throws std::invalid_argument when config.hcEpochCycles is 0,
     *  @p pipe_config fails validateSmtConfig(), or config.hcDelta
     *  and pipe_config.iqSize fail HillClimbing::validate(). */
    SmtSimulator(std::string app0, std::string app1,
                 const SmtRunConfig &config = {},
                 const SmtConfig &pipe_config = {});

    /**
     * Run with a fixed fetch PG policy. When @p stats is non-null the
     * pipeline metrics are exported into it under "smt" before the
     * pipeline is torn down.
     */
    SmtRunResult runStatic(const PgPolicy &policy,
                           StatsRegistry *stats = nullptr);

    /**
     * Run with the Micro-Armed Bandit controlling the PG policy.
     * When @p stats is non-null, exports the pipeline metrics under
     * "smt" (including the PG-policy switch count) and the bandit
     * agent's telemetry under "bandit".
     */
    SmtRunResult runBandit(const SmtBanditConfig &config = {},
                           StatsRegistry *stats = nullptr);

  private:
    template <typename EpochHook>
    SmtRunResult runLoop(SmtPipeline &pipe, HillClimbing &hc,
                         EpochHook &&onEpoch);

    SmtRunConfig config_;
    SmtConfig pipeConfig_;
    ThreadSource src0_;
    ThreadSource src1_;

    /** "app0+app1", labels this mix's runs on the trace timeline. */
    std::string label_;
};

} // namespace mab

#endif // MAB_SMT_SMT_SIM_H
