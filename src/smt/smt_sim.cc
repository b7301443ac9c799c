#include "smt/smt_sim.h"

#include <algorithm>
#include <stdexcept>

#include "sim/tracing.h"

namespace mab {

SmtSimulator::SmtSimulator(std::string app0, std::string app1,
                           const SmtRunConfig &config,
                           const SmtConfig &pipe_config)
    : config_(config), pipeConfig_(pipe_config),
      src0_(smtAppByName(app0), config.seed * 0x9E37u + 1),
      src1_(smtAppByName(app1), config.seed * 0x9E37u + 2),
      label_(app0 + "+" + app1)
{
    if (config.hcEpochCycles == 0)
        throw std::invalid_argument("SmtRunConfig: hcEpochCycles = 0");
    validateSmtConfig(pipe_config);
    HillClimbing::validate({pipe_config.iqSize, config.hcDelta});
    // Per-lane seeds depend only on the run seed, not the mix, so one
    // materialized stream per (app, lane) serves every mix it appears
    // in (fig13 runs each app in ~21 mixes under 3 fetch regimes).
    if (TraceArena::global().enabled()) {
        src0_.attachStream(acquireUopStream(smtAppByName(app0),
                                            config.seed * 0x9E37u + 1));
        src1_.attachStream(acquireUopStream(smtAppByName(app1),
                                            config.seed * 0x9E37u + 2));
    }
}

template <typename EpochHook>
SmtRunResult
SmtSimulator::runLoop(SmtPipeline &pipe, HillClimbing &hc,
                      EpochHook &&onEpoch)
{
    SmtRunResult res;
    std::array<bool, 2> recorded{false, false};
    uint64_t epoch_start_instr = 0;

    tracing::Tracer &tracer = tracing::Tracer::global();
    tracer.beginRun(label_);
    const uint64_t granularity = tracer.sampleGranularity();
    uint64_t next_sample = granularity;
    std::array<uint64_t, 2> last_fetched{0, 0};
    std::array<uint64_t, 2> last_committed{0, 0};
    uint64_t last_sample_cycle = 0;

    pipe.setShares({hc.share(0), hc.share(1)});

    // Advance in chunks that end on every cycle the loop body acts
    // on: epoch and sample boundaries, the budget, and the earliest
    // cycle an unrecorded thread can reach its instruction target (it
    // commits at most commitWidth per cycle).
    const uint64_t width =
        static_cast<uint64_t>(pipeConfig_.commitWidth);
    uint64_t c = 0;
    while (c < config_.maxCycles) {
        uint64_t k = std::min(config_.maxCycles - c,
                              config_.hcEpochCycles -
                                  c % config_.hcEpochCycles);
        if (granularity != 0)
            k = std::min(k, next_sample - c);
        for (int t = 0; t < 2; ++t) {
            if (config_.instrPerThread != 0 && !recorded[t]) {
                const uint64_t left =
                    config_.instrPerThread - pipe.committed(t);
                k = std::min(k, (left + width - 1) / width);
            }
        }
        pipe.run(k);
        c += k;

        if (granularity != 0 && c >= next_sample) {
            const uint64_t d_c = c - last_sample_cycle;
            uint64_t d_fetch[2];
            for (int t = 0; t < 2; ++t)
                d_fetch[t] = pipe.fetched(t) - last_fetched[t];
            const uint64_t d_total = d_fetch[0] + d_fetch[1];
            for (int t = 0; t < 2; ++t) {
                if (d_total > 0) {
                    tracer.counterSample(
                        "fetchShare.t" + std::to_string(t), c,
                        static_cast<double>(d_fetch[t]) /
                            static_cast<double>(d_total));
                }
                tracer.counterSample(
                    "IPC.t" + std::to_string(t), c,
                    static_cast<double>(pipe.committed(t) -
                                        last_committed[t]) /
                        static_cast<double>(d_c));
                last_fetched[t] = pipe.fetched(t);
                last_committed[t] = pipe.committed(t);
            }
            last_sample_cycle = c;
            next_sample = (c / granularity + 1) * granularity;
        }

        if (config_.instrPerThread != 0) {
            bool all = true;
            for (int t = 0; t < 2; ++t) {
                if (!recorded[t] &&
                    pipe.committed(t) >= config_.instrPerThread) {
                    recorded[t] = true;
                    res.ipc[t] = pipe.ipc(t);
                }
                all = all && recorded[t];
            }
            if (all)
                break;
        }

        if (c % config_.hcEpochCycles == 0) {
            const uint64_t instr = pipe.committed(0) +
                pipe.committed(1);
            const double perf =
                static_cast<double>(instr - epoch_start_instr) /
                static_cast<double>(config_.hcEpochCycles);
            epoch_start_instr = instr;
            hc.endEpoch(perf);
            onEpoch(instr, c);
            pipe.setShares({hc.share(0), hc.share(1)});
        }
    }

    for (int t = 0; t < 2; ++t) {
        if (!recorded[t])
            res.ipc[t] = pipe.ipc(t);
    }
    res.ipcSum = res.ipc[0] + res.ipc[1];
    res.cycles = pipe.cycles();
    res.rename = pipe.renameStats();
    tracer.endRun(res.cycles);
    return res;
}

SmtRunResult
SmtSimulator::runStatic(const PgPolicy &policy, StatsRegistry *stats)
{
    src0_.reset();
    src1_.reset();
    SmtPipeline pipe(pipeConfig_, {&src0_, &src1_});
    pipe.setPolicy(policy);

    HillClimbing hc({pipeConfig_.iqSize, config_.hcDelta});
    SmtRunResult res = runLoop(pipe, hc, [](uint64_t, uint64_t) {});
    if (stats) {
        pipe.exportStats(*stats, "smt");
        stats->setCounter("smt.policySwitches", 0);
    }
    return res;
}

SmtRunResult
SmtSimulator::runBandit(const SmtBanditConfig &config,
                        StatsRegistry *stats)
{
    src0_.reset();
    src1_.reset();
    SmtPipeline pipe(pipeConfig_, {&src0_, &src1_});

    BanditPgSelector selector(config);
    pipe.setPolicy(selector.currentPolicy());

    uint64_t policy_switches = 0;
    HillClimbing hc({pipeConfig_.iqSize, config_.hcDelta});
    SmtRunResult res = runLoop(
        pipe, hc, [&](uint64_t instr, uint64_t cycles) {
            if (selector.onEpochEnd(instr, cycles, hc)) {
                pipe.setPolicy(selector.currentPolicy());
                ++policy_switches;
            }
        });

    for (const auto &[cycle, arm] : selector.agent().history())
        res.armHistory.emplace_back(cycle, arm);
    if (stats) {
        pipe.exportStats(*stats, "smt");
        stats->setCounter("smt.policySwitches", policy_switches);
        selector.agent().exportStats(*stats, "bandit");
    }
    return res;
}

} // namespace mab
