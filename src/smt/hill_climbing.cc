#include "smt/hill_climbing.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mab {

HillClimbing::HillClimbing(const Config &config)
    : config_((validate(config), config)), base_(config.iqSize / 2)
{
    setupCandidates();
}

void
HillClimbing::validate(const Config &config)
{
    if (config.delta < 1 || config.iqSize < 2 * config.delta) {
        throw std::invalid_argument(
            "HillClimbing: delta = " + std::to_string(config.delta) +
            " with iqSize = " + std::to_string(config.iqSize) +
            " needs delta >= 1 and iqSize >= 2 * delta");
    }
}

int
HillClimbing::clamp(int entries) const
{
    return std::clamp(entries, config_.delta,
                      config_.iqSize - config_.delta);
}

void
HillClimbing::setupCandidates()
{
    candidates_ = {base_, clamp(base_ + config_.delta),
                   clamp(base_ - config_.delta)};
    perfs_ = {0.0, 0.0, 0.0};
    trial_ = 0;
}

double
HillClimbing::share(int t) const
{
    const double s0 = static_cast<double>(currentEntries()) /
        config_.iqSize;
    return t == 0 ? s0 : 1.0 - s0;
}

void
HillClimbing::endEpoch(double perf)
{
    perfs_[trial_] = perf;
    ++trial_;
    if (trial_ < 3)
        return;
    int best = 0;
    for (int i = 1; i < 3; ++i) {
        if (perfs_[i] > perfs_[best])
            best = i;
    }
    base_ = candidates_[best];
    setupCandidates();
}

HillClimbing::State
HillClimbing::save() const
{
    return {base_, true};
}

void
HillClimbing::restore(const State &state)
{
    if (state.valid)
        base_ = clamp(state.base);
    setupCandidates();
}

void
HillClimbing::reset()
{
    base_ = config_.iqSize / 2;
    setupCandidates();
}

} // namespace mab
