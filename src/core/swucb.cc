#include "core/swucb.h"

#include <stdexcept>
#include <string>

namespace mab {

SwUcb::SwUcb(const MabConfig &config, int window)
    : Ucb(config), window_(window), sum_(config.numArms, 0.0)
{
    // A window shorter than the arm count evicts pending samples
    // before their reward arrives: n_ would grow without bound while
    // sum_ keeps every reward.
    if (window_ < config.numArms)
        throw std::invalid_argument(
            "SwUcb: window " + std::to_string(window_) +
            " is below the arm count " +
            std::to_string(config.numArms));
}

void
SwUcb::evictOldest()
{
    const Sample old = samples_.front();
    samples_.pop_front();
    if (old.hasReward) {
        sum_[old.arm] -= old.reward;
        n_[old.arm] -= 1.0;
        nTotal_ -= 1.0;
        recomputeArm(old.arm);
    }
}

void
SwUcb::recomputeArm(ArmId arm)
{
    // Keep at least the last known estimate when the window holds no
    // samples of the arm; its exploration bonus (tiny n) will bring
    // it back quickly.
    if (n_[arm] > 0.5)
        r_[arm] = sum_[arm] / n_[arm];
}

void
SwUcb::updSels(ArmId arm)
{
    samples_.push_back({arm, 0.0, false});
    n_[arm] += 1.0;
    nTotal_ += 1.0;
    while (static_cast<int>(samples_.size()) > window_)
        evictOldest();
}

void
SwUcb::updRew(ArmId arm, double r_step)
{
    // Attach the reward to the youngest pending sample of this arm.
    // In the selectArm()/observeReward() lifecycle that sample is the
    // one updSels() just pushed — eviction only pops the front — so
    // the back() probe resolves every step without the scan; the
    // reverse walk stays as a fallback for out-of-order callers.
    if (!samples_.empty() && samples_.back().arm == arm &&
        !samples_.back().hasReward) {
        samples_.back().hasReward = true;
        samples_.back().reward = r_step;
    } else {
        for (auto it = samples_.rbegin(); it != samples_.rend(); ++it) {
            if (it->arm == arm && !it->hasReward) {
                it->hasReward = true;
                it->reward = r_step;
                break;
            }
        }
    }
    sum_[arm] += r_step;
    recomputeArm(arm);
}

} // namespace mab
