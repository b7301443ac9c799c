#ifndef MAB_SMT_HILL_CLIMBING_H
#define MAB_SMT_HILL_CLIMBING_H

#include <array>
#include <cstdint>

namespace mab {

/**
 * The Choi & Yeung Hill Climbing algorithm for SMT resource
 * distribution (ISCA'06), 2-thread form.
 *
 * The occupancy threshold is expressed in IQ entries allotted to
 * thread 0 (thread 1 implicitly receives the complement); other
 * structures are thresholded at the same fractional share. Each
 * trial round runs three epochs — the incumbent allocation, +delta
 * and -delta — and commits the best-performing one, continually
 * re-centering as workload behaviour drifts.
 */
class HillClimbing
{
  public:
    struct Config
    {
        int iqSize = 97;
        /** Trial step in IQ entries (Table 6: 2). */
        int delta = 2;
    };

    /** @throws std::invalid_argument via validate(). */
    explicit HillClimbing(const Config &config);

    /**
     * Reject a config whose trial range [delta, iqSize - delta] is
     * empty: delta must be at least 1 and iqSize at least 2 * delta.
     * @throws std::invalid_argument
     */
    static void validate(const Config &config);

    /** Thread 0 IQ entries being trialed in the current epoch. */
    int currentEntries() const { return candidates_[trial_]; }

    /** Fractional share of thread @p t under the current trial. */
    double share(int t) const;

    /** Report the performance of the finished epoch and advance. */
    void endEpoch(double perf);

    /** Committed (incumbent) allocation. */
    int baseEntries() const { return base_; }

    /** Per-arm save/restore (Section 5.3). */
    struct State
    {
        int base = 0;
        bool valid = false;
    };

    State save() const;
    void restore(const State &state);

    void reset();

  private:
    void setupCandidates();
    int clamp(int entries) const;

    Config config_;
    int base_;
    int trial_ = 0;
    std::array<int, 3> candidates_{};
    std::array<double, 3> perfs_{};
};

} // namespace mab

#endif // MAB_SMT_HILL_CLIMBING_H
