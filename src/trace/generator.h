#ifndef MAB_TRACE_GENERATOR_H
#define MAB_TRACE_GENERATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "trace/record.h"

namespace mab {

/** Memory access pattern regimes the generators can produce. */
enum class PatternKind
{
    /** Sequential walks over long arrays (streamer-friendly). */
    Streaming,
    /** Constant per-PC strides larger than one line (stride-friendly). */
    Strided,
    /** Dependent pointer chasing (no prefetcher helps). */
    PointerChase,
    /** Recurring footprints inside 2KB regions (Bingo-friendly). */
    SpatialRegion,
    /** Uniform random over the footprint (nothing helps). */
    Random,
};

/** Name of a pattern kind (for reports and tests). */
std::string toString(PatternKind kind);

/**
 * One phase of a synthetic application: a stationary mix of an access
 * pattern and instruction types. Phase boundaries model the
 * coarse-grained program phases whose detection motivates DUCB.
 */
struct PatternPhase
{
    PatternKind kind = PatternKind::Streaming;

    /** Fraction of instructions that access memory. */
    double memFraction = 0.3;

    /** Fraction of memory instructions that are stores. */
    double storeFraction = 0.2;

    /** Fraction of instructions that are branches. */
    double branchFraction = 0.15;

    /** Branch misprediction rate. */
    double mispredictRate = 0.01;

    /** Bytes touched by the phase (decides which level it fits in). */
    uint64_t footprintBytes = 64ull << 20;

    /** Stride in bytes for PatternKind::Strided. */
    int64_t strideBytes = 256;

    /** Concurrent streams / strided PCs. */
    int numStreams = 4;

    /**
     * Memory accesses landing in each line before the pattern moves
     * on (intra-line spatial locality). Sequential code touches a
     * 64B line many times (8B elements), pointer chases touch it
     * once or twice; this parameter sets the L1-filtered miss rate
     * the L2 prefetcher actually sees.
     */
    int accessesPerLine = 4;

    /**
     * PointerChase only: fraction of chain advances whose address
     * depends on the previous load. Real pointer-heavy code (mcf)
     * interleaves several independent traversals, so only part of
     * the chain serializes.
     */
    double chaseSerialFrac = 0.1;

    /** Dynamic instructions in this phase. */
    uint64_t lengthInstrs = 1'000'000;
};

/** A named synthetic application: an ordered list of phases. */
struct AppProfile
{
    std::string name;
    std::vector<PatternPhase> phases;

    /** Loop back to the first phase when the last one ends. */
    bool loopPhases = true;

    /** Base RNG seed; every run of the app is identical. */
    uint64_t seed = 1;
};

/**
 * Synthetic trace generator. Expands an AppProfile into a deterministic
 * dynamic instruction stream that exercises the configured access
 * pattern regimes (the stand-in for the DPC-3 / CRC-2 / Pythia trace
 * collections, see DESIGN.md). Cores replay its first n records
 * through MaterializedTrace::generate (trace/replay.h).
 */
class SyntheticTrace
{
  public:
    explicit SyntheticTrace(AppProfile profile);

    /** Produce the next dynamic instruction (the stream never ends). */
    TraceRecord next();

    /** Restart the stream from the beginning. */
    void reset();

    /** Index of the phase the generator is currently in. */
    size_t currentPhase() const { return phaseIdx_; }

  private:
    /** Per-stream pattern cursor state. */
    struct Stream
    {
        uint64_t pc = 0;
        uint64_t cursor = 0;
        uint64_t remaining = 0;
    };

    void enterPhase(size_t idx);
    uint64_t nextAddress(bool &depends_on_prev);

    AppProfile profile_;
    Rng rng_;
    size_t phaseIdx_ = 0;
    uint64_t instrInPhase_ = 0;
    uint64_t appBase_ = 0;

    std::vector<Stream> streams_;
    size_t rrStream_ = 0;
    uint64_t chaseCursor_ = 0;

    /** Intra-line repeat state (accessesPerLine). */
    uint64_t repeatLine_ = 0;
    int repeatLeft_ = 0;
    bool lastPickWasStream_ = false;
    size_t lastStream_ = 0;

    /** Footprint bitmap for SpatialRegion phases (32 lines / 2KB). */
    uint32_t regionFootprint_ = 0;
    uint64_t regionBase_ = 0;
    int regionPos_ = 0;
};

} // namespace mab

#endif // MAB_TRACE_GENERATOR_H
