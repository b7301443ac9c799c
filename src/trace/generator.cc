#include "trace/generator.h"

#include <algorithm>
#include <cassert>

namespace mab {

namespace {

/** Stateless 64-bit mix used for pointer-chase successor addresses. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
}

} // namespace

std::string
toString(PatternKind kind)
{
    switch (kind) {
      case PatternKind::Streaming: return "streaming";
      case PatternKind::Strided: return "strided";
      case PatternKind::PointerChase: return "pointer-chase";
      case PatternKind::SpatialRegion: return "spatial-region";
      case PatternKind::Random: return "random";
    }
    return "?";
}

SyntheticTrace::SyntheticTrace(AppProfile profile)
    : profile_(std::move(profile)), rng_(profile_.seed)
{
    assert(!profile_.phases.empty() && "app needs at least one phase");
    // Give every app a distinct, stable data segment so that traces of
    // different apps never alias in a shared cache.
    appBase_ = (mix64(profile_.seed ^ 0xA5A5A5A5ull) & 0x3FFFull) << 32;
    enterPhase(0);
}

void
SyntheticTrace::reset()
{
    rng_.reseed(profile_.seed);
    enterPhase(0);
}

void
SyntheticTrace::enterPhase(size_t idx)
{
    phaseIdx_ = idx;
    instrInPhase_ = 0;
    const PatternPhase &ph = profile_.phases[idx];

    const uint64_t pc_base = 0x400000ull + (idx << 16);
    const int n = std::max(ph.numStreams, 1);
    streams_.assign(n, Stream{});
    for (int i = 0; i < n; ++i) {
        streams_[i].pc = pc_base + static_cast<uint64_t>(i) * 24;
        streams_[i].cursor = rng_.below(ph.footprintBytes / kLineBytes) *
            kLineBytes;
        streams_[i].remaining = 0;
    }
    rrStream_ = 0;
    chaseCursor_ = rng_.below(ph.footprintBytes / kLineBytes) * kLineBytes;

    // Stable per-phase footprint with 12-20 of 32 lines present.
    regionFootprint_ = 0;
    const int bits = 12 + static_cast<int>(rng_.below(9));
    while (__builtin_popcount(regionFootprint_) < bits)
        regionFootprint_ |= 1u << rng_.below(32);
    regionBase_ = 0;
    regionPos_ = 32; // force a new region on first access
    repeatLine_ = 0;
    repeatLeft_ = 0;
    lastStream_ = 0;
}

uint64_t
SyntheticTrace::nextAddress(bool &depends_on_prev)
{
    const PatternPhase &ph = profile_.phases[phaseIdx_];
    depends_on_prev = false;

    // Intra-line spatial locality: revisit the current line for
    // accessesPerLine accesses before the pattern advances. Repeat
    // accesses land on different elements within the same 64B line.
    if (repeatLeft_ > 0) {
        --repeatLeft_;
        return repeatLine_ + rng_.below(kLineBytes / 8) * 8;
    }

    const uint64_t footprint_lines = ph.footprintBytes / kLineBytes;
    uint64_t addr = appBase_;

    switch (ph.kind) {
      case PatternKind::Streaming: {
        lastStream_ = rrStream_;
        Stream &s = streams_[rrStream_];
        rrStream_ = (rrStream_ + 1) % streams_.size();
        if (s.remaining == 0) {
            s.cursor = rng_.below(footprint_lines) * kLineBytes;
            // 32KB-128KB runs: streaming kernels sweep long arrays,
            // so deep prefetch lookahead rarely overshoots.
            s.remaining = 512 + rng_.below(1536);
        }
        s.cursor = (s.cursor + kLineBytes) % ph.footprintBytes;
        --s.remaining;
        addr = appBase_ + s.cursor;
        break;
      }
      case PatternKind::Strided: {
        lastStream_ = rrStream_;
        Stream &s = streams_[rrStream_];
        rrStream_ = (rrStream_ + 1) % streams_.size();
        if (s.remaining == 0) {
            s.cursor = rng_.below(footprint_lines) * kLineBytes;
            s.remaining = 128 + rng_.below(384); // long strided walks
        }
        s.cursor = static_cast<uint64_t>(
            static_cast<int64_t>(s.cursor) + ph.strideBytes) %
            ph.footprintBytes;
        --s.remaining;
        addr = appBase_ + s.cursor;
        break;
      }
      case PatternKind::PointerChase: {
        addr = appBase_ + chaseCursor_;
        // Fresh random successor every advance: iterating a fixed
        // hash function would trap the walk in a ~sqrt(N) cycle that
        // fits in cache and fakes locality the pattern must not have.
        chaseCursor_ = rng_.below(footprint_lines) * kLineBytes;
        depends_on_prev = rng_.bernoulli(ph.chaseSerialFrac);
        break;
      }
      case PatternKind::SpatialRegion: {
        // 2KB regions, 32 lines; visit the lines set in the footprint.
        for (;;) {
            if (regionPos_ >= 32) {
                regionBase_ = (rng_.below(ph.footprintBytes / 2048)) *
                    2048;
                regionPos_ = 0;
            }
            const int line = regionPos_++;
            if (regionFootprint_ & (1u << line)) {
                addr = appBase_ + regionBase_ +
                    static_cast<uint64_t>(line) * kLineBytes;
                break;
            }
        }
        break;
      }
      case PatternKind::Random:
        addr = appBase_ + rng_.below(footprint_lines) * kLineBytes;
        break;
    }

    repeatLine_ = lineAddr(addr);
    repeatLeft_ = ph.accessesPerLine - 1;
    return addr;
}

TraceRecord
SyntheticTrace::next()
{
    const PatternPhase &ph = profile_.phases[phaseIdx_];
    TraceRecord rec;

    const double r = rng_.uniform();
    if (r < ph.branchFraction) {
        rec.pc = 0x400000ull + (phaseIdx_ << 16) + 0x8000 +
            rng_.below(16) * 8;
        rec.isBranch = true;
        rec.mispredicted = rng_.bernoulli(ph.mispredictRate);
    } else if (r < ph.branchFraction + ph.memFraction) {
        bool depends = false;
        const uint64_t addr = nextAddress(depends);
        rec.addr = addr;
        rec.dependsOnPrevLoad = depends;
        if (rng_.bernoulli(ph.storeFraction)) {
            rec.isStore = true;
        } else {
            rec.isLoad = true;
        }
        // The PC of a memory op is the PC of the stream that issued it;
        // pointer chases and randoms use a phase-stable load PC.
        switch (ph.kind) {
          case PatternKind::Streaming:
          case PatternKind::Strided:
            rec.pc = streams_[lastStream_].pc;
            break;
          default:
            rec.pc = 0x400000ull + (phaseIdx_ << 16) + 0x4000;
            break;
        }
    } else {
        rec.pc = 0x400000ull + (phaseIdx_ << 16) + 0xC000 +
            rng_.below(32) * 4;
    }

    ++instrInPhase_;
    if (instrInPhase_ >= ph.lengthInstrs) {
        size_t next_phase = phaseIdx_ + 1;
        if (next_phase >= profile_.phases.size())
            next_phase = profile_.loopPhases ? 0 : phaseIdx_;
        if (next_phase != phaseIdx_) {
            enterPhase(next_phase);
        } else {
            instrInPhase_ = 0;
        }
    }
    return rec;
}

} // namespace mab
