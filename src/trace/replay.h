#ifndef MAB_TRACE_REPLAY_H
#define MAB_TRACE_REPLAY_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "trace/generator.h"

namespace mab {

/**
 * Materialized trace replay (the "generate once, replay everywhere"
 * subsystem).
 *
 * Every sweep point used to re-synthesize its workload one
 * TraceSource::next() call at a time: fig8 alone generates the same
 * instruction stream once per prefetcher (6x per workload), and the
 * tune/ablation grids are worse. ChampSim and Pythia's harness
 * amortize this by replaying pre-materialized traces; this header
 * brings that to the sweep engine.
 *
 *  - PackedRecord: a 16-byte buffer format for TraceRecord (flags
 *    bit-packed into the top byte of the PC word).
 *  - MaterializedTrace: one immutable contiguous PackedRecord
 *    array, generated whole on the arena miss (or mapped from an
 *    arena file) before any run reads it.
 *  - ReplaySource: a TraceSource whose next() is a trivially
 *    inlinable load from the array.
 *  - TraceArena: a process-wide, mutex-guarded cache of materialized
 *    workloads, shared_ptr-shared across sweep tasks, with a byte
 *    budget, LRU eviction and hit/miss/bytes/genMs counters (the
 *    meta.traceArena block of --json reports).
 *
 * Hard invariant: replay is byte-identical to live generation. A
 * materialized trace holds exactly the records the equivalent
 * SyntheticTrace would produce, so every sweep's output is unchanged
 * — to the byte, at any job count — whether the arena is on or off
 * (enforced by tests/test_replay.cc and fuzzed by sim/fuzz.cc).
 */

/**
 * One trace record, packed to 16 bytes: the PC occupies the low 56
 * bits of the first word and the five boolean flags its top byte; the
 * operand address keeps its full 64 bits. Synthetic PCs live a few
 * MBs above 0x400000, so the 56-bit limit is never near; pack()
 * rejects (throws) PCs that would not round-trip rather than silently
 * corrupting them.
 */
struct PackedRecord
{
    static constexpr uint64_t kPcMask = (1ull << 56) - 1;
    static constexpr uint64_t kLoad = 1ull << 56;
    static constexpr uint64_t kStore = 1ull << 57;
    static constexpr uint64_t kBranch = 1ull << 58;
    static constexpr uint64_t kMispredicted = 1ull << 59;
    static constexpr uint64_t kDependsOnPrevLoad = 1ull << 60;

    uint64_t pcFlags = 0;
    uint64_t addr = 0;

    static PackedRecord
    pack(const TraceRecord &rec)
    {
        if (rec.pc > kPcMask)
            throw std::runtime_error(
                "PackedRecord: pc exceeds 56 bits");
        PackedRecord p;
        p.pcFlags = rec.pc;
        if (rec.isLoad)
            p.pcFlags |= kLoad;
        if (rec.isStore)
            p.pcFlags |= kStore;
        if (rec.isBranch)
            p.pcFlags |= kBranch;
        if (rec.mispredicted)
            p.pcFlags |= kMispredicted;
        if (rec.dependsOnPrevLoad)
            p.pcFlags |= kDependsOnPrevLoad;
        p.addr = rec.addr;
        return p;
    }

    TraceRecord
    unpack() const
    {
        TraceRecord rec;
        rec.pc = pcFlags & kPcMask;
        rec.addr = addr;
        rec.isLoad = (pcFlags & kLoad) != 0;
        rec.isStore = (pcFlags & kStore) != 0;
        rec.isBranch = (pcFlags & kBranch) != 0;
        rec.mispredicted = (pcFlags & kMispredicted) != 0;
        rec.dependsOnPrevLoad = (pcFlags & kDependsOnPrevLoad) != 0;
        return rec;
    }
};

static_assert(sizeof(PackedRecord) == 16,
              "PackedRecord must stay 16 bytes: the arena byte budget "
              "and the replay hot loop are sized around it");

/**
 * Anything the TraceArena can hold: reports its resident size (which
 * may grow, e.g. lazily-extended SMT uop streams) and the wall-clock
 * spent generating it.
 */
class ArenaItem
{
  public:
    virtual ~ArenaItem() = default;

    /** Resident bytes of the materialized payload. */
    virtual uint64_t bytes() const = 0;

    /** Wall-clock milliseconds spent generating the payload so far. */
    virtual double genMs() const = 0;
};

/**
 * Owner of a trace's record payload: a MaterializedTrace keeps its
 * owner alive for as long as any consumer holds the trace. The owner
 * is a memory mapping — anonymous for a generated trace, of the file
 * for a loaded one — or a heap buffer where mmap is unavailable (see
 * trace/arena_file.cc, which keeps the platform includes out of this
 * header).
 */
class PayloadOwner
{
  public:
    virtual ~PayloadOwner() = default;
};

/**
 * A materialized instruction trace: exactly the first size() records
 * the generating SyntheticTrace produces from a fresh start, in
 * PackedRecord form, as one immutable contiguous array.
 *
 * A trace is complete from the moment it exists — generate() fills
 * the whole payload before returning, and an arena file is only
 * mapped after its checksum and fingerprint verify — so any number
 * of ReplaySources on any threads read it with no synchronization.
 */
class MaterializedTrace final : public ArenaItem
{
  public:
    /**
     * Trace over @p count contiguous PackedRecords at @p payload.
     * @p owner keeps the payload alive until the trace dies.
     */
    MaterializedTrace(const AppProfile &profile, uint64_t count,
                      const PackedRecord *payload,
                      std::shared_ptr<PayloadOwner> owner);

    /** Generate the first @p count records of @p profile eagerly. */
    static std::shared_ptr<MaterializedTrace>
    generate(const AppProfile &profile, uint64_t count);

    const PackedRecord *data() const { return data_; }
    uint64_t size() const { return count_; }
    const std::string &name() const { return name_; }

    uint64_t bytes() const override
    {
        return count_ * sizeof(PackedRecord);
    }
    double genMs() const override { return genMs_; }

  private:
    std::string name_;
    uint64_t count_;
    const PackedRecord *data_;
    std::shared_ptr<PayloadOwner> owner_;
    double genMs_ = 0.0; ///< 0 for a trace loaded from a file
};

/**
 * TraceSource over a MaterializedTrace: next() is a bounds check, one
 * 16-byte load and a flag unpack — no RNG, no phase machinery.
 *
 * The class is final and next() is defined in-class so the CoreModel
 * hot loop (which caches the concrete pointer, see cpu/core_model.h)
 * inlines it.
 *
 * Unlike FileTrace the source does NOT wrap around: running past the
 * end would silently diverge from live generation, so it throws
 * instead (the arena always materializes exactly the records a run
 * consumes).
 */
class ReplaySource final : public TraceSource
{
  public:
    explicit ReplaySource(std::shared_ptr<MaterializedTrace> trace)
        : trace_(std::move(trace)), data_(trace_->data()),
          size_(trace_->size())
    {
    }

    /**
     * The next record in packed form — the hot entry point: the
     * CoreModel replay loop consumes PackedRecords directly (two
     * registers, flag reads stay bit tests) and never materializes
     * the unpacked struct.
     */
    PackedRecord
    nextPacked()
    {
        if (pos_ >= size_) [[unlikely]]
            throwExhausted();
        return data_[pos_++];
    }

    TraceRecord next() override { return nextPacked().unpack(); }

    void reset() override { pos_ = 0; }

    const std::string &name() const override { return trace_->name(); }

    uint64_t size() const { return size_; }
    uint64_t position() const { return pos_; }

  private:
    [[noreturn]] void throwExhausted() const;

    std::shared_ptr<MaterializedTrace> trace_;
    const PackedRecord *data_;
    uint64_t size_;
    uint64_t pos_ = 0;
};

/**
 * Process-wide cache of materialized workloads, shared across
 * SweepRunner tasks.
 *
 * Keys are exact fingerprints (every profile field spelled into the
 * key, doubles by bit pattern — no hash collisions), so an arena hit
 * can only ever return the identical workload. Concurrent misses on
 * the same key generate once: the first task installs a future and
 * materializes outside the lock, later tasks block on the shared
 * future. Entries are evicted least-recently-acquired-first when the
 * byte budget is exceeded; evicted payloads stay alive for the tasks
 * still holding their shared_ptr and are freed with the last one.
 *
 * Environment knob (read once, at first use):
 *   MAB_TRACE_ARENA_DIR=<d>  persist instruction traces as versioned
 *                            on-disk PackedRecord files under <d>
 *                            (created if absent). A miss first tries
 *                            to mmap the workload's file — warm starts
 *                            skip generation entirely. A miss with no
 *                            (or a corrupt) file generates, then
 *                            spills via an atomic rename so racing
 *                            writers can never expose a partial file.
 *                            Corrupt files (bad magic/version/
 *                            fingerprint/length/checksum) are rejected
 *                            and regenerated, never replayed.
 *
 * The byte budget (default 512 MiB) is set through setBudgetBytes()
 * and the on/off switch through setEnabled(); the bench harness parses
 * MAB_TRACE_ARENA_MB and MAB_TRACE_ARENA (0 = every run generates
 * live; the flag --no-trace-cache does the same) into them
 * (bench/common.h, resolveArenaBudget and resolveArenaEnabled).
 */
class TraceArena
{
  public:
    static TraceArena &global();

    bool enabled() const;
    void setEnabled(bool on);

    uint64_t budgetBytes() const;
    void setBudgetBytes(uint64_t bytes);

    /** On-disk arena directory ("" = in-memory only). */
    std::string dir() const;
    void setDir(std::string dir);

    /** Arena counters (the meta.traceArena block). */
    struct Stats
    {
        bool enabled = true;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t entries = 0;
        uint64_t bytes = 0;
        uint64_t budgetBytes = 0;
        double genMs = 0.0;
        /** Persistent-arena traffic (MAB_TRACE_ARENA_DIR). */
        std::string dir;
        uint64_t fileHits = 0;   ///< misses served by mmap'ing a file
        uint64_t fileSpills = 0; ///< traces written to the directory
        uint64_t fileRejects = 0; ///< corrupt files fallen back from
    };

    Stats stats() const;

    /** Drop every entry and zero the counters (tests). */
    void clear();

    using Generator = std::function<std::shared_ptr<ArenaItem>()>;

    /**
     * The cached item under @p key, produced via @p gen on a miss.
     * @p gen runs outside the arena lock; concurrent acquirers of the
     * same key share one generation. Exceptions from @p gen propagate
     * to every waiter and the entry is removed.
     */
    std::shared_ptr<ArenaItem> acquire(const std::string &key,
                                       const Generator &gen);

    /** Materialized instruction trace of (@p profile, @p count). */
    std::shared_ptr<MaterializedTrace>
    acquireTrace(const AppProfile &profile, uint64_t count);

  private:
    TraceArena();

    void evictOverBudget(const std::string &keep);

    struct Entry
    {
        std::shared_future<std::shared_ptr<ArenaItem>> fut;
        uint64_t lruTick = 0;
    };

    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> map_;
    bool enabled_ = true;
    uint64_t budgetBytes_ = 0;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    /** On-disk arena directory; "" keeps the arena in-memory only. */
    std::string dir_;
    /** File-traffic counters are atomic: they tick inside generators
     *  running outside mu_ (acquire() drops the lock to generate). */
    std::atomic<uint64_t> fileHits_{0};
    std::atomic<uint64_t> fileSpills_{0};
    std::atomic<uint64_t> fileRejects_{0};
};

/** Exact (collision-free) arena key fragment for @p profile. */
std::string profileFingerprint(const AppProfile &profile);

/**
 * The trace source of one sweep run over @p profile consuming exactly
 * @p instructions records: a ReplaySource over the arena's
 * materialized workload when the arena is enabled, else a live
 * SyntheticTrace. This is the one entry point the bench run helpers
 * and the golden-snapshot driver route through.
 */
std::unique_ptr<TraceSource> makeRunSource(const AppProfile &profile,
                                           uint64_t instructions);

} // namespace mab

#endif // MAB_TRACE_REPLAY_H
