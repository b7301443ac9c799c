#ifndef MAB_SIM_FUZZ_H
#define MAB_SIM_FUZZ_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/drift_env.h"
#include "core/factory.h"
#include "memory/cache.h"
#include "memory/dram.h"
#include "memory/hierarchy.h"
#include "prefetch/prefetcher.h"
#include "prefetch/pythia.h"
#include "prefetch/tracker_index.h"
#include "smt/pipeline.h"
#include "trace/drift.h"
#include "trace/generator.h"

namespace mab::fuzz {

/**
 * Differential fuzzing harness for the optimized simulator paths.
 *
 * PR 3 rewrote the hottest loops (single-pass Cache::fill probe,
 * devirtualized CoreModel dispatch, thread-pooled sweeps); the golden
 * snapshots pin a handful of fixed configurations, but the paper's
 * claims rest on relative orderings across a large config x workload
 * space. This subsystem generates random-but-valid cases from a single
 * replayable uint64 seed, runs them through the optimized
 * implementations and through slow-but-obviously-correct reference
 * models, and checks structural invariants on every iteration:
 *
 *  - ReferenceCache: a textbook multi-pass LRU/MSHR cache checked
 *    op-for-op against the fused single-pass mab::Cache probe.
 *  - Bandit shadow replay: long-form (long double, recompute-from-
 *    history) DUCB / SW-UCB / UCB / eGreedy update math checked
 *    against the incremental implementations in src/core, including
 *    a closed-form discounted-count cross-check for DUCB.
 *  - SMT skip-ahead: SmtPipeline::run()'s dead-cycle skip checked
 *    chunk by chunk against one cycle() call per cycle.
 *  - Prefetchers: the indexed Stream / Stride / Bingo tables, the
 *    allocation-free Pythia and MLOP's in-order retrain checked
 *    access by access against the table-scanning originals.
 *  - Sweep oracle: serial vs parallel SweepRunner equivalence.
 *  - End-to-end property checks on random CoreModel runs (counter
 *    conservation, MSHR/queue bounds, IPC in (0, commitWidth]).
 *
 * On mismatch the failing case is shrunk automatically (chunk removal
 * over the op stream / trace, then config-dimension reduction) and a
 * one-line repro command is reported:
 *
 *     bench_fuzz --replay <seed> --shrink
 *
 * Every generator consumes only the seed it is handed, so a case seed
 * replays the identical case forever.
 */

/** Derive an independent, well-mixed sub-seed for @p lane of @p seed
 *  (splitmix64 over the pair; lanes never collide across domains). */
uint64_t subSeed(uint64_t seed, uint64_t lane);

// ---------------------------------------------------------------------
// Cache differential
// ---------------------------------------------------------------------

/** One operation of a cache fuzz case (the Cache public API). */
struct CacheOp
{
    enum class Kind
    {
        Lookup,       ///< lookupDemand(line, cycle)
        DemandFill,   ///< fill(line, cycle, prefetch=false)
        PrefetchFill, ///< fill(line, cycle, prefetch=true)
        Invalidate,   ///< invalidate(line)
        Contains,     ///< contains(line)
        Clear,        ///< clear()
    };

    Kind kind = Kind::Lookup;
    uint64_t line = 0;  ///< line-aligned address
    uint64_t cycle = 0; ///< lookup cycle / fill ready cycle
};

const char *toString(CacheOp::Kind kind);

/** A complete, self-contained cache differential case. */
struct CacheCase
{
    CacheConfig config;
    std::vector<CacheOp> ops;
};

/** Human-readable dump of @p c (shrunk-repro reports). */
std::string formatCacheCase(const CacheCase &c);

/**
 * Uniform cache interface so the differential loop, the optimized
 * implementation, the reference model and the fault-injection mutants
 * (self-tests) all plug into the same checker.
 */
class CacheModel
{
  public:
    virtual ~CacheModel() = default;

    virtual Cache::LookupResult lookupDemand(uint64_t line,
                                             uint64_t cycle) = 0;
    virtual bool contains(uint64_t line) const = 0;
    virtual Cache::EvictInfo fill(uint64_t line, uint64_t readyCycle,
                                  bool prefetch) = 0;
    virtual void invalidate(uint64_t line) = 0;
    virtual void clear() = 0;

    virtual uint64_t demandHits() const = 0;
    virtual uint64_t demandMisses() const = 0;
    virtual uint64_t occupancy() const = 0;
};

/** The implementation under test: wraps mab::Cache unchanged. */
class OptimizedCacheModel final : public CacheModel
{
  public:
    explicit OptimizedCacheModel(const CacheConfig &config)
        : cache_(config)
    {
    }

    Cache::LookupResult
    lookupDemand(uint64_t line, uint64_t cycle) override
    {
        return cache_.lookupDemand(line, cycle);
    }

    bool contains(uint64_t line) const override
    {
        return cache_.contains(line);
    }

    Cache::EvictInfo
    fill(uint64_t line, uint64_t readyCycle, bool prefetch) override
    {
        return cache_.fill(line, readyCycle, prefetch);
    }

    void invalidate(uint64_t line) override
    {
        cache_.invalidate(line);
    }

    void clear() override { cache_.clear(); }

    uint64_t demandHits() const override { return cache_.demandHits; }
    uint64_t demandMisses() const override
    {
        return cache_.demandMisses;
    }
    uint64_t occupancy() const override { return cache_.occupancy(); }

  private:
    Cache cache_;
};

/**
 * Textbook reference cache: per-set line vectors, explicit separate
 * passes for hit probe, invalid-way scan and LRU victim scan — the
 * semantics mab::Cache's fused single-pass probe must reproduce
 * exactly (hit/miss, recency, MSHR readyCycle merge, prefetch
 * tagging/promotion, eviction attribution). Deliberately slow and
 * obvious; never optimize this class.
 */
class ReferenceCache final : public CacheModel
{
  public:
    explicit ReferenceCache(const CacheConfig &config);

    Cache::LookupResult lookupDemand(uint64_t line,
                                     uint64_t cycle) override;
    bool contains(uint64_t line) const override;
    Cache::EvictInfo fill(uint64_t line, uint64_t readyCycle,
                          bool prefetch) override;
    void invalidate(uint64_t line) override;
    void clear() override;

    uint64_t demandHits() const override { return hits_; }
    uint64_t demandMisses() const override { return misses_; }
    uint64_t occupancy() const override;

    uint64_t numSets() const { return static_cast<uint64_t>(sets_.size()); }

    /**
     * Structural invariants of the reference state: occupancy within
     * capacity, valid tags unique within a set, every tag mapping to
     * the set that holds it. Returns "" when all hold.
     */
    std::string checkInvariants() const;

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t readyCycle = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool prefetched = false;
        bool used = false;
    };

    uint64_t setIndex(uint64_t line) const;
    Line *probe(uint64_t line);
    const Line *probe(uint64_t line) const;

    CacheConfig config_;
    std::vector<std::vector<Line>> sets_;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

using CacheModelFactory =
    std::function<std::unique_ptr<CacheModel>(const CacheConfig &)>;

/** Factory producing the real (optimized) cache under test. */
CacheModelFactory optimizedCacheFactory();

/**
 * Deliberate semantic faults for harness self-tests: each mutation
 * wraps the optimized cache and corrupts one documented behavior. The
 * differential loop must catch every one of them and shrink the
 * witness to a short repro — the standing proof that the fuzzer would
 * notice a real regression in the single-pass fill probe.
 */
enum class CacheMutation
{
    /** Demand lookups stop refreshing recency (breaks LRU order). */
    DropRecencyUpdate,
    /** Demand fills no longer promote prefetched lines. */
    KeepPrefetchTagOnDemandFill,
    /** Victim selection picks the most recently used line. */
    EvictMostRecent,
    /** Victim selection ignores invalid ways (always evicts way 0). */
    IgnoreInvalidWays,
    /** In-flight hits report the lookup cycle as readyCycle. */
    ForgetInflightCycle,
    /** A hit's recency promotion also refreshes way 0 — the SoA
     *  stamp write landing in a neighboring lane (LRU-order
     *  corruption). */
    RankSkewOnHit,
    /** Prefetch fills also set the used flag — adjacent flag bits of
     *  the packed SoA tag word aliasing (kills the prefetch taxonomy:
     *  prefetchFirstUse / evictedUnusedPrefetch never fire). */
    PackedFlagAliasing,
    /** Set index masks with sets-2 instead of sets-1 — the classic
     *  off-by-one against the SoA plane stride (no-op at 1 set;
     *  collapses/aliases sets everywhere else). */
    SetIndexMaskOffByOne,
};

const char *toString(CacheMutation m);

/** All mutations, for exhaustive self-tests. */
std::vector<CacheMutation> allCacheMutations();

/** Factory producing a mutant of the optimized cache. */
CacheModelFactory mutantCacheFactory(CacheMutation m);

/** Generate a random-but-valid cache case from @p seed: degenerate
 *  geometries included (1 way, 1 set, single-line caches). */
CacheCase genCacheCase(uint64_t seed);

/**
 * Run @p c through @p impl and the reference model, comparing every
 * result field and the stats/occupancy after each op, plus the
 * reference invariants. Returns "" on full agreement, else a
 * description of the first divergence.
 */
std::string diffCacheCase(const CacheCase &c,
                          const CacheModelFactory &impl);

/** Same, against the optimized mab::Cache. */
std::string diffCacheCase(const CacheCase &c);

/**
 * Shrink a failing case: greedy chunk removal over the op stream
 * (ddmin-style halving passes), then config-dimension reduction
 * (fewer ways / sets). The result still fails diffCacheCase under
 * @p impl. Returns @p c unchanged if it does not fail.
 */
CacheCase shrinkCacheCase(const CacheCase &c,
                          const CacheModelFactory &impl);

// ---------------------------------------------------------------------
// Bandit differential
// ---------------------------------------------------------------------

/** A bandit shadow-replay case. */
struct BanditCase
{
    MabAlgorithm algo = MabAlgorithm::Ducb;
    MabConfig mab;
    /** SW-UCB window (ignored by the other algorithms). */
    int window = 0;
    /** Number of select/observe interactions to replay. */
    int steps = 200;
    /** Seed of the synthetic reward stream. */
    uint64_t rewardSeed = 1;
};

std::string formatBanditCase(const BanditCase &c);

/** Generate a bandit case (DUCB / SW-UCB / UCB / eGreedy pool). */
BanditCase genBanditCase(uint64_t seed);

/** Instantiate the policy a case describes. */
std::unique_ptr<MabPolicy> makeCasePolicy(const BanditCase &c);

/**
 * Drive @p policy through @p c while a long-form long-double shadow
 * replays the observed (arm, reward) sequence from scratch: round-
 * robin seeding, reward normalization, discounted / windowed counts,
 * running-average rewards and UCB selection scores are all recomputed
 * independently and compared after every step. DUCB additionally gets
 * a closed-form discounted-count cross-check (sum of gamma powers
 * over the selection history) at checkpoints, and every policy is
 * held to the discounted-count identity |n_total - sum n_i| ~ 0.
 * Returns "" on agreement, else the first divergence.
 */
std::string diffBanditPolicy(MabPolicy &policy, const BanditCase &c);

/** diffBanditPolicy over a freshly built makeCasePolicy(c). */
std::string diffBanditCase(const BanditCase &c);

/** Shrink a failing bandit case (halve steps, drop config knobs). */
BanditCase shrinkBanditCase(const BanditCase &c);

// ---------------------------------------------------------------------
// End-to-end property checks
// ---------------------------------------------------------------------

/** A random end-to-end CoreModel run. */
struct SimCase
{
    AppProfile app;
    HierarchyConfig hier;
    DramConfig dram;
    /** Prefetcher name ("None", "Stride", ..., "Bandit:<algo>"). */
    std::string prefetcher = "None";
    uint64_t instructions = 2000;
};

std::string formatSimCase(const SimCase &c);

/** Generate a random sim case: random phases/patterns, random valid
 *  cache geometries, DRAM speeds and prefetcher. */
SimCase genSimCase(uint64_t seed);

/**
 * Run the case and check the properties that must hold for any
 * config: IPC in (0, commitWidth], per-level counter conservation
 * (lookups at level N+1 == misses at level N), prefetch-taxonomy
 * bounds (timely + late + wrong <= issued), MSHR / prefetch-queue
 * occupancy within their configured capacities, and cache occupancy
 * within capacity. Returns "" when all hold.
 */
std::string checkSimProperties(const SimCase &c);

/** Shrink a failing sim case: halve the run, drop config dimensions
 *  (default hierarchy/DRAM, no prefetcher, single phase). */
SimCase shrinkSimCase(const SimCase &c);

// ---------------------------------------------------------------------
// Generator-vs-replay trace oracle
// ---------------------------------------------------------------------

/**
 * Differential check of the trace arena's byte-identity invariant on
 * a fuzzed sim config: materialize the case's workload, then
 *  - diff a SyntheticTrace against a ReplaySource field-for-field
 *    over every record (including again after reset()), and
 *  - run the case's CoreModel once over a ReplaySource started on a
 *    random-length prefix and extend()ed to twice its length whenever
 *    it runs out, and once over the whole trace, diffing every
 *    exported counter.
 * Returns "" on agreement, else the first divergence.
 */
std::string checkReplayEquivalence(uint64_t seed);

// ---------------------------------------------------------------------
// Drifting-generator oracle
// ---------------------------------------------------------------------

/**
 * A drift differential case: one seeded drifting profile (phase-
 * shifting, cyclic or adversarial — trace/drift.h) checked across the
 * whole delivery stack, plus a drifting-bandit rollout checked for
 * regret conservation against the per-phase oracle (core/regret.h).
 */
struct DriftCase
{
    /** 0 = phase-shift, 1 = cyclic, 2 = adversarial. */
    int kind = 1;
    DriftProfile drift;
    uint64_t instructions = 2000;
    /** Start of the grown run (grown-vs-whole counter leg). */
    uint64_t prefixInstrs = 0;
    /** Machine the grown-vs-whole counter leg runs on. */
    HierarchyConfig hier;
    DramConfig dram;
    std::string prefetcher = "None";
    /** Regret-conservation rollout over the moving oracle. */
    DriftBanditConfig env;
    DriftPolicySpec policy;
};

std::string formatDriftCase(const DriftCase &c);

/** Generate a drift case: random generator kind, shift schedule,
 *  machine config and bandit environment, all from @p seed. */
DriftCase genDriftCase(uint64_t seed);

/**
 * Check the case end to end:
 *  - schedule structure: contiguous segments covering the profile's
 *    phase lengths exactly, driftSegmentAt agreeing at boundaries;
 *  - replay equivalence: a SyntheticTrace of the drifting profile vs
 *    its materialized replay, record-for-record (fresh and
 *    post-reset), and end-to-end counters of a run grown from a
 *    prefix vs a run over the whole trace;
 *  - regret conservation: per-phase regrets of the
 *    PhasedRegretTracker sum exactly to cumulative(), per-phase step
 *    counts to steps(), with the expected phase count.
 * Returns "" on agreement, else the first divergence.
 */
std::string diffDriftCase(const DriftCase &c);

/** Shrink a failing drift case: halve the run and the rollout, then
 *  default the machine config. */
DriftCase shrinkDriftCase(const DriftCase &c);

/** diffDriftCase over a freshly generated case. */
std::string checkDriftEquivalence(uint64_t seed);

// ---------------------------------------------------------------------
// SMT skip-ahead differential
// ---------------------------------------------------------------------

/** One stretch of an SMT case: the PG policy and shares installed
 *  before it (as an epoch boundary would), then its length. */
struct SmtSegment
{
    uint64_t cycles = 1000;
    std::array<double, SmtConfig::kThreads> shares{0.5, 0.5};
    PgPolicy policy;
};

/**
 * An SMT differential case: a random pipeline geometry and catalog app
 * pair run through SmtPipeline::run() in random chunk sizes and,
 * alongside, through one cycle() call per cycle.
 */
struct SmtCase
{
    SmtConfig config;
    std::string app0 = "gcc";
    std::string app1 = "lbm";
    /** Thread-source seed (lane seeds derive from it). */
    uint64_t seed = 1;
    std::vector<SmtSegment> segments;
    /** Seed of the run() chunk-size stream. */
    uint64_t chunkSeed = 1;

    uint64_t totalCycles() const;
};

std::string formatSmtCase(const SmtCase &c);

/** Generate an SMT case: geometry (degenerate 1-entry structures
 *  included), app pair, policies and share schedule from @p seed. */
SmtCase genSmtCase(uint64_t seed);

/**
 * Planted faults for harness self-tests. The first three drop one
 * wake source of the dead-cycle skip, so run() sleeps through a cycle
 * that would have changed the state. StaleGateLimits leaves the gate
 * limits of the previous shares in place in both pipelines, which
 * only the gating oracle (smtGatedByDefinition) can see.
 */
enum class SmtMutation
{
    None,
    /** The wake ignores the ROB heads' completion cycles. */
    IgnoreRobHeadWake,
    /** The wake ignores pending calendar releases. */
    IgnoreCalendarWake,
    /** The wake ignores the end of a fetch redirect. */
    IgnoreFetchRedirectWake,
    /** setShares() leaves the gate limits stale. */
    StaleGateLimits,
};

const char *toString(SmtMutation m);

/** Every planted mutation (SmtMutation::None excluded). */
std::vector<SmtMutation> allSmtMutations();

/**
 * SmtPipeline::isGated(@p t) by its definition, from the public
 * occupancy accessors: under @p policy, thread @p t is gated when its
 * IQ, LQ+SQ, ROB or IRF occupancy exceeds @p share times the size of
 * that structure in @p config.
 */
bool smtGatedByDefinition(const SmtPipeline &p, const SmtConfig &config,
                          const PgPolicy &policy, double share, int t);

/**
 * Run @p c through the skip-ahead run() (with @p m planted) and the
 * cycle() reference, comparing after every chunk: cycle count, every
 * occupancy accessor, gating, committed/fetched, the rename counters
 * and the exportStats JSON; and checking isGated() against
 * smtGatedByDefinition(). Returns "" on agreement, else the
 * first divergence.
 */
std::string diffSmtCase(const SmtCase &c,
                        SmtMutation m = SmtMutation::None);

/** Shrink a failing SMT case: drop whole segments, take the shortest
 *  failing prefix, then try the default geometry, shares and policy.
 *  Returns @p c unchanged if it passes. */
SmtCase shrinkSmtCase(const SmtCase &c,
                      SmtMutation m = SmtMutation::None);

// ---------------------------------------------------------------------
// Prefetcher differential
// ---------------------------------------------------------------------

/** The prefetcher a prefetch fuzz case drives. */
enum class PrefetchKind
{
    NextLine,
    Stream,
    Stride,
    Bingo,
    Mlop,
    Pythia,
    /** BanditEnsemblePrefetcher: next-line + stream + stride. */
    Ensemble,
};

const char *toString(PrefetchKind kind);

/** One operation of a prefetch fuzz case. */
struct PrefetchOp
{
    enum class Kind
    {
        Access, ///< onAccess(access, out)
        Reset,  ///< reset()
        /** setDegree (Stream, Stride), setEnabled (NextLine) or
         *  applyArm (Ensemble) with @c knob; a no-op elsewhere. */
        Knob,
    };

    Kind kind = Kind::Access;
    PrefetchAccess access;
    /** What the bandwidth probe reads during this access. */
    double bw = 0.0;
    int knob = 0;
};

/** A complete, self-contained prefetcher differential case. */
struct PrefetchCase
{
    PrefetchKind kind = PrefetchKind::Stream;
    /** Stream / Stride table size. */
    int trackers = 64;
    /** Stride constructor degree. */
    int strideDegree = 2;
    uint64_t regionBytes = 2048;
    int accumulationEntries = 64;
    int historyEntries = 2048;
    int mlopLevels = 16;
    int mlopHistory = 256;
    int mlopEpoch = 1024;
    PythiaConfig pythia;
    /** Install a bandwidth probe (Pythia) reading PrefetchOp::bw. */
    bool bwProbe = false;
    std::vector<PrefetchOp> ops;
};

/** Human-readable dump of @p c (shrunk-repro reports). */
std::string formatPrefetchCase(const PrefetchCase &c);

/**
 * Uniform prefetcher interface for the differential loop: the
 * optimized prefetchers, the reference models and the planted
 * mutants all plug in through it.
 */
class PrefetchModel
{
  public:
    virtual ~PrefetchModel() = default;

    virtual void onAccess(const PrefetchAccess &access,
                          std::vector<uint64_t> &out) = 0;
    virtual void reset() = 0;
    virtual void setKnob(int value) = 0;
    /** Per-entry tags of the tracker tables (Stream, Stride, Bingo's
     *  accumulation table; the ensemble's stream then stride table),
     *  in index order; empty for the others. */
    virtual std::vector<TrackerTag> trackerTags() const = 0;
    /** Learned state with a public accessor: Pythia's actionCounts(),
     *  MLOP's per-level offsets; empty for the others. */
    virtual std::vector<int64_t> observables() const = 0;
};

/** Builds the model for a case; a bandwidth probe, when the case
 *  installs one, reads *@p bw. */
using PrefetchModelFactory = std::function<std::unique_ptr<PrefetchModel>(
    const PrefetchCase &c, const double *bw)>;

/** Factory producing the real (optimized) prefetchers under test. */
PrefetchModelFactory optimizedPrefetchFactory();

/**
 * Planted faults for harness self-tests, each in a copy of the
 * reference models: the differential loop must catch every one.
 */
enum class PrefetchMutation
{
    None,
    /** The tracker tables evict the most recently used entry. */
    LruPicksMostRecent,
    /** Stream extends the last qualifying tracker, not the first. */
    StreamTakesLastQualifying,
    /** Bingo opens a generation in the highest free entry. */
    BingoFillsHighestFree,
    /** Pythia breaks argmax ties toward the highest action. */
    PythiaTieTakesHighest,
};

const char *toString(PrefetchMutation m);

/** Every planted mutation (PrefetchMutation::None excluded). */
std::vector<PrefetchMutation> allPrefetchMutations();

/**
 * The reference prefetchers: the table-scanning Stream, Stride,
 * NextLine, Bingo, MLOP and Pythia implementations the optimized ones
 * replaced (deque + hash-map evaluation queue, whole-table LRU scans,
 * serial argmax), kept verbatim as the semantics to reproduce — with
 * @p m planted. Never optimize these.
 */
PrefetchModelFactory referencePrefetchFactory(
    PrefetchMutation m = PrefetchMutation::None);

/** Generate a random-but-valid prefetch case from @p seed: clustered
 *  lines, more PCs and regions than table entries, re-triggers,
 *  resets, knob changes and bandwidth readings. */
PrefetchCase genPrefetchCase(uint64_t seed);

/**
 * Run @p c through @p impl and the reference model, comparing the
 * emitted address lists element by element after every access, and
 * the tracker tags and observables after every op. Returns "" on
 * agreement, else the first divergence.
 */
std::string diffPrefetchCase(const PrefetchCase &c,
                             const PrefetchModelFactory &impl);

/** Same, against the optimized prefetchers. */
std::string diffPrefetchCase(const PrefetchCase &c);

/** Shrink a failing case: chunk removal over the ops, then smaller
 *  tables, history and evaluation queue. Returns @p c unchanged if it
 *  passes. */
PrefetchCase shrinkPrefetchCase(const PrefetchCase &c,
                                const PrefetchModelFactory &impl);

// ---------------------------------------------------------------------
// Serial-vs-parallel sweep oracle
// ---------------------------------------------------------------------

/**
 * Build a random grid of pure simulation tasks and run it through
 * SweepRunner with jobs=1 and jobs=4: results must be identical and
 * in submission order. Returns "" on agreement.
 */
std::string checkSweepEquivalence(uint64_t seed);

// ---------------------------------------------------------------------
// Top-level harness
// ---------------------------------------------------------------------

struct FuzzOptions
{
    uint64_t seedBase = 1;
    uint64_t iters = 200;
    /** > 0: run until the time cap instead of the iteration cap. */
    double maxSeconds = 0.0;
    /** Shrink failing cases before reporting. */
    bool shrink = false;
    /** Stop at the first failing iteration (default on). */
    bool stopOnFailure = true;
    /** Parallel fuzz lanes (iterations are independent). */
    int jobs = 1;
    /** Restrict to one domain ("cache", "bandit", "sim", "replay",
     *  "drift", "smt", "sweep", "prefetch"); empty runs them all. */
    std::string domain;
};

struct FuzzFailure
{
    uint64_t caseSeed = 0;
    std::string domain;  ///< "cache", "bandit", "sim", "replay",
                         ///< "drift", "smt", "sweep", "prefetch"
    std::string message; ///< divergence + (when shrunk) minimal case
    std::string repro;   ///< one-line replay command
};

struct FuzzReport
{
    uint64_t iterations = 0;
    uint64_t cacheCases = 0;
    uint64_t banditCases = 0;
    uint64_t simCases = 0;
    uint64_t replayCases = 0;
    uint64_t driftCases = 0;
    uint64_t smtCases = 0;
    uint64_t sweepCases = 0;
    uint64_t prefetchCases = 0;
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
    void merge(const FuzzReport &other);
};

/** Case seed of iteration @p index under @p seedBase — the value
 *  `bench_fuzz --replay` takes. */
uint64_t iterationSeed(uint64_t seedBase, uint64_t index);

/**
 * Run every domain check for one case seed (the sweep oracle runs on
 * a deterministic subset of seeds — thread spawn is comparatively
 * expensive). Failures are appended to @p report, shrunk first when
 * @p shrink is set. A non-empty @p domain restricts the iteration to
 * that single domain (the CI drift leg, `bench_fuzz --domain`).
 */
void runFuzzIteration(uint64_t caseSeed, FuzzReport &report,
                      bool shrink);
void runFuzzIteration(uint64_t caseSeed, FuzzReport &report,
                      bool shrink, const std::string &domain);

/** The full fuzz loop (the core of the bench_fuzz driver). */
FuzzReport runFuzz(const FuzzOptions &opt);

} // namespace mab::fuzz

#endif // MAB_SIM_FUZZ_H
