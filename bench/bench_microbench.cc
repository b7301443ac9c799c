/**
 * Simulator hot-path microbenchmarks: nanoseconds (and derived host
 * cycles) per simulated memory access for the inner loops the sweep
 * engine spends its time in.
 *
 * These are the harness behind the serial hot-path optimizations:
 *   - Cache lookup+fill as one single-pass probe per set scan
 *     (BM_CacheLookupFill),
 *   - devirtualized trace-source and prefetcher dispatch in
 *     CoreModel, and the per-access tracing branch hoisted out of the
 *     run loop (BM_CoreStep*),
 *   - the SMT pipeline kernel: dead-cycle skip-ahead, ring buffers,
 *     the count calendar, the inlined per-cycle loop and cached gate
 *     limits (BM_SmtPipelineRun/ICount and /Choi),
 *   - the prefetchers' training path: indexed tracker tables, the
 *     allocation-free Pythia and MLOP's in-order retrain
 *     (BM_PrefetcherOnAccess/<prefetcher>/<app>).
 *
 * Counters: "ns/access" is wall time per simulated cache access (or
 * per instruction for core-level benches). Compare before/after with
 *     ./bench_microbench --benchmark_repetitions=3
 */
#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/ducb.h"
#include "core/swucb.h"
#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "memory/cache.h"
#include "prefetch/bingo.h"
#include "prefetch/mlop.h"
#include "prefetch/pythia.h"
#include "prefetch/stream.h"
#include "prefetch/stride.h"
#include "sim/rng.h"
#include "smt/pipeline.h"
#include "smt/thread_source.h"
#include "trace/generator.h"
#include "trace/replay.h"
#include "trace/suites.h"

using namespace mab;

namespace {

/** A reproducible mixed stream of hot and streaming lines. */
std::vector<uint64_t>
addressStream(size_t n)
{
    Rng rng(12345);
    std::vector<uint64_t> lines;
    lines.reserve(n);
    uint64_t stream_base = 0x100000;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t r = rng.next64() % 100;
        if (r < 55) {
            // Hot set: revisit one of 512 lines (mostly hits).
            lines.push_back((rng.next64() % 512) * kLineBytes);
        } else {
            // Streaming: fresh lines that force fills + evictions.
            stream_base += kLineBytes;
            lines.push_back(stream_base);
        }
    }
    return lines;
}

} // namespace

/**
 * The Cache::lookupDemand + Cache::fill pair — the per-access work of
 * every level of the hierarchy. The single-pass probe (one combined
 * hit/first-invalid/LRU scan per set) shows up directly here.
 */
static void
BM_CacheLookupFill(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(state.range(0));
    Cache cache(cfg);
    const auto lines = addressStream(1 << 16);

    uint64_t cycle = 0;
    size_t i = 0;
    for (auto _ : state) {
        const uint64_t line = lines[i];
        i = (i + 1) & (lines.size() - 1);
        ++cycle;
        const Cache::LookupResult r = cache.lookupDemand(line, cycle);
        if (!r.hit)
            cache.fill(line, cycle + 30, false);
        benchmark::DoNotOptimize(cache.demandHits);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/access"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CacheLookupFill)
    ->Arg(32 * 1024)
    ->Arg(1024 * 1024)
    ->UseRealTime();

/**
 * Pure hit probe: every lookup finds a resident, fill-complete line.
 * Isolates the per-set tag scan + recency update — the cost every
 * level of the hierarchy pays on the (dominant) hit path.
 */
static void
BM_CacheProbeHit(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(state.range(0));
    Cache cache(cfg);
    // Resident working set: half the capacity, so every set stays
    // fully valid without evictions once warmed.
    const uint64_t resident = cfg.sizeBytes / kLineBytes / 2;
    for (uint64_t i = 0; i < 2 * resident; ++i)
        cache.fill(i * kLineBytes, 0, false);
    Rng rng(42);
    std::vector<uint64_t> lines(1 << 14);
    for (auto &l : lines)
        l = (resident + rng.below(resident)) * kLineBytes;

    uint64_t cycle = 1000;
    size_t i = 0;
    for (auto _ : state) {
        const Cache::LookupResult r =
            cache.lookupDemand(lines[i], ++cycle);
        i = (i + 1) & (lines.size() - 1);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/access"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CacheProbeHit)->Arg(32 * 1024)->Arg(2 * 1024 * 1024)
    ->UseRealTime();

/**
 * Pure miss probe + victim fill: a streaming line sequence that never
 * re-hits, against a fully valid cache. Every access scans a full set
 * without a match, then runs the fused first-invalid/LRU victim scan
 * and writes the new line — the worst-case per-access path.
 */
static void
BM_CacheProbeMiss(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(state.range(0));
    Cache cache(cfg);
    for (uint64_t i = 0; i < cfg.sizeBytes / kLineBytes; ++i)
        cache.fill(i * kLineBytes, 0, false);

    uint64_t next = cfg.sizeBytes / kLineBytes;
    uint64_t cycle = 0;
    for (auto _ : state) {
        ++cycle;
        const Cache::LookupResult r =
            cache.lookupDemand(next * kLineBytes, cycle);
        cache.fill(next * kLineBytes, cycle + 30, false);
        ++next;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/access"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CacheProbeMiss)->Arg(32 * 1024)->Arg(2 * 1024 * 1024)
    ->UseRealTime();

/**
 * Hits on lines whose fill has not completed (MSHR-merge path): the
 * readyCycle compare goes the in-flight way and the prefetched-line
 * first-use tagging stays live. The branchy tail of the hit path.
 */
static void
BM_CacheProbeInflight(benchmark::State &state)
{
    CacheConfig cfg;
    Cache cache(cfg);
    const uint64_t resident = cfg.sizeBytes / kLineBytes / 2;
    // Far-future readyCycle: every hit is an in-flight merge.
    for (uint64_t i = 0; i < resident; ++i)
        cache.fill(i * kLineBytes, ~0ull, true);
    Rng rng(7);
    std::vector<uint64_t> lines(1 << 14);
    for (auto &l : lines)
        l = rng.below(resident) * kLineBytes;

    uint64_t cycle = 0;
    size_t i = 0;
    for (auto _ : state) {
        const Cache::LookupResult r =
            cache.lookupDemand(lines[i], ++cycle);
        i = (i + 1) & (lines.size() - 1);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/access"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CacheProbeInflight)->UseRealTime();

namespace {

/** One full bandit interaction: nextArm's score maximization over the
 *  flat arm arrays, the per-arm count update (DUCB's decay multiply /
 *  SW-UCB's window bookkeeping) and the reward fold. */
template <typename Policy>
void
runPolicySteps(benchmark::State &state, Policy &policy)
{
    Rng rng(99);
    for (auto _ : state) {
        const ArmId arm = policy.selectArm();
        policy.observeReward(0.5 + 0.001 * static_cast<double>(
                                               rng.below(1000)));
        benchmark::DoNotOptimize(arm);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/step"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

} // namespace

/**
 * The DUCB decision loop at the Table-7 arm count (11) and a widened
 * arm table (64): the per-arm score loop (hoisted log, flat r/n
 * arrays) plus the per-step discount multiply over every count.
 */
static void
BM_PolicyScores(benchmark::State &state)
{
    MabConfig cfg;
    cfg.numArms = static_cast<int>(state.range(0));
    Ducb policy(cfg);
    runPolicySteps(state, policy);
}
BENCHMARK(BM_PolicyScores)->Arg(11)->Arg(64)->UseRealTime();

/** SW-UCB variant: score loop plus the sliding-window eviction. */
static void
BM_PolicyScoresSwUcb(benchmark::State &state)
{
    MabConfig cfg;
    cfg.numArms = static_cast<int>(state.range(0));
    SwUcb policy(cfg, 128);
    runPolicySteps(state, policy);
}
BENCHMARK(BM_PolicyScoresSwUcb)->Arg(11)->Arg(64)->UseRealTime();

namespace {

/** Run a CoreModel in chunks, one chunk per benchmark iteration. */
void
runCoreChunks(benchmark::State &state, Prefetcher *pf)
{
    const AppProfile app = appByName("lbm06");
    SyntheticTrace trace(app);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, trace, pf);

    constexpr uint64_t kChunk = 20'000;
    uint64_t target = 0;
    for (auto _ : state) {
        target += kChunk;
        core.run(target);
        benchmark::DoNotOptimize(core.instructions());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kChunk));
    state.counters["ns/instr"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kChunk),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

} // namespace

/**
 * Full core inner loop with a plain stride prefetcher — the dominant
 * cost of single-core sweeps. Exercises the devirtualized trace
 * source and prefetcher dispatch plus the hoisted tracing branch.
 */
static void
BM_CoreStepStride(benchmark::State &state)
{
    StridePrefetcher pf(64, 1);
    runCoreChunks(state, &pf);
}
BENCHMARK(BM_CoreStepStride)->UseRealTime();

/** Core inner loop with the Bandit controller (devirtualized path). */
static void
BM_CoreStepBandit(benchmark::State &state)
{
    BanditPrefetchConfig cfg;
    cfg.hw.stepUnits = 125;
    BanditPrefetchController pf(cfg);
    runCoreChunks(state, &pf);
}
BENCHMARK(BM_CoreStepBandit)->UseRealTime();

/** No prefetcher: the floor — trace generation + hierarchy only. */
static void
BM_CoreStepNoPrefetch(benchmark::State &state)
{
    runCoreChunks(state, nullptr);
}
BENCHMARK(BM_CoreStepNoPrefetch)->UseRealTime();

/**
 * Live trace generation: SyntheticTrace::next() alone — RNG draws,
 * phase machinery, stream cursors. The per-record cost every run pays
 * without the arena.
 */
static void
BM_GeneratorNext(benchmark::State &state)
{
    SyntheticTrace trace(appByName("lbm06"));
    for (auto _ : state) {
        const TraceRecord rec = trace.next();
        benchmark::DoNotOptimize(rec);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/record"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GeneratorNext)->UseRealTime();

/**
 * Materialized replay: ReplaySource::next() — a bounds check, one
 * 16-byte load and a flag unpack. The per-record cost with an arena
 * hit; compare against BM_GeneratorNext for the per-record saving.
 */
static void
BM_ReplayNext(benchmark::State &state)
{
    const auto trace =
        MaterializedTrace::generate(appByName("lbm06"), 1 << 20);
    ReplaySource src(trace);
    for (auto _ : state) {
        if (src.position() >= src.size())
            src.reset();
        const TraceRecord rec = src.next();
        benchmark::DoNotOptimize(rec);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/record"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ReplayNext)->UseRealTime();

/**
 * Run construction on an arena hit: what a sweep task pays to get its
 * trace source once a sibling task has materialized the workload —
 * a fingerprint, one map lookup and a shared_ptr copy, instead of
 * regenerating the records.
 */
static void
BM_ArenaHitRunConstruction(benchmark::State &state)
{
    TraceArena &arena = TraceArena::global();
    arena.clear();
    const AppProfile app = appByName("lbm06");
    constexpr uint64_t kInstr = 1 << 16;
    arena.acquireTrace(app, kInstr); // warm: every iteration hits
    for (auto _ : state) {
        const auto src = makeRunSource(app, kInstr);
        benchmark::DoNotOptimize(src.get());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/run"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    arena.clear();
}
BENCHMARK(BM_ArenaHitRunConstruction)->UseRealTime();

/**
 * One SMT mix (gcc + lbm, default Table-5 geometry) under @p policy,
 * run for 100k cycles per iteration over materialized uop streams —
 * the per-cell work of the SMT sweeps, minus Hill Climbing's epoch
 * hook.
 */
static void
BM_SmtPipelineRun(benchmark::State &state, const PgPolicy &policy)
{
    constexpr uint64_t kCycles = 100'000;
    ThreadSource a(smtAppByName("gcc"), 1);
    ThreadSource b(smtAppByName("lbm"), 2);
    a.attachStream(acquireUopStream(a.params(), 1));
    b.attachStream(acquireUopStream(b.params(), 2));
    for (auto _ : state) {
        a.reset();
        b.reset();
        SmtPipeline pipe(SmtConfig{}, {&a, &b});
        pipe.setPolicy(policy);
        pipe.run(kCycles);
        benchmark::DoNotOptimize(pipe.committed(0));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kCycles));
    state.counters["ns/cycle"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kCycles),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
// ICount never gates; Choi (IC_1011) gates on the IQ, ROB and IRF.
BENCHMARK_CAPTURE(BM_SmtPipelineRun, ICount, icountPolicy())
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_SmtPipelineRun, Choi, choiPolicy())->UseRealTime();

namespace {

/** Records every access the core offers its L2 prefetcher. */
class AccessRecorder final : public Prefetcher
{
  public:
    explicit AccessRecorder(std::vector<PrefetchAccess> &out) : out_(out) {}

    void
    onAccess(const PrefetchAccess &access, std::vector<uint64_t> &) override
    {
        out_.push_back(access);
    }

    std::string name() const override { return "Recorder"; }
    uint64_t storageBytes() const override { return 0; }
    void reset() override {}

  private:
    std::vector<PrefetchAccess> &out_;
};

/** The first 2^16 L2 demand accesses of @p app with no prefetcher
 *  (default core and hierarchy), recorded once per app. */
const std::vector<PrefetchAccess> &
recordedL2Accesses(const std::string &app)
{
    static std::map<std::string, std::vector<PrefetchAccess>> cache;
    std::vector<PrefetchAccess> &acc = cache[app];
    if (!acc.empty())
        return acc;
    constexpr size_t kAccesses = 1 << 16;
    SyntheticTrace trace(appByName(app));
    AccessRecorder rec(acc);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, trace, &rec);
    for (uint64_t target = 100'000;
         acc.size() < kAccesses && target <= 100'000'000;
         target += 100'000)
        core.run(target);
    acc.resize(std::min(acc.size(), kAccesses));
    return acc;
}

/**
 * Prefetcher::onAccess alone, replaying a recorded L2 access stream:
 * the per-call training cost each prefetcher adds to every L2 demand
 * access. Each replay pass shifts cycles and instruction counts past
 * the previous one, so time keeps moving forward for the Bandit's
 * agent and Pythia's evaluation queue.
 */
void
BM_PrefetcherOnAccess(benchmark::State &state,
                      const std::function<std::unique_ptr<Prefetcher>()> &make,
                      const std::string &app)
{
    const std::vector<PrefetchAccess> &accesses = recordedL2Accesses(app);
    if (accesses.empty()) {
        state.SkipWithError("no L2 accesses recorded");
        return;
    }
    const std::unique_ptr<Prefetcher> pf = make();
    const uint64_t cycle_span = accesses.back().cycle + 1;
    const uint64_t instr_span = accesses.back().instrCount + 1;
    std::vector<uint64_t> out;
    size_t i = 0;
    uint64_t pass = 0;
    for (auto _ : state) {
        PrefetchAccess a = accesses[i];
        a.cycle += pass * cycle_span;
        a.instrCount += pass * instr_span;
        if (++i == accesses.size()) {
            i = 0;
            ++pass;
        }
        out.clear();
        pf->onAccess(a, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["ns/call"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

const bool kPrefetcherBenchmarksRegistered = [] {
    const std::pair<const char *,
                    std::function<std::unique_ptr<Prefetcher>()>>
        prefetchers[] = {
            {"Stream", [] { return std::make_unique<StreamPrefetcher>(); }},
            {"Stride",
             [] { return std::make_unique<StridePrefetcher>(64, 1); }},
            {"Bingo", [] { return std::make_unique<BingoPrefetcher>(); }},
            {"MLOP", [] { return std::make_unique<MlopPrefetcher>(); }},
            {"Pythia", [] { return std::make_unique<PythiaPrefetcher>(); }},
            {"Bandit",
             [] { return std::make_unique<BanditPrefetchController>(); }},
        };
    for (const auto &[name, make] : prefetchers) {
        for (const char *app : {"xalancbmk17", "mcf17"}) {
            benchmark::RegisterBenchmark(
                (std::string("BM_PrefetcherOnAccess/") + name + "/" + app)
                    .c_str(),
                [make = make, app = std::string(app)](
                    benchmark::State &state) {
                    BM_PrefetcherOnAccess(state, make, app);
                })
                ->UseRealTime();
        }
    }
    return true;
}();

} // namespace

BENCHMARK_MAIN();
