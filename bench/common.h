#ifndef MAB_BENCH_COMMON_H
#define MAB_BENCH_COMMON_H

/**
 * @file
 * Shared plumbing for the bench harness: prefetcher factory, run
 * helpers, and table formatting. Every bench binary regenerates one
 * table or figure of the paper (see DESIGN.md for the index) and
 * prints the same rows/series the paper reports.
 *
 * Scale: the paper simulates 1B instructions per trace and 150M
 * instructions per SMT thread; the harness defaults to ~1M-instruction
 * / ~1M-cycle runs so the full suite completes in minutes on one core.
 * Set MAB_BENCH_SCALE=<f> to multiply all run lengths (e.g. 10 for a
 * long run).
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "prefetch/bingo.h"
#include "prefetch/ensemble.h"
#include "prefetch/ipcp.h"
#include "prefetch/mlop.h"
#include "prefetch/pythia.h"
#include "prefetch/stride.h"
#include "sim/json.h"
#include "sim/parallel.h"
#include "sim/stats.h"
#include "sim/tracing.h"
#include "trace/replay.h"
#include "trace/suites.h"

namespace mab::bench {

/**
 * Testable core of argValue(): scan for @p flag and write the token
 * following it to @p out (nullptr when the flag is absent). Returns ""
 * on success, else a usage-error message — the flag appearing as the
 * final token (nothing to consume) or appearing twice (the two values
 * would silently shadow each other; the old code returned the first
 * and ignored the rest).
 */
inline std::string
findFlagValue(int argc, char **argv, const char *flag, const char **out)
{
    *out = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0)
            continue;
        if (i + 1 >= argc)
            return std::string("usage error: ") + flag +
                " needs a value";
        if (*out)
            return std::string("usage error: duplicate ") + flag;
        *out = argv[i + 1];
        ++i; // the flag consumes the next token
    }
    return "";
}

/** Strict base-10 signed parse: the whole token must be a number. */
inline bool
parseInt64(const char *text, int64_t *out)
{
    if (!text || *text == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0')
        return false;
    *out = v;
    return true;
}

/** Strict base-10 unsigned parse (seeds; rejects signs, suffixes and
 *  leading blanks — strtoull would skip " -1" to -1 and wrap it). */
inline bool
parseUint64(const char *text, uint64_t *out)
{
    if (!text || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0')
        return false;
    *out = v;
    return true;
}

/** Exiting half of every resolve*() core: print @p err and exit 2. */
inline void
exitOnUsageError(const std::string &err)
{
    if (err.empty())
        return;
    std::fprintf(stderr, "%s\n", err.c_str());
    std::exit(2);
}

/**
 * Testable core of benchScale(): the run-length multiplier in @p env
 * (MAB_BENCH_SCALE), 1.0 when unset. Anything but a whole-token finite
 * number above 0 is a usage error: a typo such as `abc` must not run
 * silently at full scale (100x the smoke budget), and `inf` has no
 * budget to scale to.
 */
inline std::string
resolveScale(const char *env, double *out)
{
    *out = 1.0;
    if (!env)
        return "";
    char *end = nullptr;
    errno = 0;
    const double f = std::strtod(env, &end);
    if (end == env || *end != '\0' || errno != 0 || !std::isfinite(f) ||
        f <= 0.0)
        return std::string("usage error: MAB_BENCH_SCALE needs a "
                           "finite number above 0, got '") +
            env + "'";
    *out = f;
    return "";
}

/**
 * Testable core of the trace arena's byte budget: MAB_TRACE_ARENA_MB
 * in @p env, a whole number of MiB; @p out keeps its value when
 * @p env is unset. A sign or a suffix is a usage error (`-1` must not
 * wrap to a 16 EiB budget, `512MB` must not fall back to the
 * default), and so is 2^44 MiB or more, whose byte count would wrap.
 */
inline std::string
resolveArenaBudget(const char *env, uint64_t *out)
{
    if (!env)
        return "";
    uint64_t mb = 0;
    if (!parseUint64(env, &mb) || mb >= (1ull << 44))
        return std::string("usage error: MAB_TRACE_ARENA_MB needs a "
                           "whole number of MiB below 2^44, got '") +
            env + "'";
    *out = mb << 20;
    return "";
}

/**
 * Testable core of the trace-arena switch: MAB_TRACE_ARENA in @p env,
 * `0` (off) or `1` (on); @p out keeps its value when @p env is unset.
 * Anything else is a usage error, so `off` or `false` cannot silently
 * leave the arena on.
 */
inline std::string
resolveArenaEnabled(const char *env, bool *out)
{
    if (!env)
        return "";
    if (std::strcmp(env, "0") != 0 && std::strcmp(env, "1") != 0)
        return std::string("usage error: MAB_TRACE_ARENA needs 0 or 1, "
                           "got '") +
            env + "'";
    *out = env[0] == '1';
    return "";
}

/** Global run-length multiplier (MAB_BENCH_SCALE, default 1.0); an
 *  invalid value exits 2. */
inline double
benchScale()
{
    double f = 1.0;
    exitOnUsageError(resolveScale(std::getenv("MAB_BENCH_SCALE"), &f));
    return f;
}

/** @p n * @p factor truncated to a budget: 0 for a non-positive or
 *  NaN product, saturating at UINT64_MAX (a double at or above 2^64
 *  has no uint64_t value, and converting one is undefined). */
inline uint64_t
scaleBudget(uint64_t n, double factor)
{
    const double v = static_cast<double>(n) * factor;
    if (!(v > 0.0))
        return 0;
    if (v >= 0x1p64)
        return UINT64_MAX;
    return static_cast<uint64_t>(v);
}

/** Scale an instruction/cycle budget by the global multiplier. */
inline uint64_t
scaled(uint64_t n)
{
    return scaleBudget(n, benchScale());
}

/**
 * Value following @p flag on the command line, else nullptr. A flag
 * with no value to return or given more than once is a usage error
 * and exits with status 2 (the old code silently ignored the flag,
 * which turned e.g. a forgotten `--json` path into a run with no
 * report at all).
 */
inline const char *
argValue(int argc, char **argv, const char *flag)
{
    const char *value = nullptr;
    exitOnUsageError(findFlagValue(argc, argv, flag, &value));
    return value;
}

/**
 * Sweep-execution record of this process: the job count the harness
 * chose and the wall-clock of every sweep task, in submission order.
 * Stamped into the "parallel" entry of every report's meta block so a
 * result file says how it was produced and where the time went.
 */
struct ParallelMeta
{
    int jobs = 1;
    std::vector<double> taskWallMs;
};

inline ParallelMeta &
parallelMeta()
{
    static ParallelMeta meta;
    return meta;
}

/**
 * Parallel width of the bench sweep: `--jobs N` on the command line,
 * else MAB_BENCH_JOBS, else 1 (serial, the pre-parallel behavior).
 * N = 0 selects the hardware concurrency. Call it after constructing
 * the TracingSession: when a trace or audit sink is open the sweep is
 * clamped to serial, because concurrent runs would interleave on the
 * shared virtual timeline (see sim/tracing.h:beginRun).
 *
 * Per-run simulation results do not depend on the choice: every sweep
 * task owns its trace, prefetcher, RNG and registry, and results are
 * aggregated in submission order (sim/parallel.h), so `--json` reports
 * are byte-identical across job counts modulo the meta block.
 *
 * A negative or non-numeric count is a usage error (exit 2) — the old
 * code silently clamped `--jobs -3` to 1 and, worse, atoi'd `--jobs
 * abc` to 0 and fanned out to every hardware thread. resolveJobs() is
 * the testable core: it reports the error instead of exiting.
 */
inline std::string
resolveJobs(int argc, char **argv, const char *env, int *out)
{
    *out = 1;
    const char *v = nullptr;
    const std::string err = findFlagValue(argc, argv, "--jobs", &v);
    if (!err.empty())
        return err;
    if (!v)
        v = env;
    if (!v)
        return "";
    int64_t jobs = 0;
    if (!parseInt64(v, &jobs) || jobs < 0)
        return std::string("usage error: --jobs needs a non-negative "
                           "integer, got '") +
            v + "'";
    *out = jobs == 0
        ? SweepRunner::hardwareJobs()
        : static_cast<int>(std::min<int64_t>(jobs, 1 << 16));
    return "";
}

inline int
benchJobs(int argc, char **argv)
{
    int jobs = 1;
    exitOnUsageError(
        resolveJobs(argc, argv, std::getenv("MAB_BENCH_JOBS"), &jobs));
    if (jobs > 1 && tracing::Tracer::global().enabled()) {
        std::printf(
            "tracing/audit sink open: serializing sweep (jobs 1)\n");
        jobs = 1;
    }
    parallelMeta().jobs = jobs;
    return jobs;
}

/**
 * Run the sweep { fn(0), ..., fn(n-1) } on @p jobs lanes and return
 * the results in submission order; the per-task wall-clock lands in
 * parallelMeta(). This is the one call every bench binary routes its
 * independent runs through: compute the task grid up front, simulate
 * through sweepMap, then print/aggregate serially as before.
 */
template <typename T, typename Fn>
std::vector<T>
sweepMap(int jobs, size_t n, Fn &&fn)
{
    SweepRunner runner(jobs);
    std::vector<T> results = runner.runAll<T>(n, std::forward<Fn>(fn));
    ParallelMeta &meta = parallelMeta();
    for (const SweepTaskStats &s : runner.lastTaskStats())
        meta.taskWallMs.push_back(static_cast<double>(s.wallNs) / 1e6);
    return results;
}

/**
 * sweepMap over a @p rows (workloads) x @p cols grid, returning
 * fn(row, col) at [row * cols + col]. Tasks run in blocks of @p jobs
 * rows, column by column: concurrent tasks materialize different
 * workloads' traces instead of waiting on one, and a row's traces are
 * reused within its block.
 */
template <typename T, typename Fn>
std::vector<T>
sweepGrid(int jobs, size_t rows, size_t cols, Fn &&fn)
{
    const size_t block = static_cast<size_t>(std::max(jobs, 1));
    const auto cell = [&](size_t i) {
        const size_t first = i / (block * cols) * block;
        const size_t width = std::min(block, rows - first);
        const size_t k = i - first * cols;
        return std::pair<size_t, size_t>(first + k % width, k / width);
    };
    std::vector<T> ran = sweepMap<T>(jobs, rows * cols, [&](size_t i) {
        const auto [row, col] = cell(i);
        return fn(row, col);
    });
    std::vector<T> out(ran.size());
    for (size_t i = 0; i < ran.size(); ++i) {
        const auto [row, col] = cell(i);
        out[row * cols + col] = std::move(ran[i]);
    }
    return out;
}

/**
 * Structured-output destination: `--json <path>` on the command line,
 * else the MAB_BENCH_JSON environment variable, else none. Every
 * bench binary keeps printing its human-readable table; the JSON file
 * is emitted alongside for machine consumption (diffing, plotting,
 * regression tracking).
 */
inline const char *
jsonOutPath(int argc, char **argv)
{
    if (const char *path = argValue(argc, argv, "--json"))
        return path;
    return std::getenv("MAB_BENCH_JSON");
}

/**
 * The Micro-Armed Bandit configuration the bench harness runs (the
 * paper's Table 6 hyperparameters retuned to the scaled runs; see the
 * comment in makePrefetcher()). Exposed so the run metadata block can
 * report exactly what produced a result.
 */
inline BanditPrefetchConfig
benchBanditConfig(uint64_t seed = 1)
{
    BanditPrefetchConfig cfg;
    cfg.mab.seed = seed;
    cfg.hw.stepUnits = 125;
    cfg.mab.c = 0.2;
    cfg.mab.gamma = 0.99;
    return cfg;
}

/**
 * Self-description block stamped into every `--json` report and trace
 * file (ISSUE 2 satellite): tool version, command line, run scale,
 * the bandit configuration and arm table, and the simulated machine.
 * Makes snapshots and traces interpretable without the producing
 * checkout.
 */
inline json::Value
runMetaJson(int argc, char **argv)
{
    json::Value meta = json::Value::object();
    meta["tool"] = "micro-armed-bandit-sim";
    meta["version"] = tracing::kToolVersion;
    json::Value cmd = json::Value::array();
    for (int i = 0; i < argc; ++i)
        cmd.push(argv[i]);
    meta["cmdline"] = std::move(cmd);
    meta["scale"] = benchScale();

    const BanditPrefetchConfig bandit = benchBanditConfig();
    json::Value b = json::Value::object();
    b["algorithm"] = toString(bandit.algorithm);
    b["numArms"] = bandit.mab.numArms;
    b["epsilon"] = bandit.mab.epsilon;
    b["c"] = bandit.mab.c;
    b["gamma"] = bandit.mab.gamma;
    b["normalizeRewards"] = bandit.mab.normalizeRewards;
    b["rrRestartProb"] = bandit.mab.rrRestartProb;
    b["seed"] = bandit.mab.seed;
    b["stepUnits"] = bandit.hw.stepUnits;
    b["stepUnitsRr"] = bandit.hw.stepUnitsRr;
    b["selectionLatencyCycles"] = bandit.hw.selectionLatencyCycles;
    meta["bandit"] = std::move(b);

    json::Value arms = json::Value::array();
    for (const PrefetchArm &arm : prefetchArmTable()) {
        json::Value a = json::Value::object();
        a["nextLine"] = arm.nextLineOn;
        a["strideDegree"] = arm.strideDegree;
        a["streamDegree"] = arm.streamDegree;
        arms.push(std::move(a));
    }
    meta["armTable"] = std::move(arms);

    const CoreConfig core;
    const HierarchyConfig hier;
    const DramConfig dram;
    json::Value sim = json::Value::object();
    sim["fetchWidth"] = core.fetchWidth;
    sim["robSize"] = core.robSize;
    sim["commitWidth"] = core.commitWidth;
    sim["branchMissPenalty"] = core.branchMissPenalty;
    sim["prefetchIssueLatency"] = core.prefetchIssueLatency;
    sim["l1Bytes"] = hier.l1.sizeBytes;
    sim["l2Bytes"] = hier.l2.sizeBytes;
    sim["llcBytes"] = hier.llc.sizeBytes;
    sim["mshrEntries"] = hier.mshrEntries;
    sim["prefetchQueueMax"] = hier.prefetchQueueMax;
    sim["dramMtps"] = dram.mtps;
    sim["dramBaseLatencyCycles"] = dram.baseLatencyCycles;
    meta["sim"] = std::move(sim);

    json::Value par = json::Value::object();
    par["jobs"] = parallelMeta().jobs;
    json::Value wall = json::Value::array();
    for (double ms : parallelMeta().taskWallMs)
        wall.push(ms);
    par["taskWallMs"] = std::move(wall);
    meta["parallel"] = std::move(par);

    const TraceArena::Stats arena = TraceArena::global().stats();
    json::Value ar = json::Value::object();
    ar["enabled"] = arena.enabled;
    ar["hits"] = arena.hits;
    ar["misses"] = arena.misses;
    ar["evictions"] = arena.evictions;
    ar["entries"] = arena.entries;
    ar["bytes"] = arena.bytes;
    ar["budgetBytes"] = arena.budgetBytes;
    ar["genMs"] = arena.genMs;
    ar["dir"] = arena.dir;
    ar["fileHits"] = arena.fileHits;
    ar["fileSpills"] = arena.fileSpills;
    ar["fileRejects"] = arena.fileRejects;
    meta["traceArena"] = std::move(ar);

    return meta;
}

/**
 * Testable core of the TracingSession's sampler period:
 * `--trace-granularity <cycles>`, else MAB_TRACE_GRANULARITY, else 0
 * (keep the tracer's default). The value must be a whole number of
 * cycles above 0: `abc` must not be silently ignored, and `-5` must
 * not wrap to ~1.8e19 cycles, a sampler that never fires.
 */
inline std::string
resolveTraceGranularity(int argc, char **argv, const char *env,
                        uint64_t *out)
{
    *out = 0;
    const char *v = nullptr;
    const std::string err =
        findFlagValue(argc, argv, "--trace-granularity", &v);
    if (!err.empty())
        return err;
    const char *source = "--trace-granularity";
    if (!v) {
        v = env;
        source = "MAB_TRACE_GRANULARITY";
    }
    if (!v)
        return "";
    uint64_t cycles = 0;
    if (!parseUint64(v, &cycles) || cycles == 0)
        return std::string("usage error: ") + source +
            " needs a positive number of cycles, got '" + v + "'";
    *out = cycles;
    return "";
}

/**
 * Observability session of one bench binary (the ISSUE 2 tentpole,
 * bench side). Construct it first thing in main():
 *
 *     --trace <path> / MAB_TRACE=<path>   Chrome-trace timeline (open
 *                                         in Perfetto or
 *                                         chrome://tracing); also
 *                                         enables the interval
 *                                         sampler and phase profiler
 *     --trace-granularity <cycles> /
 *       MAB_TRACE_GRANULARITY=<cycles>    sampler period (default 10k)
 *     --audit <path> / MAB_AUDIT=<path>   bandit decision audit log,
 *                                         one JSON record per step
 *     MAB_PROFILE=1                       phase profiler only (adds
 *                                         the "profile" subtree to
 *                                         --json reports)
 *     --no-trace-cache / MAB_TRACE_ARENA=0
 *                                         trace arena off (the variable
 *                                         takes 0 or 1)
 *     MAB_TRACE_ARENA_MB=<MiB>            trace-arena byte budget
 *                                         (default 512)
 *
 * The destructor finalizes all sinks; aborted runs are covered by the
 * tracer's atexit/signal flush hooks.
 */
class TracingSession
{
  public:
    TracingSession(int argc, char **argv)
    {
        TraceArena &arena = TraceArena::global();
        bool arena_on = arena.enabled();
        exitOnUsageError(resolveArenaEnabled(
            std::getenv("MAB_TRACE_ARENA"), &arena_on));
        // Valueless flag, so scanned directly (argValue consumes the
        // token after the flag); it wins over MAB_TRACE_ARENA=1.
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--no-trace-cache") == 0)
                arena_on = false;
        }
        arena.setEnabled(arena_on);
        uint64_t budget = arena.budgetBytes();
        exitOnUsageError(resolveArenaBudget(
            std::getenv("MAB_TRACE_ARENA_MB"), &budget));
        arena.setBudgetBytes(budget);

        tracing::Tracer &tracer = tracing::Tracer::global();

        uint64_t granularity = 0;
        exitOnUsageError(resolveTraceGranularity(
            argc, argv, std::getenv("MAB_TRACE_GRANULARITY"),
            &granularity));
        if (granularity != 0)
            tracer.setGranularity(granularity);

        const char *trace_path = argValue(argc, argv, "--trace");
        if (!trace_path)
            trace_path = std::getenv("MAB_TRACE");
        if (trace_path) {
            const json::Value meta = runMetaJson(argc, argv);
            if (!tracer.openTrace(trace_path, &meta))
                std::fprintf(stderr, "cannot open trace output: %s\n",
                             trace_path);
            else
                std::printf("tracing to %s\n", trace_path);
        }

        const char *audit_path = argValue(argc, argv, "--audit");
        if (!audit_path)
            audit_path = std::getenv("MAB_AUDIT");
        if (audit_path) {
            if (!tracer.openAudit(audit_path))
                std::fprintf(stderr, "cannot open audit output: %s\n",
                             audit_path);
            else
                std::printf("bandit audit log to %s\n", audit_path);
        }

        if (const char *profile = std::getenv("MAB_PROFILE")) {
            if (profile[0] != '\0' && profile[0] != '0')
                tracer.enableProfile();
        }
    }

    ~TracingSession() { tracing::Tracer::global().finalize(); }

    TracingSession(const TracingSession &) = delete;
    TracingSession &operator=(const TracingSession &) = delete;
};

/**
 * Write @p root to the destination selected by jsonOutPath(), if any.
 * A "meta" self-description block (runMetaJson) and — when the phase
 * profiler ran — a "profile" wall-clock breakdown are added to the
 * report unless the binary already set them. Returns false (and
 * reports on stderr) on I/O failure so binaries can exit nonzero.
 */
inline bool
writeJsonReport(const json::Value &root, int argc, char **argv)
{
    const char *path = jsonOutPath(argc, argv);
    if (!path)
        return true;
    std::FILE *f = std::fopen(path, "wb");
    if (!f) {
        std::fprintf(stderr, "cannot open json output: %s\n", path);
        return false;
    }
    json::Value report = root;
    if (!report.find("meta"))
        report["meta"] = runMetaJson(argc, argv);
    tracing::Tracer &tracer = tracing::Tracer::global();
    if (tracer.profileOn() && !report.find("profile"))
        report["profile"] = tracer.profileJson();
    const std::string text = report.dump(2);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    if (!ok || !closed) {
        std::fprintf(stderr, "short write on json output: %s\n", path);
        return false;
    }
    std::printf("json report written to %s\n", path);
    return true;
}

/** Names of the prefetchers compared in Figures 8/9/11/14. */
inline std::vector<std::string>
comparisonPrefetchers()
{
    return {"Stride", "Bingo", "MLOP", "Pythia", "Bandit"};
}

/**
 * Instantiate a prefetcher by report name. "Bandit" builds the DUCB
 * Micro-Armed Bandit controller; "Bandit:<algo>" selects another MAB
 * algorithm; "BanditIdeal" removes the 500-cycle selection latency.
 */
inline std::unique_ptr<Prefetcher>
makePrefetcher(const std::string &name, uint64_t seed = 1)
{
    if (name == "None")
        return std::make_unique<NullPrefetcher>();
    if (name == "Stride") {
        // The baseline IP-stride prefetcher [23] runs one stride
        // ahead of the demand stream.
        return std::make_unique<StridePrefetcher>(64, 1);
    }
    if (name == "Bingo")
        return std::make_unique<BingoPrefetcher>();
    if (name == "MLOP")
        return std::make_unique<MlopPrefetcher>();
    if (name == "IPCP")
        return std::make_unique<IpcpPrefetcher>();
    if (name == "Pythia") {
        PythiaConfig cfg;
        cfg.seed = seed * 31 + 7;
        return std::make_unique<PythiaPrefetcher>(cfg);
    }
    if (name == "Bandit" || name.rfind("Bandit:", 0) == 0 ||
        name == "BanditIdeal") {
        // The paper's hyperparameters (step = 1000 accesses,
        // c = 0.04, gamma = 0.999) were tuned for 1B-instruction
        // traces with tens of thousands of bandit steps. The scaled
        // runs take a few hundred steps, so the step shrinks
        // proportionally and (per the paper's own tune-set
        // procedure) c/gamma are retuned to the shorter horizon.
        BanditPrefetchConfig cfg = benchBanditConfig(seed);
        if (name == "BanditIdeal")
            cfg.hw.selectionLatencyCycles = 0;
        if (name.rfind("Bandit:", 0) == 0) {
            const std::string algo = name.substr(7);
            if (algo == "eGreedy")
                cfg.algorithm = MabAlgorithm::EpsilonGreedy;
            else if (algo == "UCB")
                cfg.algorithm = MabAlgorithm::Ucb;
            else if (algo == "DUCB")
                cfg.algorithm = MabAlgorithm::Ducb;
            else if (algo == "Single")
                cfg.algorithm = MabAlgorithm::Single;
            else if (algo == "Periodic")
                cfg.algorithm = MabAlgorithm::Periodic;
        }
        return std::make_unique<BanditPrefetchController>(cfg);
    }
    std::fprintf(stderr, "unknown prefetcher: %s\n", name.c_str());
    std::abort();
}

/** Result of one single-core prefetching run. */
struct PfRun
{
    double ipc = 0.0;
    PrefetchStats pf;
    uint64_t llcDemandMisses = 0;
    uint64_t l2DemandAccesses = 0;
    uint64_t instructions = 0;
};

/**
 * Run @p app with @p pf for @p instr instructions.
 *
 * @param seed When nonzero, overrides the profile's base seed for the
 *             synthetic trace, making the run's input stream — and
 *             therefore every exported counter — a pure function of
 *             (app, pf, instr, hier, dram, seed). Zero keeps
 *             app.seed, the per-workload default.
 */
inline PfRun
runPrefetch(const AppProfile &app, Prefetcher &pf, uint64_t instr,
            const HierarchyConfig &hier = {}, const DramConfig &dram = {},
            uint64_t seed = 0)
{
    AppProfile seeded = app;
    if (seed != 0)
        seeded.seed = seed;
    // Arena on: replay the workload's materialized records (generated
    // once per (profile, instr) across the whole sweep). Arena off:
    // replay a private materialization. Either way the core consumes
    // byte-identical records (trace/replay.h).
    const std::unique_ptr<ReplaySource> trace =
        makeRunSource(seeded, instr);
    CoreModel core(CoreConfig{}, hier, *trace, &pf, nullptr, dram);

    // Scope this run on the trace timeline ("app/prefetcher"), so a
    // whole bench sweep reads as back-to-back regions in Perfetto.
    tracing::Tracer &tracer = tracing::Tracer::global();
    tracer.beginRun(seeded.name + "/" + pf.name());

    // Offer the prefetcher the system probes the core can provide;
    // implementations that exploit one take it (Pythia's bandwidth
    // awareness), the rest inherit the no-op default.
    SystemProbes probes;
    Dram *d = &core.hierarchy().dram();
    probes.dramUtilization = [d](uint64_t cycle) {
        const uint64_t busy = d->busFreeCycle();
        if (busy <= cycle)
            return 0.0;
        const double backlog = static_cast<double>(busy - cycle);
        return backlog >= 500.0 ? 1.0 : backlog / 500.0;
    };
    pf.attachSystemProbes(probes);

    core.run(instr);
    tracer.endRun(core.cycles());

    PfRun r;
    r.ipc = core.ipc();
    r.pf = core.hierarchy().prefetchStats();
    r.llcDemandMisses = core.hierarchy().llcDemandMisses();
    r.l2DemandAccesses = core.hierarchy().l2DemandAccesses();
    r.instructions = core.instructions();
    return r;
}

/** Convenience: run by prefetcher name. A nonzero @p seed seeds both
 *  the trace and the prefetcher, for bit-reproducible runs. */
inline PfRun
runPrefetchNamed(const AppProfile &app, const std::string &pf_name,
                 uint64_t instr, const HierarchyConfig &hier = {},
                 const DramConfig &dram = {}, uint64_t seed = 0)
{
    auto pf = makePrefetcher(pf_name, seed != 0 ? seed : app.seed);
    return runPrefetch(app, *pf, instr, hier, dram, seed);
}

/**
 * One cell of a prefetching sweep, described as data so the task grid
 * can be built up front and run through sweepPrefetchRuns. Semantics
 * match runPrefetch/runPrefetchNamed exactly: a nonzero @p seed
 * overrides both the trace seed and the prefetcher seed.
 */
struct PfTask
{
    AppProfile app;
    std::string pf = "None"; ///< makePrefetcher() name
    uint64_t instr = 0;
    HierarchyConfig hier{};
    DramConfig dram{};
    uint64_t seed = 0; ///< nonzero overrides app.seed (runPrefetch)
    /** Custom prefetcher factory (e.g. Table 8's fixed-arm cells);
     *  when set, @p pf is ignored. */
    std::function<std::unique_ptr<Prefetcher>()> make;
};

/** One sweep cell: exactly runPrefetchNamed / runPrefetch. */
inline PfRun
runPfTask(const PfTask &t)
{
    const std::unique_ptr<Prefetcher> pf = t.make
        ? t.make()
        : makePrefetcher(t.pf, t.seed != 0 ? t.seed : t.app.seed);
    return runPrefetch(t.app, *pf, t.instr, t.hier, t.dram, t.seed);
}

/**
 * Run a prefetching sweep on @p jobs lanes through sweepMap: results
 * come back indexed exactly like the task grid, byte-identical at
 * every job count.
 */
inline std::vector<PfRun>
sweepPrefetchRuns(int jobs, const std::vector<PfTask> &tasks)
{
    return sweepMap<PfRun>(jobs, tasks.size(), [&](size_t i) {
        return runPfTask(tasks[i]);
    });
}

/** Print a horizontal rule sized to @p width. */
inline void
rule(int width)
{
    for (int i = 0; i < width; ++i)
        std::fputc('-', stdout);
    std::fputc('\n', stdout);
}

} // namespace mab::bench

#endif // MAB_BENCH_COMMON_H
