/**
 * Simulator benchmark: runs one named workload (a grid of independent
 * simulation cells) through the repository's SweepRunner and prints
 * one JSON object with host-time, simulated-result and correctness
 * figures. perfbench/run.py builds this program, pins its
 * environment and turns the object into the benchmark's result line.
 *
 *   mab_perfbench --workload pf_resident|pf_membound|smt_mix
 *                 --seed N --seconds S --trace 0|1
 *
 * Untraced (--trace 0): every cell calls the entry points users call
 * (makeRunSource + CoreModel::run with the named prefetcher;
 * SmtSimulator::runStatic / runBandit). Traced (--trace 1): untraced
 * and traced passes alternate; the traced passes time calls into each
 * layer's public functions from this file (a wrapping Prefetcher, a
 * DUCB policy subclass, a benchmark-driven SMT epoch loop and
 * stand-alone trace drains). Both modes fold every simulated output
 * of a cell into a fingerprint, so the traced run proves it changed
 * no simulated result.
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ducb.h"
#include "cpu/bandit_prefetch.h"
#include "cpu/core_model.h"
#include "prefetch/bingo.h"
#include "prefetch/mlop.h"
#include "prefetch/pythia.h"
#include "prefetch/stride.h"
#include "sim/json.h"
#include "sim/parallel.h"
#include "sim/stats_registry.h"
#include "smt/smt_sim.h"
#include "trace/replay.h"
#include "trace/suites.h"

extern char **environ;

using namespace mab;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

double
secondsSince(Clock::time_point t0)
{
    return static_cast<double>(nsSince(t0)) * 1e-9;
}

/** FNV-1a over bytes; cells fold their outputs through it. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
    void word(uint64_t v) { bytes(&v, sizeof v); }
    void real(double d) { word(std::bit_cast<uint64_t>(d)); }
    void text(const std::string &s) { bytes(s.data(), s.size()); }
};

/** Make a drained value observable so the drain loop is not elided. */
void
keepAlive(uint64_t v)
{
    static std::atomic<uint64_t> sink{0};
    sink.fetch_xor(v, std::memory_order_relaxed);
}

/** Read @p n records from @p src (its consumer's view of the trace). */
void
drainReplay(ReplaySource &src, uint64_t n)
{
    uint64_t acc = 0;
    for (uint64_t k = 0; k < n; ++k)
        acc ^= src.nextPacked().addr;
    keepAlive(acc);
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
splitmix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** The k-th input seed of a run seeded with @p seed (never zero: a
 *  zero seed means "keep the profile's own seed" to the repo). */
uint64_t
cellSeed(uint64_t seed, uint64_t k)
{
    return (splitmix(seed * 0x100000001b3ull + k) & 0x7fffffffull) | 1u;
}

// ---------------------------------------------------------------
// Workload grids
// ---------------------------------------------------------------

const std::vector<std::string> kPrefetchers = {
    "None", "Stride", "Bingo", "MLOP", "Pythia", "Bandit"};

enum class SmtRegime { ICount, Choi, Bandit };

/** One cell of a workload grid. */
struct Cell
{
    // Prefetch cells.
    AppProfile app;
    std::string pf;
    uint64_t instr = 0;
    DramConfig dram;
    // SMT cells.
    std::string app0, app1;
    SmtRegime regime = SmtRegime::ICount;
    SmtRunConfig smt;
    uint64_t seed = 0;
    bool isSmt = false;
};

struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    /** Baseline the Bandit is compared with ("Stride", "Choi"). */
    std::string baseline;
};

/** SweepRunner width: the reference host's nproc, fixed so figures
 *  from one host compare across runs. */
constexpr int kPoolThreads = 4;
/** Set-up rounds per run; setup_s is their median. */
constexpr int kSetups = 9;

/** Instructions per prefetch cell: the full-scale fig8 run length. */
constexpr uint64_t kPfInstr = 1'000'000;
/** Cycles per SMT cell: covers the bandit's 24-epoch round-robin
 *  phase plus 100+ main-loop steps of 2 epochs x 4096 cycles. */
constexpr uint64_t kSmtCycles = 1'000'000;

Workload
prefetchWorkload(const std::string &name,
                 const std::vector<std::string> &apps, int seeds,
                 double mtps, uint64_t seed)
{
    Workload w{name, {}, "Stride"};
    for (int s = 0; s < seeds; ++s) {
        const uint64_t cs = cellSeed(seed, static_cast<uint64_t>(s));
        for (const std::string &a : apps) {
            for (const std::string &pf : kPrefetchers) {
                Cell c;
                c.app = appByName(a);
                c.app.seed = cs;
                c.pf = pf;
                c.instr = kPfInstr;
                c.dram.mtps = mtps;
                c.seed = cs;
                w.cells.push_back(std::move(c));
            }
        }
    }
    return w;
}

Workload
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "pf_resident") {
        // Working set fits the modelled L2 (xalancbmk, exchange2) or
        // the LLC (deepsjeng's 512KB phase).
        return prefetchWorkload(
            name, {"xalancbmk17", "exchange17", "deepsjeng17"}, 6,
            2400.0, seed);
    }
    if (name == "pf_membound") {
        // Large-footprint irregular and streaming apps on the fig10
        // 600 MT/s channel.
        return prefetchWorkload(
            name,
            {"mcf17", "lbm17", "ligra_bfs", "ligra_pagerank",
             "ligra_components", "ligra_bc", "ligra_radii",
             "ligra_triangle", "parsec_canneal", "cloud_cassandra",
             "cloud_classification", "cloud_cloud9", "cloud_nutch"},
            2, 600.0, seed);
    }
    if (name == "smt_mix") {
        Workload w{name, {}, "Choi"};
        const uint64_t cs = cellSeed(seed, 0);
        for (const auto &[a, b] : smtMixes(36, 9)) {
            for (SmtRegime r : {SmtRegime::ICount, SmtRegime::Choi,
                                SmtRegime::Bandit}) {
                Cell c;
                c.isSmt = true;
                c.app0 = a;
                c.app1 = b;
                c.regime = r;
                c.smt.maxCycles = kSmtCycles;
                c.smt.seed = cs;
                c.seed = cs;
                w.cells.push_back(std::move(c));
            }
        }
        return w;
    }
    throw std::invalid_argument("unknown workload: " + name);
}

const char *
cellLabel(const Cell &c)
{
    if (!c.isSmt)
        return c.pf.c_str();
    switch (c.regime) {
      case SmtRegime::ICount: return "ICount";
      case SmtRegime::Choi: return "Choi";
      case SmtRegime::Bandit: return "Bandit";
    }
    return "?";
}

// ---------------------------------------------------------------
// Layer wrappers (traced passes only)
// ---------------------------------------------------------------

/** DUCB whose selectArm / observeReward calls are timed. */
class TimedDucb final : public Ducb
{
  public:
    using Ducb::Ducb;

    ArmId
    selectArm() override
    {
        const auto t0 = Clock::now();
        const ArmId a = Ducb::selectArm();
        ns += nsSince(t0);
        ++selects;
        if (a != last)
            ++switches;
        last = a;
        return a;
    }

    void
    observeReward(double r) override
    {
        const auto t0 = Clock::now();
        Ducb::observeReward(r);
        ns += nsSince(t0);
        ++observes;
    }

    uint64_t ns = 0;
    uint64_t selects = 0;
    uint64_t observes = 0;
    uint64_t switches = 0;

  private:
    ArmId last = kNoArm;
};

/** Forwards every call to the wrapped prefetcher, timing onAccess. */
class TimedPrefetcher final : public Prefetcher
{
  public:
    explicit TimedPrefetcher(std::unique_ptr<Prefetcher> inner)
        : inner_(std::move(inner))
    {
    }

    void
    onAccess(const PrefetchAccess &access,
             std::vector<uint64_t> &out) override
    {
        const auto t0 = Clock::now();
        inner_->onAccess(access, out);
        ns += nsSince(t0);
        ++calls;
    }

    std::string name() const override { return inner_->name(); }
    uint64_t storageBytes() const override
    {
        return inner_->storageBytes();
    }
    void reset() override { inner_->reset(); }
    void
    attachSystemProbes(const SystemProbes &probes) override
    {
        inner_->attachSystemProbes(probes);
    }

    uint64_t ns = 0;
    uint64_t calls = 0;

  private:
    std::unique_ptr<Prefetcher> inner_;
};

/** Bandit prefetch configuration of the repo's scaled sweeps: DUCB
 *  over the 11-arm ensemble, 125-access steps, c = 0.2, gamma = 0.99
 *  (the paper's values retuned to the shorter horizon). */
MabConfig
banditMabConfig(uint64_t seed)
{
    MabConfig mab = BanditPrefetchConfig{}.mab;
    mab.numArms = BanditEnsemblePrefetcher::numArms();
    mab.seed = seed;
    mab.c = 0.2;
    mab.gamma = 0.99;
    return mab;
}

BanditHwConfig
banditHwConfig()
{
    BanditHwConfig hw = BanditPrefetchConfig{}.hw;
    hw.stepUnits = 125;
    return hw;
}

/** @p policy non-null: the Bandit is built over a TimedDucb and the
 *  pointer is returned through it. */
std::unique_ptr<Prefetcher>
makePrefetcher(const Cell &c, TimedDucb **policy)
{
    if (c.pf == "None")
        return std::make_unique<NullPrefetcher>();
    if (c.pf == "Stride")
        return std::make_unique<StridePrefetcher>(64, 1);
    if (c.pf == "Bingo")
        return std::make_unique<BingoPrefetcher>();
    if (c.pf == "MLOP")
        return std::make_unique<MlopPrefetcher>();
    if (c.pf == "Pythia") {
        PythiaConfig cfg;
        cfg.seed = c.seed * 31 + 7;
        return std::make_unique<PythiaPrefetcher>(cfg);
    }
    if (c.pf == "Bandit") {
        std::unique_ptr<MabPolicy> p;
        if (policy) {
            auto timed = std::make_unique<TimedDucb>(banditMabConfig(c.seed));
            *policy = timed.get();
            p = std::move(timed);
        } else {
            p = std::make_unique<Ducb>(banditMabConfig(c.seed));
        }
        return std::make_unique<BanditPrefetchController>(
            std::move(p), banditHwConfig());
    }
    throw std::invalid_argument("unknown prefetcher: " + c.pf);
}

/** Pythia's bandwidth probe, wired as the repo's sweeps wire it. */
void
attachDramProbe(CoreModel &core, Prefetcher &pf)
{
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
}

// ---------------------------------------------------------------
// Cells
// ---------------------------------------------------------------

/** Host time (ns) and counts one traced cell attributes to layers. */
struct Layers
{
    uint64_t runNs = 0;       ///< CoreModel::run
    uint64_t pfNs = 0;        ///< wrapped Prefetcher::onAccess
    uint64_t pfCalls = 0;
    uint64_t coreNs = 0;      ///< MabPolicy select + observe
    uint64_t coreScopes = 0;  ///< timed select + observe calls
    uint64_t coreSelects = 0;
    uint64_t coreSwitches = 0;
    uint64_t smtCycleNs = 0;  ///< SmtPipeline::run
    uint64_t smtEpochNs = 0;  ///< HillClimbing + BanditPgSelector
    uint64_t smtEpochs = 0;
    uint64_t fetched[2] = {0, 0}; ///< uops each SMT lane consumed
};

struct CellResult
{
    bool ok = false;
    std::string error;
    uint64_t fingerprint = 0;
    double ms = 0.0;
    uint64_t simInstr = 0;
    double ipc = 0.0;
    StatsRegistry stats;
    Layers layers;
};

uint64_t
fingerprintOf(const StatsRegistry &reg, double ipc)
{
    Fnv f;
    f.text(reg.toJsonString(0));
    f.real(ipc);
    return f.h;
}

/** Checks no fingerprint can express: the run did what was asked. */
void
checkPrefetchCell(const Cell &c, const CoreModel &core)
{
    const CacheHierarchy &h = core.hierarchy();
    if (core.instructions() != c.instr)
        throw std::runtime_error("committed instruction count differs");
    if (!(core.ipc() > 0.0) || !std::isfinite(core.ipc()))
        throw std::runtime_error("IPC is not finite and positive");
    uint64_t served = 0;
    for (HitLevel l : {HitLevel::L1, HitLevel::L2, HitLevel::Llc,
                       HitLevel::Dram})
        served += h.hitsAt(l);
    if (served - h.hitsAt(HitLevel::L1) != h.l2DemandAccesses())
        throw std::runtime_error("L2 demand accesses not conserved");
}

void
runPrefetchCell(const Cell &c, bool traced, CellResult &r)
{
    TimedDucb *policy = nullptr;
    std::unique_ptr<Prefetcher> pf =
        makePrefetcher(c, traced ? &policy : nullptr);
    TimedPrefetcher *timed = nullptr;
    if (traced) {
        auto w = std::make_unique<TimedPrefetcher>(std::move(pf));
        timed = w.get();
        pf = std::move(w);
    }
    const std::unique_ptr<TraceSource> trace =
        makeRunSource(c.app, c.instr);
    CoreModel core(CoreConfig{}, HierarchyConfig{}, *trace, pf.get(),
                   nullptr, c.dram);
    attachDramProbe(core, *pf);

    const auto t0 = Clock::now();
    core.run(c.instr);
    r.layers.runNs = nsSince(t0);

    checkPrefetchCell(c, core);
    core.exportStats(r.stats, "core");
    r.ipc = core.ipc();
    r.simInstr = core.instructions();
    if (timed) {
        r.layers.pfNs = timed->ns;
        r.layers.pfCalls = timed->calls;
    }
    if (policy) {
        r.layers.coreNs = policy->ns;
        r.layers.coreScopes = policy->selects + policy->observes;
        r.layers.coreSelects = policy->selects;
        r.layers.coreSwitches = policy->switches;
    }
}

SmtBanditConfig
smtBanditConfig(const Cell &c)
{
    SmtBanditConfig cfg;
    cfg.mab.seed = c.seed;
    return cfg;
}

PgPolicy
smtStaticPolicy(const Cell &c)
{
    return c.regime == SmtRegime::Choi ? choiPolicy() : icountPolicy();
}

/** Lane seeds exactly as SmtSimulator derives them. */
uint64_t
laneSeed(const Cell &c, int lane)
{
    return c.smt.seed * 0x9E37u + 1 + static_cast<uint64_t>(lane);
}

/**
 * The traced SMT cell: SmtSimulator::runStatic / runBandit's loop,
 * driven from here so pipeline cycles and epoch decisions are timed
 * apart. Records and exports the same values the simulator does.
 */
void
runSmtCellTraced(const Cell &c, StatsRegistry &reg, Layers &lay,
                 SmtRunResult &res)
{
    ThreadSource src0(smtAppByName(c.app0), laneSeed(c, 0));
    ThreadSource src1(smtAppByName(c.app1), laneSeed(c, 1));
    src0.attachStream(acquireUopStream(src0.params(), laneSeed(c, 0)));
    src1.attachStream(acquireUopStream(src1.params(), laneSeed(c, 1)));

    const SmtConfig pipeCfg;
    SmtPipeline pipe(pipeCfg, {&src0, &src1});
    HillClimbing hc({pipeCfg.iqSize, c.smt.hcDelta});
    const bool bandit = c.regime == SmtRegime::Bandit;
    std::unique_ptr<BanditPgSelector> selector;
    if (bandit) {
        selector = std::make_unique<BanditPgSelector>(smtBanditConfig(c));
        pipe.setPolicy(selector->currentPolicy());
    } else {
        pipe.setPolicy(smtStaticPolicy(c));
    }
    pipe.setShares({hc.share(0), hc.share(1)});

    uint64_t switches = 0;
    uint64_t epochStartInstr = 0;
    const uint64_t epoch = c.smt.hcEpochCycles;
    for (uint64_t done = 0; done < c.smt.maxCycles;) {
        const uint64_t n = std::min(epoch - done % epoch,
                                    c.smt.maxCycles - done);
        auto t0 = Clock::now();
        pipe.run(n);
        lay.smtCycleNs += nsSince(t0);
        done += n;
        if (done % epoch != 0)
            continue;
        t0 = Clock::now();
        const uint64_t instr = pipe.committed(0) + pipe.committed(1);
        hc.endEpoch(static_cast<double>(instr - epochStartInstr) /
                    static_cast<double>(epoch));
        epochStartInstr = instr;
        if (selector) {
            const auto t1 = Clock::now();
            const bool changed = selector->onEpochEnd(instr, done, hc);
            lay.coreNs += nsSince(t1);
            ++lay.coreScopes;
            if (changed) {
                pipe.setPolicy(selector->currentPolicy());
                ++switches;
            }
        }
        pipe.setShares({hc.share(0), hc.share(1)});
        lay.smtEpochNs += nsSince(t0);
        ++lay.smtEpochs;
    }

    res.ipc = {pipe.ipc(0), pipe.ipc(1)};
    res.ipcSum = res.ipc[0] + res.ipc[1];
    res.cycles = pipe.cycles();
    res.rename = pipe.renameStats();
    pipe.exportStats(reg, "smt");
    reg.setCounter("smt.policySwitches", switches);
    if (selector) {
        selector->agent().exportStats(reg, "bandit");
        lay.coreSelects = selector->agent().policy().steps();
        lay.coreSwitches = switches;
    }
}

void
runSmtCell(const Cell &c, bool traced, CellResult &r)
{
    SmtRunResult res;
    if (traced) {
        runSmtCellTraced(c, r.stats, r.layers, res);
    } else {
        SmtSimulator sim(c.app0, c.app1, c.smt);
        res = c.regime == SmtRegime::Bandit
            ? sim.runBandit(smtBanditConfig(c), &r.stats)
            : sim.runStatic(smtStaticPolicy(c), &r.stats);
    }
    const RenameStats &rn = res.rename;
    if (res.cycles != c.smt.maxCycles)
        throw std::runtime_error("SMT run stopped early");
    if (rn.stalled + rn.idle + rn.running != res.cycles)
        throw std::runtime_error("rename cycles not conserved");
    if (!(res.ipcSum > 0.0) || !std::isfinite(res.ipcSum))
        throw std::runtime_error("IPC is not finite and positive");
    r.ipc = res.ipcSum;
    for (int t = 0; t < 2; ++t) {
        const std::string th = "smt.thread" + std::to_string(t);
        r.simInstr += r.stats.counter(th + ".committed").value();
        r.layers.fetched[t] = r.stats.counter(th + ".fetched").value();
    }
}

CellResult
runCell(const Cell &c, bool traced)
{
    CellResult r;
    const auto t0 = Clock::now();
    try {
        if (c.isSmt)
            runSmtCell(c, traced, r);
        else
            runPrefetchCell(c, traced, r);
        r.fingerprint = fingerprintOf(r.stats, r.ipc);
        r.ok = true;
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    r.ms = static_cast<double>(nsSince(t0)) * 1e-6;
    return r;
}

// ---------------------------------------------------------------
// Set-up: stream materialization
// ---------------------------------------------------------------

/** Uops each SMT lane stream is materialized to before timing (one
 *  per cycle; lanes that fetch more extend lazily on first use, as
 *  they do in the repo's SMT sweeps). */
constexpr uint64_t kSmtPrefetchedUops = kSmtCycles;

struct SetupResult
{
    double seconds = 0.0;
    uint64_t records = 0; ///< trace records + uops materialized
};

SetupResult
setup(const Workload &w, SweepRunner &pool)
{
    TraceArena::global().clear();
    const auto t0 = Clock::now();

    // Distinct streams of the grid: one per (profile, seed) on the
    // prefetch side, one per (app, lane seed) on the SMT side.
    std::vector<const Cell *> streams;
    std::vector<std::pair<std::string, uint64_t>> smtLanes;
    for (const Cell &c : w.cells) {
        if (c.isSmt) {
            for (int lane = 0; lane < 2; ++lane) {
                std::pair<std::string, uint64_t> key{
                    lane == 0 ? c.app0 : c.app1, laneSeed(c, lane)};
                if (std::find(smtLanes.begin(), smtLanes.end(), key) ==
                    smtLanes.end())
                    smtLanes.push_back(key);
            }
        } else if (std::none_of(streams.begin(), streams.end(),
                                [&](const Cell *s) {
                                    return s->app.name == c.app.name &&
                                        s->app.seed == c.app.seed;
                                })) {
            streams.push_back(&c);
        }
    }

    const size_t n = streams.size() + smtLanes.size();
    const std::vector<uint64_t> records =
        pool.runAll<uint64_t>(n, [&](size_t i) -> uint64_t {
            if (i < streams.size()) {
                const Cell &c = *streams[i];
                const std::unique_ptr<TraceSource> src =
                    makeRunSource(c.app, c.instr);
                auto *replay = dynamic_cast<ReplaySource *>(src.get());
                if (!replay)
                    throw std::runtime_error("trace arena is off");
                drainReplay(*replay, c.instr);
                return c.instr;
            }
            const auto &[app, seed] = smtLanes[i - streams.size()];
            const auto stream =
                acquireUopStream(smtAppByName(app), seed);
            const uint64_t chunks =
                (kSmtPrefetchedUops + UopStream::kChunkUops - 1) /
                UopStream::kChunkUops;
            stream->chunk(chunks - 1);
            return chunks * UopStream::kChunkUops;
        });

    SetupResult s;
    s.seconds = secondsSince(t0);
    for (uint64_t r : records)
        s.records += r;
    return s;
}

// ---------------------------------------------------------------
// Trace-layer drains (traced run)
// ---------------------------------------------------------------

/** Drain the records/uops a cell consumed from a fresh source over
 *  the same materialized stream; returns host ns. */
uint64_t
drainCell(const Cell &c, const Layers &lay)
{
    const auto t0 = Clock::now();
    if (c.isSmt) {
        for (int lane = 0; lane < 2; ++lane) {
            ThreadSource src(smtAppByName(lane == 0 ? c.app0 : c.app1),
                             laneSeed(c, lane));
            src.attachStream(
                acquireUopStream(src.params(), laneSeed(c, lane)));
            uint64_t acc = 0;
            for (uint64_t k = 0; k < lay.fetched[lane]; ++k)
                acc += src.next().execLatency;
            keepAlive(acc);
        }
    } else {
        const std::unique_ptr<TraceSource> src =
            makeRunSource(c.app, c.instr);
        drainReplay(dynamic_cast<ReplaySource &>(*src), c.instr);
    }
    return nsSince(t0);
}

/**
 * Cost of one timed scope (t0 = now(); ... ns += nsSince(t0)): @c own
 * is what an empty scope reports as its own duration, @c total what
 * it adds to an enclosing measurement.
 */
struct ScopeCost
{
    double own = 0.0;
    double total = 0.0;
};

ScopeCost
measureScopeCost()
{
    constexpr int kN = 200000;
    uint64_t own = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kN; ++i)
        own += nsSince(Clock::now());
    ScopeCost c;
    c.total = static_cast<double>(nsSince(t0)) / kN;
    c.own = static_cast<double>(own) / kN;
    return c;
}

// ---------------------------------------------------------------
// Reporting helpers
// ---------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Clear every MAB_* variable: none may pick the code path. */
void
pinEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "MAB_", 4) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq ? eq - *e : std::strlen(*e));
        }
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    TraceArena &arena = TraceArena::global();
    arena.setEnabled(true);
    arena.setDir("");
    arena.setBudgetBytes(uint64_t{16} << 30);
}

struct Pass
{
    bool traced = false;
    double wallS = 0.0;
    std::vector<CellResult> cells;
};

/**
 * Per-layer figures of a traced run. Host times and counts come from
 * the first traced pass; the tracing overhead compares the traced and
 * untraced pass walls.
 */
json::Value
perLayer(const Workload &w, std::vector<Pass> &passes, SweepRunner &pool,
         const std::vector<double> &setupS, const SetupResult &setupRes,
         uint64_t arenaBytes, const std::vector<double> &untracedWalls)
{
    Pass *tp = nullptr;
    std::vector<double> tracedWalls;
    for (Pass &p : passes) {
        if (!p.traced)
            continue;
        tracedWalls.push_back(p.wallS);
        if (!tp)
            tp = &p;
    }
    const size_t n = w.cells.size();

    // Trace layer: each cell's consumed records or uops, drained
    // alone from a fresh source over the same materialized stream.
    const std::vector<uint64_t> drainNs = pool.runAll<uint64_t>(
        n, [&](size_t i) { return drainCell(w.cells[i], tp->cells[i].layers); });
    const ScopeCost scope = measureScopeCost();

    double cellNs = 0, maxCellMs = 0;
    double pfRecords = 0, pfDrainNs = 0, uops = 0, uopDrainNs = 0;
    double instr = 0, cycles = 0, robOcc = 0, mlp = 0, cpuNs = 0;
    double l1h = 0, l1m = 0, l2h = 0, l2m = 0, llcMiss = 0;
    double mshrSum = 0, mshrN = 0, pfqSum = 0, pfqN = 0;
    double busBusy = 0, transfers = 0;
    double issued = 0, timely = 0, late = 0, dropped = 0;
    double pfNs = 0, pfCalls = 0, coreNs = 0, coreScopes = 0;
    double selects = 0, switches = 0;
    double smtCycles = 0, smtCycleNs = 0, smtEpochNs = 0, epochs = 0;
    double stalled = 0, idle = 0, running = 0;
    std::map<std::string, std::pair<double, double>> perPf;
    int pfCells = 0;
    for (size_t i = 0; i < n; ++i) {
        const Cell &c = w.cells[i];
        CellResult &r = tp->cells[i];
        const Layers &l = r.layers;
        StatsRegistry &st = r.stats;
        const auto cnt = [&](const std::string &k) {
            return st.contains(k)
                ? static_cast<double>(st.counter(k).value()) : 0.0;
        };
        const auto scl = [&](const std::string &k) {
            return st.contains(k) ? st.scalar(k).value() : 0.0;
        };
        const auto d = [](uint64_t v) { return static_cast<double>(v); };
        cellNs += r.ms * 1e6;
        maxCellMs = std::max(maxCellMs, r.ms);
        selects += d(l.coreSelects);
        switches += d(l.coreSwitches);
        coreNs += d(l.coreNs) - d(l.coreScopes) * scope.own;
        coreScopes += d(l.coreScopes);
        if (c.isSmt) {
            uops += d(l.fetched[0] + l.fetched[1]);
            uopDrainNs += d(drainNs[i]);
            smtCycles += cnt("smt.cycles");
            smtCycleNs += d(l.smtCycleNs);
            smtEpochNs += d(l.smtEpochNs);
            epochs += d(l.smtEpochs);
            stalled += cnt("smt.rename.stalled");
            idle += cnt("smt.rename.idle");
            running += cnt("smt.rename.running");
            continue;
        }
        ++pfCells;
        pfRecords += d(c.instr);
        pfDrainNs += d(drainNs[i]);
        instr += cnt("core.instructions");
        cycles += cnt("core.cycles");
        robOcc += scl("core.robOccupancy");
        mlp += scl("core.mlp");
        l1h += cnt("core.mem.l1.demandHits");
        l1m += cnt("core.mem.l1.demandMisses");
        l2h += cnt("core.mem.l2.demandHits");
        l2m += cnt("core.mem.l2.demandMisses");
        llcMiss += cnt("core.mem.llcDemandMisses");
        mshrSum += scl("core.mem.mshr.meanOccupancy") *
            cnt("core.mem.mshr.samples");
        mshrN += cnt("core.mem.mshr.samples");
        pfqSum += scl("core.mem.prefetchQueue.meanOccupancy") *
            cnt("core.mem.prefetchQueue.samples");
        pfqN += cnt("core.mem.prefetchQueue.samples");
        busBusy += scl("core.mem.dram.busBusyCycles");
        transfers += cnt("core.mem.dram.transfers");
        issued += cnt("core.mem.pf.issued");
        timely += cnt("core.mem.pf.timely");
        late += cnt("core.mem.pf.late");
        dropped += cnt("core.mem.pf.dropped");
        // Prefetcher time net of its own scope and of the policy
        // scopes nested in it (the Bandit's).
        const double pfNet = d(l.pfNs) - d(l.pfCalls) * scope.own -
            d(l.coreScopes) * (scope.total - scope.own);
        pfNs += pfNet;
        pfCalls += d(l.pfCalls);
        // cpu + memory: CoreModel::run minus the wrapped prefetcher
        // (with its timing scopes) and the trace records at their
        // stand-alone drain rate.
        cpuNs += d(l.runNs) - d(l.pfNs) -
            d(l.pfCalls) * (scope.total - scope.own) - d(drainNs[i]);
        auto &slot = perPf[c.pf];
        slot.first += pfNet;
        slot.second += d(l.pfCalls);
    }

    json::Value m = json::Value::object();
    m["trace.setup_ms"] = median(setupS) * 1e3;
    m["trace.records"] = static_cast<double>(setupRes.records);
    m["trace.arena_bytes"] = static_cast<double>(arenaBytes);
    m["trace.replay_ns_per_record"] = ratio(pfDrainNs, pfRecords);
    m["trace.uop_replay_ns_per_uop"] = ratio(uopDrainNs, uops);
    m["cpu.instructions"] = instr;
    m["cpu.step_ns_per_instr"] = ratio(cpuNs, instr);
    m["cpu.ipc"] = ratio(instr, cycles);
    m["cpu.rob_occupancy"] = pfCells ? robOcc / pfCells : 0.0;
    m["cpu.mlp"] = pfCells ? mlp / pfCells : 0.0;
    m["memory.l1.demand_hit_rate"] = ratio(l1h, l1h + l1m);
    m["memory.l2.demand_hit_rate"] = ratio(l2h, l2h + l2m);
    m["memory.llc.demand_mpki"] = ratio(llcMiss * 1000.0, instr);
    m["memory.mshr.mean_occupancy"] = ratio(mshrSum, mshrN);
    m["memory.pfq.mean_occupancy"] = ratio(pfqSum, pfqN);
    m["memory.dram.bus_utilization"] = ratio(busBusy, cycles);
    m["memory.dram.transfers"] = transfers;
    for (const std::string &pf : kPrefetchers) {
        if (pf == "None")
            continue;
        const auto it = perPf.find(pf);
        m["prefetch." + pf + ".ns_per_call"] = it == perPf.end()
            ? 0.0 : ratio(it->second.first, it->second.second);
    }
    m["prefetch.on_access_calls"] = pfCalls;
    m["prefetch.accuracy"] = ratio(timely + late, issued);
    m["prefetch.late_frac"] = ratio(late, timely + late);
    m["prefetch.dropped_frac"] = ratio(dropped, issued + dropped);
    m["core.select_calls"] = selects;
    // The SMT selector builds its policy internally, so on smt_mix
    // the bandit step is timed as whole BanditPgSelector::onEpochEnd
    // calls (agent tick plus the Hill Climbing context switch).
    m["core.update_ns_per_step"] = ratio(coreNs, selects);
    m["core.arm_switches"] = switches;
    m["smt.cycles"] = smtCycles;
    m["smt.cycle_ns"] = ratio(smtCycleNs, smtCycles);
    m["smt.epoch_ns"] = ratio(smtEpochNs, epochs);
    m["smt.rename.stalled_frac"] = ratio(stalled, smtCycles);
    m["smt.rename.idle_frac"] = ratio(idle, smtCycles);
    m["smt.rename.running_frac"] = ratio(running, smtCycles);
    m["smt.policy_switches"] = pfCells ? 0.0 : switches;
    m["sim.pool_threads"] = kPoolThreads;
    m["sim.pool_busy_frac"] = ratio(cellNs * 1e-9, tp->wallS * kPoolThreads);
    m["sim.cell_ms_max"] = maxCellMs;
    m["sim.trace_overhead_pct"] =
        (ratio(median(tracedWalls), median(untracedWalls)) - 1.0) * 100.0;
    m["sim.clock_scope_ns"] = scope.total;
    // Shares of the traced pass's summed cell time, net of the
    // timing scopes themselves.
    const double net = cellNs - (pfCalls + coreScopes) * scope.total;
    // The SMT pipeline replays uops inside SmtPipeline::run and runs
    // the bandit inside the epoch; those are the trace and core
    // layers' time.
    m["share.smt"] = ratio(smtCycleNs + smtEpochNs - uopDrainNs -
                               (pfCells ? 0.0 : coreNs),
                           net);
    m["share.cpu_memory"] = ratio(cpuNs, net);
    m["share.prefetch"] = ratio(pfNs - (pfCells ? coreNs : 0.0), net);
    m["share.core"] = ratio(coreNs, net);
    m["share.trace"] = ratio(pfDrainNs + uopDrainNs, net);
    return m;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "mab_perfbench: %s\nusage: mab_perfbench --workload W "
                 "--seed N --seconds S --trace 0|1\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("flag needs a value: " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else
                usage("unknown flag: " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds >= 0.0))
        usage("--seconds must not be negative");
    return a;
}

int
run(const Args &args)
{
    pinEnvironment();

    Workload w;
    try {
        w = makeWorkload(args.workload, args.seed);
    } catch (const std::exception &e) {
        usage(e.what());
    }
    const size_t nCells = w.cells.size();
    SweepRunner pool(kPoolThreads);

    // Set-up, repeated; the last materialization is the one timed
    // passes replay.
    std::vector<double> setupS;
    SetupResult lastSetup;
    for (int k = 0; k < kSetups; ++k) {
        lastSetup = setup(w, pool);
        setupS.push_back(lastSetup.seconds);
    }
    const uint64_t arenaBytes = TraceArena::global().stats().bytes;

    // Timed phase: whole passes over the grid, another one only while
    // it is expected to end within --seconds (at least one pass;
    // traced runs alternate untraced and traced passes and make at
    // least one of each).
    std::vector<Pass> passes;
    const auto timedStart = Clock::now();
    const size_t minPasses = args.trace ? 2 : 1;
    for (;;) {
        const double elapsed = secondsSince(timedStart);
        const size_t done = passes.size();
        if (done >= minPasses &&
            elapsed + elapsed / static_cast<double>(done) > args.seconds)
            break;
        Pass p;
        p.traced = args.trace && done % 2 == 1;
        const auto t0 = Clock::now();
        p.cells = pool.runAll<CellResult>(nCells, [&](size_t i) {
            return runCell(w.cells[i], p.traced);
        });
        p.wallS = secondsSince(t0);
        passes.push_back(std::move(p));
    }

    // Correctness: every pass must reproduce the first pass cell for
    // cell; a cell that threw or diverged in any pass fails.
    const Pass &ref = passes.front();
    std::vector<bool> failed(nCells, false);
    for (const Pass &p : passes) {
        for (size_t i = 0; i < nCells; ++i) {
            const CellResult &r = p.cells[i];
            if (!r.ok || r.fingerprint != ref.cells[i].fingerprint ||
                !ref.cells[i].ok)
                failed[i] = true;
        }
    }
    uint64_t nFailed = 0;
    json::Value errors = json::Value::array();
    json::Value cellFps = json::Value::array();
    Fnv workloadFp;
    for (size_t i = 0; i < nCells; ++i) {
        nFailed += failed[i] ? 1 : 0;
        workloadFp.word(ref.cells[i].fingerprint);
        cellFps.push(hex64(ref.cells[i].fingerprint));
        for (const Pass &p : passes) {
            if (!p.cells[i].ok && errors.size() < 8)
                errors.push(std::string(cellLabel(w.cells[i])) + ": " +
                            p.cells[i].error);
        }
    }

    // Simulated result: geomean of Bandit IPC over the baseline's IPC
    // across the grid's (app, seed) / mix groups.
    double logSum = 0.0;
    int groups = 0;
    for (size_t i = 0; i < nCells; ++i) {
        if (std::string(cellLabel(w.cells[i])) != "Bandit")
            continue;
        for (size_t j = 0; j < nCells; ++j) {
            const Cell &a = w.cells[i];
            const Cell &b = w.cells[j];
            const bool same = a.isSmt
                ? a.app0 == b.app0 && a.app1 == b.app1
                : a.app.name == b.app.name && a.app.seed == b.app.seed;
            if (same && cellLabel(b) == w.baseline &&
                ref.cells[j].ipc > 0.0 && ref.cells[i].ipc > 0.0) {
                logSum += std::log(ref.cells[i].ipc / ref.cells[j].ipc);
                ++groups;
            }
        }
    }
    const double banditRatio = groups ? std::exp(logSum / groups) : 0.0;

    // End-to-end figures come from untraced passes only.
    std::vector<double> walls, cellMs;
    double simInstr = 0.0, timedWall = 0.0;
    for (const Pass &p : passes) {
        if (p.traced)
            continue;
        walls.push_back(p.wallS);
        timedWall += p.wallS;
        for (const CellResult &r : p.cells) {
            cellMs.push_back(r.ms);
            simInstr += static_cast<double>(r.simInstr);
        }
    }

    json::Value out = json::Value::object();
    out["workload"] = w.name;
    out["seed"] = args.seed;
    out["pool_threads"] = kPoolThreads;
    out["setups"] = kSetups;
    out["cells"] = static_cast<uint64_t>(nCells);
    out["passes"] = static_cast<uint64_t>(walls.size());
    out["attempted"] = static_cast<uint64_t>(nCells);
    out["failed"] = nFailed;
    out["errors"] = std::move(errors);
    out["fingerprint"] = hex64(workloadFp.h);
    out["cell_fingerprints"] = std::move(cellFps);

    json::Value e2e = json::Value::object();
    e2e["wall_s"] = median(walls);
    e2e["sim_mips"] = simInstr / timedWall / 1e6;
    e2e["cell_ms_p50"] = median(cellMs);
    e2e["cell_ms_p90"] = percentile(cellMs, 90.0);
    e2e["setup_s"] = median(setupS);
    e2e["peak_rss_mb"] = peakRssMb();
    e2e["bandit_ipc_ratio"] = banditRatio;
    out["end_to_end"] = std::move(e2e);
    out["cell_samples"] = static_cast<uint64_t>(cellMs.size());
    json::Value passWalls = json::Value::array();
    for (const Pass &p : passes)
        passWalls.push(p.wallS);
    out["pass_walls_s"] = std::move(passWalls);

    if (args.trace)
        out["per_layer"] = perLayer(w, passes, pool, setupS, lastSetup,
                                    arenaBytes, walls);

    std::printf("%s\n", out.dump(0).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mab_perfbench: %s\n", e.what());
        return 1;
    }
}
