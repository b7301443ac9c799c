#include "smt/pipeline.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/tracing.h"

namespace mab {

namespace {

/** Structures a uop of each kind holds from dispatch to commit (the
 *  SQ entry is held past commit, until its drain completes). Indexed
 *  by UopKind. */
struct KindUse
{
    int lq;
    int sq;
    int irf;
    int frf;
    int branch;
};

constexpr std::array<KindUse, 5> kKindUse = {{
    {0, 0, 1, 0, 0}, // IntAlu
    {0, 0, 0, 1, 0}, // FpAlu
    {1, 0, 1, 0, 0}, // Load
    {0, 1, 0, 0, 0}, // Store
    {0, 0, 0, 0, 1}, // Branch
}};

const KindUse &
use(UopKind kind)
{
    return kKindUse[static_cast<size_t>(kind)];
}

} // namespace

void
validateSmtConfig(const SmtConfig &c)
{
    const std::pair<const char *, int> fields[] = {
        {"fetchWidth", c.fetchWidth},
        {"decodeWidth", c.decodeWidth},
        {"commitWidth", c.commitWidth},
        {"iqSize", c.iqSize},
        {"robSize", c.robSize},
        {"lqSize", c.lqSize},
        {"sqSize", c.sqSize},
        {"irfSize", c.irfSize},
        {"frfSize", c.frfSize},
        {"fetchQueueSize", c.fetchQueueSize},
    };
    for (const auto &[name, value] : fields) {
        if (value < 1 || value > SmtConfig::kMaxSize) {
            throw std::invalid_argument(
                std::string("SmtConfig: ") + name + " = " +
                std::to_string(value) + " is outside [1, " +
                std::to_string(SmtConfig::kMaxSize) + "]");
        }
    }
}

SmtPipeline::SmtPipeline(
    const SmtConfig &config,
    std::array<ThreadSource *, SmtConfig::kThreads> sources)
    // Validate before the rings are sized from the config.
    : config_((validateSmtConfig(config), config)), sources_(sources),
      threads_{Thread(config), Thread(config)},
      calendar_(kCalendarSize, 0)
{
    policy_ = choiPolicy();
    setShares({0.5, 0.5});
}

void
SmtPipeline::setShares(const std::array<double, SmtConfig::kThreads> &s)
{
    // The exact doubles s * size that the gate definition compares
    // occupancies against, formed once per share change.
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        gateLimits_[t] = {
            s[t] * config_.iqSize,
            s[t] * (config_.lqSize + config_.sqSize),
            s[t] * config_.robSize,
            s[t] * config_.irfSize,
        };
    }
}

void
SmtPipeline::scheduleEvent(uint64_t at, int thread, bool sq)
{
    assert(at > now_);
    // Pathological dependence chains can push an issue time past the
    // calendar horizon; clamp (releasing the entry slightly early)
    // rather than wrap around.
    if (at - now_ >= kCalendarSize)
        at = now_ + kCalendarSize - 1;
    calendar_[at % kCalendarSize] += uint64_t{1} << slotShift(thread, sq);
}

bool
SmtPipeline::processEvents()
{
    uint64_t &slot = calendar_[now_ % kCalendarSize];
    const uint64_t w = slot;
    if (w == 0)
        return false;
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        Thread &th = threads_[t];
        th.iqUsed -= static_cast<int>(w >> slotShift(t, false) & 0xffff);
        th.sqUsed -= static_cast<int>(w >> slotShift(t, true) & 0xffff);
    }
    slot = 0;
    return true;
}

bool
SmtPipeline::commitStage()
{
    int budget = config_.commitWidth;
    // Alternate which thread gets first claim on commit bandwidth.
    const int first = static_cast<int>(now_ & 1);
    for (int i = 0; i < SmtConfig::kThreads && budget > 0; ++i) {
        const int t = (first + i) % SmtConfig::kThreads;
        Thread &th = threads_[t];
        while (budget > 0 && !th.rob.empty() &&
               th.rob.front().completeCycle <= now_) {
            const RobEntry e = th.rob.front();
            th.rob.pop_front();
            const KindUse &u = use(e.kind);
            th.lqUsed -= u.lq;
            th.irfUsed -= u.irf;
            th.frfUsed -= u.frf;
            th.branchesInRob -= u.branch;
            if (u.sq) {
                // SQ entry drains to memory after commit.
                scheduleEvent(now_ + std::max<uint64_t>(
                                         e.drainLatency, 1),
                              t, true);
            }
            ++th.committed;
            --budget;
        }
    }
    return budget != config_.commitWidth;
}

bool
SmtPipeline::tryDispatch(int t, Free &free, unsigned &block_mask)
{
    Thread &th = threads_[t];
    if (th.fetchQueue.empty())
        return false;
    const Uop &uop = th.fetchQueue.front();
    const KindUse &u = use(uop.kind);

    const unsigned blocked = unsigned{free.rob <= 0} |
        unsigned{free.iq <= 0} << 1 |
        unsigned{u.lq != 0 && free.lq <= 0} << 2 |
        unsigned{u.sq != 0 && free.sq <= 0} << 3 |
        unsigned{(u.irf != 0 && free.irf <= 0) ||
                 (u.frf != 0 && free.frf <= 0)} << 4;
    if (blocked) {
        block_mask |= blocked;
        return false;
    }

    // Dispatch: compute the uop's issue and completion times from its
    // register dependency, then allocate structures.
    uint64_t dep_ready = 0;
    if (uop.depDistance > 0 &&
        static_cast<uint64_t>(uop.depDistance) <= th.dispatchedCount &&
        uop.depDistance <= kDepRing) {
        dep_ready = th.completionRing[(th.dispatchedCount -
                                       uop.depDistance) % kDepRing];
    }
    const uint64_t issue = std::max(now_ + 1, dep_ready);
    const uint64_t complete = issue + uop.execLatency;
    th.completionRing[th.dispatchedCount % kDepRing] = complete;
    ++th.dispatchedCount;

    ++th.iqUsed;
    scheduleEvent(issue, t, false); // IQ entry frees at issue
    th.lqUsed += u.lq;
    th.sqUsed += u.sq;
    th.irfUsed += u.irf;
    th.frfUsed += u.frf;
    th.branchesInRob += u.branch;
    --free.rob;
    --free.iq;
    free.lq -= u.lq;
    free.sq -= u.sq;
    free.irf -= u.irf;
    free.frf -= u.frf;
    if (uop.mispredicted) {
        // The frontend redirects when the branch resolves (UopGen
        // marks only branches mispredicted).
        th.fetchBlockedUntil = std::max(
            th.fetchBlockedUntil, complete + config_.mispredictPenalty);
    }

    RobEntry entry;
    entry.completeCycle = complete;
    entry.drainLatency = uop.drainLatency;
    entry.kind = uop.kind;
    th.rob.push_back(entry);
    th.fetchQueue.pop_front();
    return true;
}

unsigned
SmtPipeline::renameStage()
{
    const Thread &t0 = threads_[0];
    const Thread &t1 = threads_[1];
    if (t0.fetchQueue.empty() && t1.fetchQueue.empty())
        return kRenameIdle;

    Free free{
        config_.robSize - t0.rob.size() - t1.rob.size(),
        config_.iqSize - t0.iqUsed - t1.iqUsed,
        config_.lqSize - t0.lqUsed - t1.lqUsed,
        config_.sqSize - t0.sqUsed - t1.sqUsed,
        config_.irfSize - t0.irfUsed - t1.irfUsed,
        config_.frfSize - t0.frfUsed - t1.frfUsed,
    };
    int budget = config_.decodeWidth;
    unsigned block_mask = 0;

    // Round-robin over the threads still able to dispatch. A failed
    // attempt is final for this cycle: free entries only shrink and
    // the thread's queue head stays put, so retrying cannot succeed.
    unsigned open = unsigned{!t0.fetchQueue.empty()} |
        unsigned{!t1.fetchQueue.empty()} << 1;
    while (budget > 0 && open != 0) {
        for (int i = 0; i < SmtConfig::kThreads && budget > 0; ++i) {
            const int t = (renameNext_ + i) % SmtConfig::kThreads;
            if (!(open >> t & 1u))
                continue;
            if (tryDispatch(t, free, block_mask)) {
                --budget;
                renameNext_ = (t + 1) % SmtConfig::kThreads;
            } else {
                open &= ~(1u << t);
            }
        }
    }
    return budget < config_.decodeWidth ? kRenameRunning : block_mask;
}

void
SmtPipeline::accountRename(unsigned outcome, uint64_t cycles)
{
    RenameStats &s = renameStats_;
    s.cycles += cycles;
    if (outcome & kRenameRunning) {
        s.running += cycles;
        return;
    }
    if (outcome & kRenameIdle) {
        s.idle += cycles;
        return;
    }
    s.stalled += cycles;
    s.stallRob += (outcome & 1u) ? cycles : 0;
    s.stallIq += (outcome >> 1 & 1u) ? cycles : 0;
    s.stallLq += (outcome >> 2 & 1u) ? cycles : 0;
    s.stallSq += (outcome >> 3 & 1u) ? cycles : 0;
    s.stallRf += (outcome >> 4 & 1u) ? cycles : 0;
}

bool
SmtPipeline::isGated(int t) const
{
    const Thread &th = threads_[t];
    const GateLimits &lim = gateLimits_[t];
    return (policy_.gateIq && th.iqUsed > lim.iq) ||
        (policy_.gateLsq && th.lqUsed + th.sqUsed > lim.lsq) ||
        (policy_.gateRob && th.rob.size() > lim.rob) ||
        (policy_.gateIrf && th.irfUsed > lim.irf);
}

int
SmtPipeline::pickFetchThread() const
{
    auto eligible = [&](int t) {
        const Thread &th = threads_[t];
        return !isGated(t) && th.fetchBlockedUntil <= now_ &&
            th.fetchQueue.size() < config_.fetchQueueSize;
    };

    if (policy_.priority == FetchPriority::RR) {
        for (int i = 0; i < SmtConfig::kThreads; ++i) {
            const int t = (rrNext_ + i) % SmtConfig::kThreads;
            if (eligible(t))
                return t;
        }
        return -1;
    }

    int best = -1;
    int best_metric = 0;
    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        if (!eligible(t))
            continue;
        const Thread &th = threads_[t];
        int metric = 0;
        switch (policy_.priority) {
          case FetchPriority::IC:
            metric = th.iqUsed;
            break;
          case FetchPriority::BrC:
            metric = th.branchesInRob;
            break;
          case FetchPriority::LSQC:
            metric = th.lqUsed + th.sqUsed;
            break;
          case FetchPriority::RR:
            break;
        }
        if (best < 0 || metric < best_metric) {
            best = t;
            best_metric = metric;
        }
    }
    return best;
}

bool
SmtPipeline::fetchStage()
{
    const int t = pickFetchThread();
    if (t < 0)
        return false;
    if (policy_.priority == FetchPriority::RR)
        rrNext_ = (t + 1) % SmtConfig::kThreads;

    Thread &th = threads_[t];
    const int room = config_.fetchQueueSize - th.fetchQueue.size();
    const int count = std::min(config_.fetchWidth, room);
    for (int i = 0; i < count; ++i) {
        const Uop uop = sources_[t]->next();
        th.fetchQueue.push_back(uop);
        ++th.fetched;
        if (uop.mispredicted) {
            // Conservative frontend bubble until the branch resolves
            // (extended at dispatch once the resolve time is known).
            th.fetchBlockedUntil = std::max(
                th.fetchBlockedUntil,
                now_ + config_.mispredictPenalty);
            break;
        }
    }
    return true;
}

unsigned
SmtPipeline::step()
{
    bool live = processEvents();
    live |= commitStage();
    const unsigned rename = renameStage();
    accountRename(rename, 1);
    live |= (rename & kRenameRunning) != 0;
    live |= fetchStage();
    ++now_;
    return live ? rename | kLive : rename;
}

uint64_t
SmtPipeline::nextWake(uint64_t end) const
{
    // After a dead cycle every ROB head completes, and every fetch
    // redirect ends, at or after now_; only those times and calendar
    // releases can change the state again.
    uint64_t wake = end;
    for (const Thread &th : threads_) {
        if ((wakeSources_ & kWakeRobHead) && !th.rob.empty())
            wake = std::min(wake, th.rob.front().completeCycle);
        if ((wakeSources_ & kWakeFetchRedirect) &&
            th.fetchBlockedUntil >= now_)
            wake = std::min(wake, th.fetchBlockedUntil);
    }
    // Pending releases all lie in [now_, now_ + kCalendarSize - 1).
    if (wakeSources_ & kWakeCalendar) {
        const uint64_t horizon =
            std::min<uint64_t>(wake, now_ + kCalendarSize - 1);
        for (uint64_t c = now_; c < horizon; ++c) {
            if (calendar_[c % kCalendarSize] != 0)
                return c;
        }
    }
    return wake;
}

void
SmtPipeline::runChunk(uint64_t n)
{
    const uint64_t end = now_ + n;
    while (now_ < end) {
        const unsigned outcome = step();
        if (outcome & kLive)
            continue;
        // A dead cycle: the state stays frozen until the next wake,
        // so the cycles before it repeat its rename outcome.
        const uint64_t wake = nextWake(end);
        accountRename(outcome, wake - now_);
        now_ = wake;
    }
}

void
SmtPipeline::run(uint64_t n)
{
    // Branch outside the RAII scope: when profiling is off the hot
    // path must carry no ScopedPhase cleanup at all.
    if (tracing::Tracer::profileActive()) {
        tracing::ScopedPhase phase(tracing::Phase::SmtCycle);
        runChunk(n);
        return;
    }
    runChunk(n);
}

void
SmtPipeline::exportStats(StatsRegistry &reg,
                         const std::string &prefix) const
{
    reg.setCounter(prefix + ".cycles", now_);
    reg.setScalar(prefix + ".ipcSum", ipcSum());

    reg.setCounter(prefix + ".rename.stallRob", renameStats_.stallRob);
    reg.setCounter(prefix + ".rename.stallIq", renameStats_.stallIq);
    reg.setCounter(prefix + ".rename.stallLq", renameStats_.stallLq);
    reg.setCounter(prefix + ".rename.stallSq", renameStats_.stallSq);
    reg.setCounter(prefix + ".rename.stallRf", renameStats_.stallRf);
    reg.setCounter(prefix + ".rename.stalled", renameStats_.stalled);
    reg.setCounter(prefix + ".rename.idle", renameStats_.idle);
    reg.setCounter(prefix + ".rename.running", renameStats_.running);

    for (int t = 0; t < SmtConfig::kThreads; ++t) {
        const std::string th =
            prefix + ".thread" + std::to_string(t);
        reg.setCounter(th + ".fetched", threads_[t].fetched);
        reg.setCounter(th + ".committed", threads_[t].committed);
        reg.setScalar(th + ".ipc", ipc(t));
    }
}

} // namespace mab
