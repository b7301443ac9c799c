#include "trace/replay.h"

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "trace/arena_file.h"

namespace mab {

namespace {

constexpr uint64_t kDefaultBudgetBytes = 512ull << 20;

/** Exact double spelling: the bit pattern, so fingerprints of
 *  profiles differing by one ULP still differ. */
void
appendBits(std::string &out, double v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(v)));
    out += buf;
    out += ',';
}

void
appendBits(std::string &out, uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    out += buf;
    out += ',';
}

} // namespace

std::string
profileFingerprint(const AppProfile &profile)
{
    std::string key = profile.name;
    key += '|';
    appendBits(key, profile.seed);
    key += profile.loopPhases ? '1' : '0';
    key += '|';
    for (const PatternPhase &ph : profile.phases) {
        appendBits(key, static_cast<uint64_t>(ph.kind));
        appendBits(key, ph.memFraction);
        appendBits(key, ph.storeFraction);
        appendBits(key, ph.branchFraction);
        appendBits(key, ph.mispredictRate);
        appendBits(key, ph.footprintBytes);
        appendBits(key, static_cast<uint64_t>(ph.strideBytes));
        appendBits(key, static_cast<uint64_t>(ph.numStreams));
        appendBits(key, static_cast<uint64_t>(ph.accessesPerLine));
        appendBits(key, ph.chaseSerialFrac);
        appendBits(key, ph.lengthInstrs);
        key += ';';
    }
    return key;
}

MaterializedTrace::MaterializedTrace(const AppProfile &profile,
                                     uint64_t count,
                                     const PackedRecord *payload,
                                     std::shared_ptr<PayloadOwner> owner)
    : name_(profile.name), fingerprint_(profileFingerprint(profile)),
      count_(count), data_(payload), owner_(std::move(owner))
{
}

std::shared_ptr<MaterializedTrace>
MaterializedTrace::generate(const AppProfile &profile, uint64_t count)
{
    const auto start = std::chrono::steady_clock::now();
    arena_file::Payload payload = arena_file::allocatePayload(count);
    PackedRecord *out = payload.data;
    SyntheticTrace gen(profile);
    for (uint64_t i = 0; i < count; ++i)
        out[i] = PackedRecord::pack(gen.next());
    auto trace = std::make_shared<MaterializedTrace>(
        profile, count, out, std::move(payload.owner));
    trace->genMs_ = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return trace;
}

void
ReplaySource::throwExhausted() const
{
    throw std::runtime_error(
        "ReplaySource '" + trace_->name() + "' exhausted after " +
        std::to_string(size_) +
        " records: the run consumed more than was materialized");
}

void
ReplaySource::extend(std::shared_ptr<MaterializedTrace> longer)
{
    if (!longer || longer->size() < size_ ||
        longer->fingerprint() != trace_->fingerprint())
        throw std::invalid_argument(
            "ReplaySource::extend: not a longer trace of '" +
            trace_->name() + "'");
    trace_ = std::move(longer);
    data_ = trace_->data();
    size_ = trace_->size();
}

TraceArena::TraceArena() : budgetBytes_(kDefaultBudgetBytes)
{
    if (const char *env = std::getenv("MAB_TRACE_ARENA_DIR")) {
        if (env[0] != '\0')
            dir_ = env;
    }
}

TraceArena &
TraceArena::global()
{
    static TraceArena arena;
    return arena;
}

bool
TraceArena::enabled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return enabled_;
}

void
TraceArena::setEnabled(bool on)
{
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = on;
}

uint64_t
TraceArena::budgetBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return budgetBytes_;
}

void
TraceArena::setBudgetBytes(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    budgetBytes_ = bytes;
}

std::string
TraceArena::dir() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dir_;
}

void
TraceArena::setDir(std::string dir)
{
    std::lock_guard<std::mutex> lock(mu_);
    dir_ = std::move(dir);
}

TraceArena::Stats
TraceArena::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.enabled = enabled_;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.budgetBytes = budgetBytes_;
    s.dir = dir_;
    s.fileHits = fileHits_.load(std::memory_order_relaxed);
    s.fileSpills = fileSpills_.load(std::memory_order_relaxed);
    s.fileRejects = fileRejects_.load(std::memory_order_relaxed);
    for (const auto &[key, entry] : map_) {
        if (entry.fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
            continue;
        ++s.entries;
        if (const auto &item = entry.fut.get()) {
            s.bytes += item->bytes();
            s.genMs += item->genMs();
        }
    }
    return s;
}

void
TraceArena::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    tick_ = hits_ = misses_ = evictions_ = 0;
    fileHits_.store(0, std::memory_order_relaxed);
    fileSpills_.store(0, std::memory_order_relaxed);
    fileRejects_.store(0, std::memory_order_relaxed);
}

std::shared_ptr<ArenaItem>
TraceArena::acquire(const std::string &key, const Generator &gen)
{
    std::shared_future<std::shared_ptr<ArenaItem>> fut;
    std::promise<std::shared_ptr<ArenaItem>> prom;
    bool generate_here = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++tick_;
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second.lruTick = tick_;
            ++hits_;
            fut = it->second.fut;
        } else {
            ++misses_;
            Entry e;
            e.fut = fut = prom.get_future().share();
            e.lruTick = tick_;
            map_.emplace(key, std::move(e));
            generate_here = true;
        }
    }

    if (!generate_here)
        return fut.get(); // may wait for a concurrent generator

    // Generate outside the lock: other keys proceed concurrently,
    // same-key acquirers wait on the future installed above.
    std::shared_ptr<ArenaItem> item;
    try {
        item = gen();
    } catch (...) {
        prom.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mu_);
        map_.erase(key);
        throw;
    }
    prom.set_value(item);
    evictOverBudget(key);
    return item;
}

void
TraceArena::evictOverBudget(const std::string &keep)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (;;) {
        uint64_t total = 0;
        auto victim = map_.end();
        for (auto it = map_.begin(); it != map_.end(); ++it) {
            // In-flight entries have unknown size and a generator
            // about to publish into them: never evict those.
            if (it->second.fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                continue;
            const auto &item = it->second.fut.get();
            total += item ? item->bytes() : 0;
            if (it->first == keep)
                continue;
            if (victim == map_.end() ||
                it->second.lruTick < victim->second.lruTick)
                victim = it;
        }
        if (total <= budgetBytes_ || victim == map_.end())
            return;
        map_.erase(victim);
        ++evictions_;
    }
}

std::shared_ptr<MaterializedTrace>
TraceArena::acquireTrace(const AppProfile &profile, uint64_t count)
{
    std::string key = "trace:";
    key += profileFingerprint(profile);
    key += '#';
    key += std::to_string(count);
    const std::string diskDir = dir();
    auto item = acquire(key, [&]() -> std::shared_ptr<ArenaItem> {
        // A warm start mmaps the spilled file (zero generation); a
        // cold or corrupt-file miss generates the whole trace, then
        // spills it so the next process is warm. Same-key acquirers
        // wait on the arena's future meanwhile.
        if (!diskDir.empty()) {
            arena_file::LoadResult loaded =
                arena_file::tryLoad(diskDir, key, profile, count);
            if (loaded.status == arena_file::LoadStatus::Ok) {
                fileHits_.fetch_add(1, std::memory_order_relaxed);
                return loaded.trace;
            }
            if (loaded.status == arena_file::LoadStatus::Rejected)
                fileRejects_.fetch_add(1, std::memory_order_relaxed);
        }
        auto trace = MaterializedTrace::generate(profile, count);
        if (!diskDir.empty() && arena_file::save(diskDir, key, *trace))
            fileSpills_.fetch_add(1, std::memory_order_relaxed);
        return trace;
    });
    return std::static_pointer_cast<MaterializedTrace>(item);
}

std::shared_ptr<MaterializedTrace>
acquireRunTrace(const AppProfile &profile, uint64_t count)
{
    TraceArena &arena = TraceArena::global();
    if (count == 0 || !arena.enabled())
        return MaterializedTrace::generate(profile, count);
    return arena.acquireTrace(profile, count);
}

std::unique_ptr<ReplaySource>
makeRunSource(const AppProfile &profile, uint64_t instructions)
{
    return std::make_unique<ReplaySource>(
        acquireRunTrace(profile, instructions));
}

} // namespace mab
