#include "experiment.hh"

#include <sstream>

#include "common/logging.hh"

namespace wg {

ExperimentRunner::ExperimentRunner(const ExperimentOptions& opts,
                                   ThreadPool* pool)
    : opts_(opts), pool_(pool)
{
}

std::string
ExperimentRunner::key(const std::string& bench, Technique t,
                      const ExperimentOptions& opts)
{
    std::ostringstream os;
    os << bench << '/' << techniqueName(t) << '/' << opts.numSms << '/'
       << opts.seed << '/' << opts.idleDetect << '/' << opts.breakEven
       << '/' << opts.wakeupDelay;
    return os.str();
}

namespace {

/** Approximate heap footprint of a cached result (for CacheLimits). */
std::size_t
approximateResultBytes(const SimResult& r)
{
    auto histBytes = [](const Histogram& h) {
        return (h.maxBin() + 1) * sizeof(std::uint64_t);
    };
    std::size_t bytes = sizeof(SimResult);
    bytes += r.smCycles.capacity() * sizeof(Cycle);
    bytes += histBytes(r.intIdleHist) + histBytes(r.fpIdleHist);
    for (const auto& type : r.aggregate.clusters)
        for (const auto& cluster : type)
            bytes += histBytes(cluster.idleHist);
    bytes += histBytes(r.aggregate.sfuCluster.idleHist);
    return bytes;
}

} // namespace

const SimResult&
ExperimentRunner::run(const std::string& bench, Technique t,
                      const std::optional<ExperimentOptions>& options)
{
    // Pinning keeps the historical contract — references returned here
    // stay valid for the runner's lifetime — even when cache limits
    // are active. Long-running services should prefer runShared().
    return *runInternal(bench, t, options, /*pin=*/true,
                        /*meter=*/false, nullptr);
}

std::shared_ptr<const SimResult>
ExperimentRunner::runShared(
    const std::string& bench, Technique t,
    const std::optional<ExperimentOptions>& options)
{
    return runInternal(bench, t, options, /*pin=*/false,
                       /*meter=*/false, nullptr);
}

MeteredResult
ExperimentRunner::runMetered(
    const std::string& bench, Technique t,
    const std::optional<ExperimentOptions>& options)
{
    MeteredResult out;
    out.result = runInternal(bench, t, options, /*pin=*/false,
                             /*meter=*/true, &out.series);
    return out;
}

std::shared_ptr<const SimResult>
ExperimentRunner::runInternal(
    const std::string& bench, Technique t,
    const std::optional<ExperimentOptions>& options, bool pin,
    bool meter, std::shared_ptr<const metrics::EpochSeries>* series_out)
{
    const ExperimentOptions& opts = options ? *options : opts_;
    std::string k = key(bench, t, opts);

    {
        // Reject invalid configurations up front, with every message:
        // a bad sweep point (say, an inverted adaptive window) should
        // abort here, not simulate for minutes and report garbage.
        GpuConfig config = makeConfig(t, opts);
        std::vector<std::string> errors = config.validate();
        if (!errors.empty()) {
            std::ostringstream os;
            for (const std::string& e : errors)
                os << "\n  - " << e;
            fatal("experiment ", k, ": invalid configuration:", os.str());
        }
    }

    MutexLock lock(mu_);
    auto [it, inserted] = cache_.try_emplace(k);
    CacheEntry& entry = it->second;
    if (!inserted) {
        // Single-flight: block until the owner publishes the entry.
        // This deadlocks if the owner's own thread gets here: the
        // owner's Gpu::run waits on its per-SM jobs with
        // ThreadPool::wait, which help-runs other queued pool tasks,
        // and a helped task that asks for this same key parks here
        // above the frame that would set the entry ready.
        // The entry reference stays valid while we wait: in-flight and
        // waited-on entries are never evicted (map nodes are stable).
        ++stats_.hits;
        // The waiter count keeps this node safe from eviction between
        // the owner's notify and this thread actually waking up.
        ++entry.waiters;
        while (!entry.ready)
            ready_cv_.wait(lock);
        --entry.waiters;
        if (entry.truncated)
            warn("experiment ", k,
                 " hit maxCycles before draining (cached result is "
                 "incomplete)");
        entry.pinned = entry.pinned || pin;
        entry.lastUse = ++use_tick_;
        if (series_out != nullptr)
            *series_out = entry.series;
        return entry.result;
    }
    ++stats_.misses;
    ++stats_.inFlight;
    lock.unlock();

    const BenchmarkProfile& profile = findBenchmark(bench);
    Gpu gpu(makeConfig(t, opts));
    // Metering is passive: the sampler only reads counters, so the
    // SimResult is bit-identical with or without the collector.
    metrics::Collector collector;
    SimResult result =
        gpu.run(profile, pool_, nullptr, meter ? &collector : nullptr);
    std::shared_ptr<const metrics::EpochSeries> series;
    if (meter) {
        series = std::make_shared<const metrics::EpochSeries>(
            metrics::buildSeries(collector));
    }
    bool truncated = !result.aggregate.completed;
    if (truncated)
        warn("experiment ", k, " hit maxCycles before draining");

    lock.relock();
    entry.result = std::make_shared<SimResult>(std::move(result));
    entry.series = series;
    entry.truncated = truncated;
    entry.pinned = pin;
    entry.lastUse = ++use_tick_;
    entry.bytes = approximateResultBytes(*entry.result);
    if (series) {
        entry.bytes += series->totalSamples() * sizeof(metrics::EpochSample) +
                       series->perSm.capacity() *
                           sizeof(std::vector<metrics::EpochSample>);
    }
    entry.ready = true;
    --stats_.inFlight;
    ++stats_.entries;
    stats_.bytes += entry.bytes;
    std::shared_ptr<const SimResult> out = entry.result;
    if (series_out != nullptr)
        *series_out = entry.series;
    enforceLimitsLocked();
    lock.unlock();
    ready_cv_.notifyAll();
    return out;
}

void
ExperimentRunner::enforceLimitsLocked()
{
    // Condition inlined (not a lambda): clang's thread-safety analysis
    // treats a lambda as a separate function that cannot see mu_ held.
    while ((limits_.maxEntries != 0 &&
            stats_.entries > limits_.maxEntries) ||
           (limits_.maxBytes != 0 && stats_.bytes > limits_.maxBytes)) {
        // LRU scan. The map stays small (it is capped); a heap would
        // only complicate the pinned/in-flight exclusions.
        auto victim = cache_.end();
        for (auto it = cache_.begin(); it != cache_.end(); ++it) {
            const CacheEntry& e = it->second;
            if (!e.ready || e.pinned || e.waiters != 0)
                continue; // never race an in-flight compute or a ref
            if (victim == cache_.end() ||
                e.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == cache_.end())
            return; // everything left is in-flight or pinned
        ++stats_.evictions;
        stats_.evictedBytes += victim->second.bytes;
        stats_.bytes -= victim->second.bytes;
        --stats_.entries;
        cache_.erase(victim);
    }
}

bool
ExperimentRunner::seedCache(
    const std::string& bench, Technique t,
    const std::optional<ExperimentOptions>& options, SimResult result)
{
    const ExperimentOptions& opts = options ? *options : opts_;
    const std::string k = key(bench, t, opts);
    MutexLock lock(mu_);
    auto [it, inserted] = cache_.try_emplace(k);
    if (!inserted)
        return false; // computed (or computing) locally; keep that
    CacheEntry& entry = it->second;
    entry.result = std::make_shared<SimResult>(std::move(result));
    entry.truncated = !entry.result->aggregate.completed;
    entry.lastUse = ++use_tick_;
    entry.bytes = approximateResultBytes(*entry.result);
    entry.ready = true;
    ++stats_.entries;
    stats_.bytes += entry.bytes;
    enforceLimitsLocked();
    return true;
}

void
ExperimentRunner::setCacheLimits(const CacheLimits& limits)
{
    MutexLock lock(mu_);
    limits_ = limits;
    enforceLimitsLocked();
}

CacheStats
ExperimentRunner::cacheStats() const
{
    MutexLock lock(mu_);
    return stats_;
}

std::vector<const SimResult*>
ExperimentRunner::runAll(const SweepSpec& spec)
{
    std::vector<const SimResult*> out(
        spec.benches.size() * spec.techniques.size(), nullptr);
    if (pool_ == nullptr) {
        std::size_t i = 0;
        for (const std::string& bench : spec.benches)
            for (Technique t : spec.techniques)
                out[i++] = &run(bench, t, spec.options);
        return out;
    }

    // One pool job per simulation. Each job may itself fan per-SM jobs
    // into the same pool; submit() + wait() helping keeps that
    // deadlock-free, and the cache's single-flight keeps duplicate
    // keys (and concurrent external run() calls) from running twice.
    std::vector<std::future<const SimResult*>> futures;
    futures.reserve(out.size());
    for (const std::string& bench : spec.benches)
        for (Technique t : spec.techniques)
            futures.push_back(pool_->submit([this, bench, t, &spec] {
                return &run(bench, t, spec.options);
            }));
    for (std::size_t i = 0; i < futures.size(); ++i)
        out[i] = pool_->wait(futures[i]);
    return out;
}

void
ExperimentRunner::prefetch(const SweepSpec& spec)
{
    runAll(spec);
}

std::vector<std::string>
ExperimentRunner::fpBenchmarks()
{
    std::vector<std::string> out;
    for (const auto& p : benchmarkSuite())
        if (!p.isIntegerOnly())
            out.push_back(p.name);
    return out;
}

double
normalizedRuntime(const SimResult& r, const SimResult& baseline)
{
    if (baseline.cycles == 0)
        return 0.0;
    return static_cast<double>(r.cycles) /
           static_cast<double>(baseline.cycles);
}

} // namespace wg
