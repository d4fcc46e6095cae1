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

const SimResult&
ExperimentRunner::run(const std::string& bench, Technique t,
                      const std::optional<ExperimentOptions>& options)
{
    return *runInternal(bench, t, options, /*meter=*/false).result;
}

std::shared_ptr<const SimResult>
ExperimentRunner::runShared(
    const std::string& bench, Technique t,
    const std::optional<ExperimentOptions>& options)
{
    return runInternal(bench, t, options, /*meter=*/false).result;
}

MeteredResult
ExperimentRunner::runMetered(
    const std::string& bench, Technique t,
    const std::optional<ExperimentOptions>& options)
{
    return runInternal(bench, t, options, /*meter=*/true);
}

MeteredResult
ExperimentRunner::runInternal(
    const std::string& bench, Technique t,
    const std::optional<ExperimentOptions>& options, bool meter)
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
        // The owner is running, and it cannot be this thread: while
        // its Gpu::run waits on its per-SM jobs, ThreadPool::wait runs
        // only those jobs, never an unrelated task that could ask for
        // this key. So the owner always finishes.
        ++stats_.hits;
        while (!entry.ready)
            ready_cv_.wait(lock);
        if (entry.truncated)
            warn("experiment ", k,
                 " hit maxCycles before draining (cached result is "
                 "incomplete)");
        return {entry.result, entry.series};
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
    MeteredResult out;
    if (meter) {
        out.series = std::make_shared<const metrics::EpochSeries>(
            metrics::buildSeries(collector));
    }
    bool truncated = !result.aggregate.completed;
    if (truncated)
        warn("experiment ", k, " hit maxCycles before draining");
    out.result = std::make_shared<const SimResult>(std::move(result));

    lock.relock();
    entry.result = out.result;
    entry.series = out.series;
    entry.truncated = truncated;
    entry.ready = true;
    --stats_.inFlight;
    lock.unlock();
    ready_cv_.notifyAll();
    return out;
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
    entry.truncated = !result.aggregate.completed;
    entry.result = std::make_shared<const SimResult>(std::move(result));
    entry.ready = true;
    return true;
}

CacheStats
ExperimentRunner::cacheStats() const
{
    MutexLock lock(mu_);
    CacheStats out = stats_;
    out.entries = cache_.size() - stats_.inFlight;
    return out;
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
    // into the same pool; wait() runs only the waiter's own children,
    // which keeps that deadlock-free, and the cache's single-flight
    // keeps duplicate keys (and concurrent external run() calls) from
    // running twice.
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
