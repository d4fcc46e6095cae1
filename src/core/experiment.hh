/**
 * @file
 * Experiment runner: the entry point the benches, examples and
 * integration tests share. Runs (benchmark x technique) simulations
 * and provides suite-level helpers (normalisation against baselines,
 * FP-benchmark filtering, result caching within one process).
 *
 * The runner is thread-safe. Results are cached behind a mutex with
 * single-flight semantics: two threads asking for the same key run the
 * simulation once, the second blocks until the first finishes. A
 * cached result lives as long as the runner. The batch API (runAll /
 * prefetch) schedules whole simulations concurrently on the shared
 * thread pool, so a figure sweep keeps every core busy instead of
 * running dozens of simulations serially.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/threadpool.hh"
#include "core/presets.hh"
#include "metrics/sampler.hh"
#include "sim/gpu.hh"
#include "workload/profile.hh"

namespace wg {

/**
 * One sweep: the (benches x techniques) cross product, optionally under
 * explicit experiment options. This is the single value the batch APIs
 * take — it replaces the old with/without-options overload pairs.
 */
struct SweepSpec
{
    /** @param options options for every cell; nullopt = the runner's
     *         defaults. */
    SweepSpec(std::vector<std::string> benches,
              std::vector<Technique> techniques,
              std::optional<ExperimentOptions> options = std::nullopt)
        : benches(std::move(benches)), techniques(std::move(techniques)),
          options(std::move(options))
    {
    }

    std::vector<std::string> benches;
    std::vector<Technique> techniques;
    std::optional<ExperimentOptions> options;
};

/** Cache-behaviour counters (sampled under the cache lock). */
struct CacheStats
{
    std::uint64_t hits = 0;     ///< served from a ready or in-flight entry
    std::uint64_t misses = 0;   ///< triggered a simulation
    std::uint64_t entries = 0;  ///< cached (ready) entries
    std::uint64_t inFlight = 0; ///< entries still computing
};

/**
 * A metered cell: the simulation result plus its per-epoch
 * time-series. `series` is null when the cached entry was computed by
 * an earlier unmetered call — metering happens on cache miss, it never
 * re-runs a cached cell.
 */
struct MeteredResult
{
    std::shared_ptr<const SimResult> result;
    std::shared_ptr<const metrics::EpochSeries> series;
};

/** Runs simulations and caches results keyed by (bench, config). */
class ExperimentRunner
{
  public:
    /**
     * @param pool pool for per-SM jobs and batch scheduling; nullptr
     *        runs everything serially on the calling thread (results
     *        are bit-identical to the pooled path).
     */
    explicit ExperimentRunner(const ExperimentOptions& opts = {},
                              ThreadPool* pool = &ThreadPool::global());

    /**
     * Run one benchmark under one technique (cached, single-flight).
     * @param options explicit options for this cell; nullopt = the
     *        runner's defaults. The derived GpuConfig is validated
     *        first; an invalid configuration aborts with every
     *        validation message rather than simulating nonsense.
     */
    const SimResult&
    run(const std::string& bench, Technique t,
        const std::optional<ExperimentOptions>& options = std::nullopt);

    /**
     * run() returning shared ownership of the cached result, for
     * callers that keep a result beyond the runner's lifetime.
     */
    std::shared_ptr<const SimResult>
    runShared(const std::string& bench, Technique t,
              const std::optional<ExperimentOptions>& options =
                  std::nullopt);

    /**
     * runShared() with an attached metrics::Collector, so the caller
     * also gets the cell's epoch time-series: the samplers' vectors,
     * copied SM-major at the cell boundary. That copy is the only one;
     * it is cached with the result and shared by every reader, so a
     * cache hit returns the series without re-running. Metering is
     * passive — the SimResult is bit-identical to an unmetered run.
     * The series is null only when the entry was first computed
     * unmetered.
     */
    MeteredResult
    runMetered(const std::string& bench, Technique t,
               const std::optional<ExperimentOptions>& options =
                   std::nullopt);

    /**
     * Run @p spec's full (benches x techniques) cross product
     * concurrently on the pool. Returns results in bench-major order:
     * out[b * techniques.size() + t]. Cached entries are reused; the
     * rest run as parallel pool jobs.
     */
    std::vector<const SimResult*> runAll(const SweepSpec& spec);

    /**
     * Seed the cache with an externally computed result — the
     * checkpoint/resume path: a resubmitted job snapshot feeds its
     * already-finished cells in here so the runner never recomputes
     * them. The result is trusted to be what a local run would have
     * produced (snapshot documents are as trusted as the offline jsonl
     * files wgreport reads). @return false when an entry for the key
     * already exists (ready or in-flight) — the existing entry wins.
     */
    bool seedCache(const std::string& bench, Technique t,
                   const std::optional<ExperimentOptions>& options,
                   SimResult result);

    /** Cache-behaviour counters (hits/misses/size). */
    CacheStats cacheStats() const;

    /**
     * Warm the cache for @p spec concurrently; later run() calls hit
     * the cache. Sugar for discarding runAll's result.
     */
    void prefetch(const SweepSpec& spec);

    /** Benchmarks with meaningful FP activity (paper Fig. 9b filter). */
    static std::vector<std::string> fpBenchmarks();

    const ExperimentOptions& options() const { return opts_; }

    /** The pool batch jobs are scheduled on (nullptr = serial). */
    ThreadPool* pool() const { return pool_; }

  private:
    /**
     * A cache slot: in flight until the owner publishes it, then ready.
     * Slots live in a node-based map and are never erased, so the
     * references single-flight waiters and run() callers hold stay
     * valid for the runner's lifetime.
     */
    struct CacheEntry
    {
        std::shared_ptr<const SimResult> result;
        std::shared_ptr<const metrics::EpochSeries> series; ///< metered
        bool ready = false;     ///< single-flight: owner still running
        bool truncated = false; ///< hit maxCycles; re-warn on every hit
    };

    static std::string key(const std::string& bench, Technique t,
                           const ExperimentOptions& opts);

    /**
     * Core of run()/runShared()/runMetered(); @p meter attaches a
     * collector on miss, so the entry caches the cell's series.
     */
    MeteredResult
    runInternal(const std::string& bench, Technique t,
                const std::optional<ExperimentOptions>& options,
                bool meter);

    ExperimentOptions opts_;
    ThreadPool* pool_;
    mutable Mutex mu_;
    CondVar ready_cv_;
    std::map<std::string, CacheEntry> cache_ WG_GUARDED_BY(mu_);
    CacheStats stats_ WG_GUARDED_BY(mu_); ///< entries derived on read
};

/**
 * Runtime of @p r normalised to @p baseline (>1 = slower). The paper's
 * Fig. 10 plots the inverse (normalised performance); use
 * 1/normalizedRuntime for that.
 */
double normalizedRuntime(const SimResult& r, const SimResult& baseline);

} // namespace wg

