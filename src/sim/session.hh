/**
 * @file
 * Resumable simulation sessions (DESIGN.md §17).
 *
 * A SimSession owns the per-SM simulators of one run and exposes the
 * checkpoint/resume lifecycle:
 *
 *   auto s = SimSession::open(profile, config, ...);
 *   s.runUntil(cycle);               // advance every SM to `cycle`
 *   GpuSnapshot snap = s.snapshot(); // capture, e.g. serialize + exit
 *   ...
 *   auto r = SimSession::restore(snap, profile, config, ..., &err);
 *   SimResult result = r->result(); // finish; bit-identical to an
 *                                   // uninterrupted run
 *
 * Gpu::run()/runPrograms() are thin wrappers over open() + result(),
 * so every pre-existing call site keeps its exact behaviour. The
 * determinism contract: for any checkpoint cycle on an epoch boundary
 * (and in fact any cycle), split-and-resume produces the same
 * SimResult, metrics export, and trace bytes as the uninterrupted run,
 * fast-forward on or off.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/threadpool.hh"
#include "metrics/sampler.hh"
#include "sim/result.hh"
#include "sim/sm.hh"
#include "sim/snapshot.hh"
#include "trace/recorder.hh"
#include "workload/profile.hh"

namespace wg {

/** One resumable multi-SM simulation. */
class SimSession
{
  public:
    /**
     * Open a fresh session: generate per-SM programs from @p profile
     * (under the config seed) and construct every SM at cycle 0. When
     * @p collector / @p metrics are given they are prepare()d here and
     * every SM records into its own pre-created ring/sampler, exactly
     * as Gpu::run does. @p pool runs per-SM work (nullptr = serial;
     * results are bit-identical either way).
     */
    static SimSession open(const BenchmarkProfile& profile,
                           const GpuConfig& config,
                           ThreadPool* pool = &ThreadPool::global(),
                           trace::Collector* collector = nullptr,
                           metrics::Collector* metrics = nullptr);

    /** Open with explicit per-SM workloads (size overrides numSms). */
    static SimSession
    openPrograms(const std::vector<std::vector<Program>>& per_sm,
                 const GpuConfig& config,
                 ThreadPool* pool = &ThreadPool::global(),
                 trace::Collector* collector = nullptr,
                 metrics::Collector* metrics = nullptr);

    /**
     * Rebuild a session from a snapshot: regenerate the programs from
     * @p profile (they are not captured — the profile/seed pair pins
     * them), construct every SM, and restore its captured state.
     * Observer attachment must match the capture: a snapshot taken
     * with tracing/metrics on must be resumed with a collector of the
     * same shape, and vice versa. @return nullptr (with *error set)
     * when the snapshot does not fit the config/profile/observers.
     */
    static std::unique_ptr<SimSession>
    restore(const GpuSnapshot& snap, const BenchmarkProfile& profile,
            const GpuConfig& config,
            ThreadPool* pool = &ThreadPool::global(),
            trace::Collector* collector = nullptr,
            metrics::Collector* metrics = nullptr,
            std::string* error = nullptr);

    /**
     * Advance every SM to cycle @p cycle (clamped to maxCycles) or
     * completion. Checkpoints are meant to be taken on epoch
     * boundaries (cycle % epochLength == 0) so they align with the
     * adaptive-gating and metrics epoch clock, but any boundary is
     * deterministic.
     */
    void runUntil(Cycle cycle);

    /** Capture every SM's state (call between runUntil segments). */
    GpuSnapshot snapshot() const;

    /**
     * Run to completion (or maxCycles) and aggregate. Idempotent once
     * complete; the SimResult is byte-identical to Gpu::run on the
     * same inputs regardless of how many runUntil segments preceded.
     */
    SimResult result();

    /** @return true when every SM has drained. */
    bool done() const;

    unsigned numSms() const
    {
        return static_cast<unsigned>(sms_.size());
    }

    const GpuConfig& config() const { return config_; }

  private:
    SimSession(const GpuConfig& config, ThreadPool* pool,
               trace::Collector* collector,
               metrics::Collector* metrics);

    /** Prepare collectors and construct the per-SM simulators. */
    void buildSms(std::vector<std::vector<Program>> per_sm);

    /** Run fn(s) for every SM, pooled when a pool is attached. */
    template <typename Fn>
    void forEachSm(Fn&& fn);

    SimResult aggregate(std::vector<SmStats> stats);

    GpuConfig config_;
    ThreadPool* pool_;
    trace::Collector* collector_;
    metrics::Collector* metrics_;
    std::vector<std::unique_ptr<Sm>> sms_;
};

} // namespace wg
