/**
 * @file
 * Self-profiling wall-clock phase timers.
 *
 * The simulator publishes where its own wall-clock time goes (workload
 * generation, the sim loop, the energy model, export) into the same
 * metrics registry as the simulation counters, under the `profile.`
 * prefix. Phase times are wall-clock and therefore NOT deterministic:
 * exporters only include them when explicitly requested (wgsim
 * --profile) and wgreport ignores the `profile.` prefix by default, so
 * the serial-vs-pooled byte-identity of metrics files is preserved.
 *
 * Header-only for the same layering reason as the sampler: wg::sim
 * fills timers while wg::metrics serialises them.
 */

#pragma once

#include <chrono>
#include <map>
#include <string>

#include "common/stats.hh"

namespace wg::metrics {

/** Named wall-clock accumulators, one per pipeline phase. */
class PhaseTimers
{
  public:
    /** RAII scope that adds its lifetime to one phase. */
    class Scope
    {
      public:
        Scope(PhaseTimers* timers, std::string phase)
            : timers_(timers), phase_(std::move(phase)),
              start_(std::chrono::steady_clock::now())
        {
        }

        ~Scope()
        {
            if (timers_)
                timers_->add(
                    phase_,
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
        }

        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        PhaseTimers* timers_;
        std::string phase_;
        std::chrono::steady_clock::time_point start_;
    };

    /** Add @p seconds to @p phase. */
    void add(const std::string& phase, double seconds)
    {
        seconds_[phase] += seconds;
    }

    /** Accumulated seconds per phase, in name order. */
    const std::map<std::string, double>& seconds() const
    {
        return seconds_;
    }

    double get(const std::string& phase) const
    {
        auto it = seconds_.find(phase);
        return it == seconds_.end() ? 0.0 : it->second;
    }

    /**
     * Publish every phase into @p set as `<prefix>.<phase>` (seconds).
     * Phase names must not contain '_' (the Prometheus exporter maps
     * '.' <-> '_' bijectively); use camelCase.
     */
    void
    publish(StatSet& set, const std::string& prefix = "profile.phase")
        const
    {
        for (const auto& [phase, secs] : seconds_)
            set.set(prefix + "." + phase, secs);
    }

  private:
    std::map<std::string, double> seconds_;
};

} // namespace wg::metrics

