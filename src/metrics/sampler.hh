/**
 * @file
 * Epoch-resolution metrics sampling.
 *
 * The paper's adaptive idle-detect mechanism works in 1000-cycle
 * epochs; this sampler snapshots the key gating/scheduler/memory
 * counters at exactly those boundaries so a run becomes a compact
 * time-series instead of a single end-of-run aggregate. The SM fills
 * an EpochCounters snapshot from its live counters and the sampler
 * stores the per-epoch deltas.
 *
 * Everything here is header-only on purpose: the SM (wg::sim) drives
 * the sampler from its step loop, while the exporters (wg::metrics)
 * sit above wg::sim — keeping the sampler header-only avoids a link
 * cycle between the two libraries.
 *
 * Concurrency contract (mirrors trace::Collector): the Collector
 * pre-creates one EpochSampler per SM before any pool job is
 * dispatched, each SM touches only its own sampler, and serialisation
 * drains samplers in SM order — so pooled and serial runs produce
 * bit-identical metrics files.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "metrics/phase_timer.hh"

namespace wg::metrics {

/**
 * Cumulative counter snapshot one SM hands to its sampler at an epoch
 * boundary. INT/FP values are summed over both clusters of the type.
 */
struct EpochCounters
{
    std::uint64_t issued = 0;         ///< warp instructions issued

    std::uint64_t intBusyCycles = 0;
    std::uint64_t intGatedCycles = 0; ///< uncompensated + compensated
    std::uint64_t intCompCycles = 0;
    std::uint64_t intGatingEvents = 0;
    std::uint64_t intWakeups = 0;
    std::uint64_t intCriticalWakeups = 0;

    std::uint64_t fpBusyCycles = 0;
    std::uint64_t fpGatedCycles = 0;
    std::uint64_t fpCompCycles = 0;
    std::uint64_t fpGatingEvents = 0;
    std::uint64_t fpWakeups = 0;
    std::uint64_t fpCriticalWakeups = 0;

    std::uint64_t memMisses = 0;
    std::uint64_t mshrRejects = 0;
    std::uint64_t wakeupRequests = 0;
    std::uint64_t activeAccum = 0;    ///< sum of active-set sizes

    Cycle intIdleDetect = 0;          ///< gauge: post-epoch window
    Cycle fpIdleDetect = 0;           ///< gauge: post-epoch window

    /** Sum fields are per-epoch deltas, Gauge fields end-of-epoch. */
    static constexpr auto
    fields()
    {
        using S = EpochCounters;
        constexpr FieldRule kDelta = FieldRule::Sum;
        constexpr FieldRule kGauge = FieldRule::Gauge;
        return std::tuple{
            field("issued", &S::issued, kDelta),
            field("intBusyCycles", &S::intBusyCycles, kDelta),
            field("intGatedCycles", &S::intGatedCycles, kDelta),
            field("intCompCycles", &S::intCompCycles, kDelta),
            field("intGatingEvents", &S::intGatingEvents, kDelta),
            field("intWakeups", &S::intWakeups, kDelta),
            field("intCriticalWakeups", &S::intCriticalWakeups, kDelta),
            field("fpBusyCycles", &S::fpBusyCycles, kDelta),
            field("fpGatedCycles", &S::fpGatedCycles, kDelta),
            field("fpCompCycles", &S::fpCompCycles, kDelta),
            field("fpGatingEvents", &S::fpGatingEvents, kDelta),
            field("fpWakeups", &S::fpWakeups, kDelta),
            field("fpCriticalWakeups", &S::fpCriticalWakeups, kDelta),
            field("memMisses", &S::memMisses, kDelta),
            field("mshrRejects", &S::mshrRejects, kDelta),
            field("wakeupRequests", &S::wakeupRequests, kDelta),
            field("activeAccum", &S::activeAccum, kDelta),
            field("intIdleDetect", &S::intIdleDetect, kGauge),
            field("fpIdleDetect", &S::fpIdleDetect, kGauge),
        };
    }
};

/** One epoch's deltas (gauges excepted) for one SM. */
struct EpochSample
{
    std::uint32_t epoch = 0;  ///< epoch index, 0-based
    Cycle cycleEnd = 0;       ///< cycles completed when sampled
    Cycle cycles = 0;         ///< cycles covered (== epoch length,
                              ///< except a final partial epoch)
    EpochCounters delta;      ///< counter deltas; idle-detect fields
                              ///< are end-of-epoch gauges, not deltas

    static constexpr auto
    fields()
    {
        using S = EpochSample;
        return std::tuple{field("epoch", &S::epoch),
                          field("cycleEnd", &S::cycleEnd),
                          field("cycles", &S::cycles),
                          field("delta", &S::delta)};
    }
};

/**
 * Checkpoint state of one EpochSampler: the closed samples plus the
 * open epoch's baseline. epochLength rides along so resume can verify
 * the restored sampler ticks on the same boundaries.
 */
struct SamplerState
{
    Cycle epochLength = 0;           ///< sampling period at capture
    Cycle lastCycle = 0;             ///< last closed boundary
    EpochCounters prev;              ///< cumulative baseline at lastCycle
    std::vector<EpochSample> samples; ///< closed epochs, oldest first

    static constexpr auto
    fields()
    {
        using S = SamplerState;
        return std::tuple{field("epochLength", &S::epochLength),
                          field("lastCycle", &S::lastCycle),
                          field("prev", &S::prev),
                          field("samples", &S::samples)};
    }
};

/**
 * Per-SM epoch time-series. The SM calls sample() whenever the epoch
 * clock rolls over (the same (now+1) % epochLength == 0 boundary
 * PgController uses for adaptive idle detect) and finalize() once at
 * end of run to flush a trailing partial epoch.
 */
class EpochSampler
{
  public:
    EpochSampler(SmId sm, Cycle epoch_length)
        : sm_(sm), epoch_length_(epoch_length ? epoch_length : 1)
    {
    }

    SmId sm() const { return sm_; }
    Cycle epochLength() const { return epoch_length_; }

    /** Close the epoch ending at @p cycle_end (cycles completed). */
    void
    sample(Cycle cycle_end, const EpochCounters& cum)
    {
        EpochSample s;
        s.epoch = static_cast<std::uint32_t>(samples_.size());
        s.cycleEnd = cycle_end;
        s.cycles = cycle_end - last_cycle_;
        s.delta = deltaFields(cum, prev_);
        samples_.push_back(s);
        prev_ = cum;
        last_cycle_ = cycle_end;
    }

    /**
     * Flush the trailing partial epoch, if any cycles have elapsed
     * since the last boundary. Idempotent for a fixed @p cycle_end.
     */
    void
    finalize(Cycle cycle_end, const EpochCounters& cum)
    {
        if (cycle_end > last_cycle_)
            sample(cycle_end, cum);
    }

    const std::vector<EpochSample>& samples() const { return samples_; }

    /** Capture closed samples + the open epoch's baseline. */
    SamplerState
    saveState() const
    {
        SamplerState s;
        s.epochLength = epoch_length_;
        s.lastCycle = last_cycle_;
        s.prev = prev_;
        s.samples = samples_;
        return s;
    }

    /** Rebuild the sampler from a checkpoint. */
    void
    restoreState(const SamplerState& s)
    {
        last_cycle_ = s.lastCycle;
        prev_ = s.prev;
        samples_ = s.samples;
    }

  private:
    SmId sm_;
    Cycle epoch_length_;
    Cycle last_cycle_ = 0;
    EpochCounters prev_;
    std::vector<EpochSample> samples_;
};

/**
 * Owns the per-SM samplers of one metered simulation. The driver
 * (Gpu::runPrograms) calls prepare() before dispatching SM jobs; each
 * job fetches its own sampler with sampler(sm).
 */
class Collector
{
  public:
    /**
     * Create (or re-create) one sampler per SM, sampling every
     * @p config_epoch_length cycles (1000 when that is 0). Not
     * thread-safe.
     */
    void
    prepare(std::uint32_t num_sms, Cycle config_epoch_length)
    {
        epoch_length_ =
            config_epoch_length != 0 ? config_epoch_length : 1000;
        samplers_.clear();
        samplers_.reserve(num_sms);
        for (std::uint32_t s = 0; s < num_sms; ++s)
            samplers_.push_back(
                std::make_unique<EpochSampler>(s, epoch_length_));
    }

    /** Sampler of @p sm, or null when not prepared. */
    EpochSampler*
    sampler(SmId sm)
    {
        return sm < samplers_.size() ? samplers_[sm].get() : nullptr;
    }

    const EpochSampler*
    sampler(SmId sm) const
    {
        return sm < samplers_.size() ? samplers_[sm].get() : nullptr;
    }

    std::uint32_t
    numSms() const
    {
        return static_cast<std::uint32_t>(samplers_.size());
    }

    /** Effective sampling period (valid after prepare()). */
    Cycle epochLength() const { return epoch_length_; }

    /** Samples retained across all SMs. */
    std::size_t
    totalSamples() const
    {
        std::size_t n = 0;
        for (const auto& s : samplers_)
            n += s->samples().size();
        return n;
    }

    /**
     * Wall-clock phase timers the driver fills while the collector is
     * attached (workloadGen, simLoop, energyModel, export). Lives here
     * so one handle carries both the deterministic time-series and the
     * non-deterministic self-profile.
     */
    PhaseTimers profile;

    /**
     * Fast-forward coverage summed over every SM of the runs this
     * collector observed: cycles jumped and spans taken. Like the phase
     * timers it differs between FF on and off, so only the opt-in
     * profile section (wgsim --profile) publishes it.
     */
    std::uint64_t ffSkippedCycles = 0;
    std::uint64_t ffSpans = 0;

  private:
    Cycle epoch_length_ = 0;
    std::vector<std::unique_ptr<EpochSampler>> samplers_;
};

/**
 * Detached snapshot of a metered run's epoch time-series, in the
 * canonical SM-major order the exporters use. Unlike the Collector it
 * owns its samples, so it can outlive the Gpu/Collector pair and sit
 * in the serve-layer result cache.
 */
struct EpochSeries
{
    Cycle epochLength = 0;
    std::vector<std::vector<EpochSample>> perSm; ///< SM-major

    std::uint32_t
    numSms() const
    {
        return static_cast<std::uint32_t>(perSm.size());
    }

    std::size_t
    totalSamples() const
    {
        std::size_t n = 0;
        for (const auto& v : perSm)
            n += v.size();
        return n;
    }
};

/**
 * Copy a finished run's per-SM sample vectors into an EpochSeries,
 * SM-major. Call after every SM job has completed (the cell boundary).
 */
inline EpochSeries
buildSeries(const Collector& collector)
{
    EpochSeries series;
    series.epochLength = collector.epochLength();
    series.perSm.reserve(collector.numSms());
    for (std::uint32_t s = 0; s < collector.numSms(); ++s)
        series.perSm.push_back(collector.sampler(s)->samples());
    return series;
}

} // namespace wg::metrics

