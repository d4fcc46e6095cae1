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

#include <atomic>
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
 * Bounded single-producer/single-consumer ring. The producer is one SM
 * job thread, the consumer is whoever merges the stream; the two never
 * block each other. Capacity rounds up to a power of two.
 */
template <typename T>
class SpscRing
{
  public:
    explicit SpscRing(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    /** Producer side; false (and no write) when the ring is full. */
    bool
    tryPush(const T& v)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        const std::size_t head = head_.load(std::memory_order_acquire);
        if (tail - head > mask_)
            return false;
        slots_[tail & mask_] = v;
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side; false when the ring is empty. */
    bool
    tryPop(T& out)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        if (head == tail)
            return false;
        out = slots_[head & mask_];
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

  private:
    std::vector<T> slots_;
    std::size_t mask_ = 0;
    std::atomic<std::size_t> head_{0};
    std::atomic<std::size_t> tail_{0};
};

/**
 * Streaming transport between the per-SM samplers and a merger: one
 * SPSC ring per SM, pushed from the SM's job thread as each epoch
 * closes and drained in SM order at the cell boundary. A full ring
 * never blocks the simulation — the push is dropped and counted, and
 * the merger falls back to the sampler's retained vector, which stays
 * authoritative. The streamed series is therefore always bit-identical
 * to the offline one regardless of ring pressure.
 */
class EpochStreamSink
{
  public:
    explicit EpochStreamSink(std::size_t ring_capacity = 4096)
        : ring_capacity_(ring_capacity ? ring_capacity : 1)
    {
    }

    /** Create one empty ring per SM. Not thread-safe. */
    void
    prepare(std::uint32_t num_sms)
    {
        lanes_.clear();
        lanes_.reserve(num_sms);
        for (std::uint32_t s = 0; s < num_sms; ++s)
            lanes_.push_back(std::make_unique<Lane>(ring_capacity_));
    }

    std::uint32_t
    numSms() const
    {
        return static_cast<std::uint32_t>(lanes_.size());
    }

    /** Producer side (SM job thread); drops-and-counts when full. */
    void
    push(SmId sm, const EpochSample& s)
    {
        if (sm >= lanes_.size())
            return;
        Lane& lane = *lanes_[sm];
        if (!lane.ring.tryPush(s))
            lane.overflow.fetch_add(1, std::memory_order_relaxed);
    }

    /** Consumer side; pops the oldest undelivered sample of @p sm. */
    bool
    pop(SmId sm, EpochSample& out)
    {
        if (sm >= lanes_.size())
            return false;
        return lanes_[sm]->ring.tryPop(out);
    }

    /** Samples dropped on push across all SMs. */
    std::uint64_t
    overflows() const
    {
        std::uint64_t n = 0;
        for (const auto& lane : lanes_)
            n += lane->overflow.load(std::memory_order_relaxed);
        return n;
    }

    /** Samples dropped on push for one SM. */
    std::uint64_t
    overflows(SmId sm) const
    {
        if (sm >= lanes_.size())
            return 0;
        return lanes_[sm]->overflow.load(std::memory_order_relaxed);
    }

  private:
    struct Lane
    {
        explicit Lane(std::size_t capacity) : ring(capacity) {}
        SpscRing<EpochSample> ring;
        std::atomic<std::uint64_t> overflow{0};
    };

    std::size_t ring_capacity_;
    std::vector<std::unique_ptr<Lane>> lanes_;
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
    EpochSampler(SmId sm, Cycle epoch_length,
                 EpochStreamSink* sink = nullptr)
        : sm_(sm), epoch_length_(epoch_length ? epoch_length : 1),
          sink_(sink)
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
        if (sink_ != nullptr)
            sink_->push(sm_, s);
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

    /**
     * Rebuild the sampler from a checkpoint. Restored samples are NOT
     * replayed into an attached stream sink — a resumed run streams
     * only the epochs it simulates itself.
     */
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
    EpochStreamSink* sink_;
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
     * @param epoch_length sampling period override; 0 takes the
     *        config's adaptive-epoch length at prepare() time.
     */
    explicit Collector(Cycle epoch_length = 0)
        : epoch_override_(epoch_length)
    {
    }

    /**
     * Route every sampled epoch into @p sink as well as the retained
     * per-SM vectors. Must be called before prepare(); the sink must
     * outlive the run.
     */
    void attachSink(EpochStreamSink* sink) { sink_ = sink; }

    /** The attached streaming sink, or null. */
    EpochStreamSink* sink() const { return sink_; }

    /** Create (or re-create) one sampler per SM. Not thread-safe. */
    void
    prepare(std::uint32_t num_sms, Cycle config_epoch_length)
    {
        epoch_length_ = epoch_override_ ? epoch_override_
                                        : config_epoch_length;
        if (epoch_length_ == 0)
            epoch_length_ = 1000;
        if (sink_ != nullptr)
            sink_->prepare(num_sms);
        samplers_.clear();
        samplers_.reserve(num_sms);
        for (std::uint32_t s = 0; s < num_sms; ++s)
            samplers_.push_back(
                std::make_unique<EpochSampler>(s, epoch_length_, sink_));
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

  private:
    Cycle epoch_override_;
    Cycle epoch_length_ = 0;
    EpochStreamSink* sink_ = nullptr;
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
    std::uint64_t ringOverflows = 0; ///< pushes the stream rings missed

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
 * Merge a finished run's stream into an EpochSeries, SM-major. Call
 * after every SM job has completed (the cell boundary). When the
 * collector carries a stream sink the samples are drained from its
 * rings; a lane that overflowed (or drained short) is rebuilt from the
 * sampler's retained vector, so the result is bit-identical either
 * way and ringOverflows records how often the fallback fired.
 */
inline EpochSeries
buildSeries(const Collector& collector)
{
    EpochSeries series;
    series.epochLength = collector.epochLength();
    series.perSm.resize(collector.numSms());
    EpochStreamSink* sink = collector.sink();
    for (std::uint32_t s = 0; s < collector.numSms(); ++s) {
        const EpochSampler* sampler = collector.sampler(s);
        std::vector<EpochSample>& out = series.perSm[s];
        if (sink != nullptr) {
            EpochSample sample;
            while (sink->pop(s, sample))
                out.push_back(sample);
            const std::uint64_t missed = sink->overflows(s);
            if (missed == 0 && out.size() == sampler->samples().size())
                continue;
            series.ringOverflows += missed ? missed : 1;
        }
        out = sampler->samples();
    }
    return series;
}

} // namespace wg::metrics

