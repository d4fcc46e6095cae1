/**
 * @file
 * Per-SM ring-buffer event recorder and the whole-GPU collector.
 *
 * Instrumentation sites hold a `Recorder*` that is null when tracing is
 * off, so the disabled path is a single predictable branch — no event
 * is ever allocated. One Recorder belongs to exactly one SM and is only
 * touched from that SM's simulation thread; the Collector pre-creates
 * all recorders before any worker starts, so pooled runs never share or
 * race on trace state and serial/pooled traces are bit-identical.
 *
 * The buffer is a true ring: when capacity is exceeded the oldest
 * events are overwritten (the most recent window is what post-mortem
 * debugging wants) and `overwritten()` reports how many were lost so
 * sinks and the invariant checker can flag truncated streams.
 *
 * An MSHR-full stall spans cycles, so it is recorded as runs: one
 * MshrReject per run of consecutive cycles refusing the same number of
 * attempts (recordReject), grown in place while the stall lasts.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hh"
#include "trace/event.hh"

namespace wg::trace {

/** Recording limits and filters. */
struct RecorderConfig
{
    /** Events retained per SM before the ring wraps. */
    std::size_t capacity = 1u << 20;
    /** Record only this SM id; -1 records every SM. */
    std::int64_t smFilter = -1;
};

/** Event ring of one SM. */
class Recorder
{
  public:
    Recorder(SmId sm, std::size_t capacity);

    /**
     * Append one event (overwrites the oldest when full). An
     * MshrReject becomes the open run; overwriting the open run's slot
     * closes it.
     */
    void
    record(Cycle cycle, EventKind kind, std::uint8_t unit = kNoUnit,
           std::uint8_t cluster = kNoCluster, std::uint8_t arg = 0,
           std::uint32_t value = 0)
    {
        if (kind == EventKind::MshrReject)
            open_ = next_;
        else if (next_ == open_)
            open_ = kNoRun;
        Event& e = ring_[next_];
        e.cycle = cycle;
        e.kind = kind;
        e.unit = unit;
        e.cluster = cluster;
        e.arg = arg;
        e.value = value;
        next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
        if (size_ < capacity_)
            ++size_;
        else
            ++overwritten_;
    }

    /**
     * Record one tally of @p attempts MSHR-refused issue attempts at
     * @p cycle. The open run (the newest retained MshrReject) grows by
     * one cycle when it ends at @p cycle with the same attempts;
     * otherwise a new run of one cycle opens. Other events may fall
     * between a run's cycles.
     */
    void
    recordReject(Cycle cycle, std::uint8_t unit, std::uint8_t attempts)
    {
        if (open_ != kNoRun) {
            Event& run = ring_[open_];
            if (run.arg == attempts && run.cycle + run.value == cycle &&
                run.value != UINT32_MAX) {
                ++run.value;
                return;
            }
        }
        record(cycle, EventKind::MshrReject, unit, kNoCluster, attempts,
               1);
    }

    SmId sm() const { return sm_; }

    /** Events currently retained. */
    std::size_t size() const { return size_; }

    /** Events lost to ring wrap-around. */
    std::uint64_t overwritten() const { return overwritten_; }

    std::size_t capacity() const { return capacity_; }

    /** Retained events, oldest first. */
    std::vector<Event> events() const;

    /**
     * Rebuild the ring from a checkpoint: re-record @p events (oldest
     * first) into an empty ring and carry over the pre-checkpoint
     * wrap-around loss, so a resumed trace serializes byte-identically
     * to the uninterrupted one. Re-recording reopens the newest
     * MshrReject, so a run cut by the checkpoint keeps growing.
     */
    void
    restore(const std::vector<Event>& events, std::uint64_t overwritten)
    {
        next_ = 0;
        size_ = 0;
        open_ = kNoRun;
        overwritten_ = overwritten;
        for (const Event& e : events)
            record(e.cycle, e.kind, e.unit, e.cluster, e.arg, e.value);
    }

    /**
     * Retained events, oldest first, as at most two contiguous runs
     * (either may be empty): a wrapped ring is [next_, end) then
     * [0, next_).
     */
    std::array<std::span<const Event>, 2>
    spans() const
    {
        const std::size_t start = size_ == capacity_ ? next_ : 0;
        const std::size_t tail = std::min(size_, capacity_ - start);
        return {{{ring_.get() + start, tail}, {ring_.get(), size_ - tail}}};
    }

    /** Visit retained events oldest-first without copying. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::span<const Event> run : spans())
            for (const Event& e : run)
                fn(e);
    }

  private:
    static constexpr std::size_t kNoRun = SIZE_MAX;

    SmId sm_;
    /** Frees the ring's raw storage. */
    struct RawDelete
    {
        void operator()(Event* p) const { ::operator delete(p); }
    };

    /**
     * Ring storage, left uninitialised: record() writes each slot
     * before anything reads it, so the pages are first touched by the
     * SM's own worker instead of serially in Collector::prepare().
     */
    std::unique_ptr<Event[], RawDelete> ring_;
    std::size_t capacity_;
    std::size_t next_ = 0;
    /** Slot of the open MshrReject run, or kNoRun. */
    std::size_t open_ = kNoRun;
    std::size_t size_ = 0;
    std::uint64_t overwritten_ = 0;
};

/**
 * Owns the per-SM recorders of one traced simulation. The driver
 * (Gpu::runPrograms) calls prepare() before dispatching SM jobs and
 * each job fetches its own recorder with recorder(sm) — null when the
 * SM is filtered out.
 */
class Collector
{
  public:
    explicit Collector(const RecorderConfig& config = {});

    /** Create (or re-create) one recorder per SM. Not thread-safe. */
    void prepare(std::uint32_t num_sms);

    /** Recorder of @p sm, or null when filtered / not prepared. */
    Recorder* recorder(SmId sm);
    const Recorder* recorder(SmId sm) const;

    /** Number of prepared SM slots (filtered slots included). */
    std::uint32_t numSms() const
    {
        return static_cast<std::uint32_t>(recorders_.size());
    }

    /** Events retained across all SMs. */
    std::size_t totalEvents() const;

    /** Events lost to wrap-around across all SMs. */
    std::uint64_t totalOverwritten() const;

    const RecorderConfig& config() const { return config_; }

    /** Run metadata; filled by the driver, consumed by sinks. */
    Meta meta;

  private:
    RecorderConfig config_;
    std::vector<std::unique_ptr<Recorder>> recorders_;
};

} // namespace wg::trace

