/**
 * @file
 * Latency/MSHR model of the per-SM memory system.
 *
 * The power-gating study needs the memory system for one thing: to
 * create the long-latency events that move warps between the two-level
 * scheduler's active and pending sets, and to throttle LD/ST issue when
 * too many misses are outstanding. A full cache hierarchy is therefore
 * modelled as (a) a latency distribution per access class and (b) a
 * bounded miss-status-holding-register (MSHR) pool.
 */

#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "arch/instr.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "sched/bitmask.hh"
#include "trace/recorder.hh"

namespace wg {

/** Configuration for the memory model. */
struct MemConfig
{
    Cycle hitLatency = 12;      ///< shared-memory / L1-hit latency
    Cycle missLatencyMin = 300; ///< fastest L2/DRAM round trip
    Cycle missLatencyMax = 600; ///< slowest L2/DRAM round trip
    Cycle storeLatency = 8;     ///< store pipeline occupancy
    unsigned mshrLimit = 32;    ///< max outstanding long-latency misses

    /**
     * DRAM-bandwidth proxy: misses are serviced in batches of
     * serviceBatchSize every serviceBatchPeriod cycles (row-buffer hits
     * and multiple channels return data in clumps, not as a uniform
     * trickle). The ratio fixes average per-SM bandwidth: 4 lines per
     * 64 cycles is roughly GTX480's ~177 GB/s shared across 15 SMs.
     * Misses in one batch complete together (one latency draw per
     * batch), which preserves the bursty wakeup pattern real DRAM
     * produces.
     */
    Cycle serviceBatchPeriod = 96;
    unsigned serviceBatchSize = 4;
};

/**
 * Checkpoint state of the memory system: the RNG stream position, the
 * open service batch, the in-flight miss heap (sorted ascending for
 * canonical bytes) and the lifetime counters.
 */
struct MemSystemState {
    RngState rng;                  ///< latency-draw stream position
    Cycle batchTime = 0;           ///< service time of the filling batch
    std::uint32_t batchUsed = 0;   ///< misses already in that batch
    Cycle batchLatency = 0;        ///< latency draw for that batch
    bool batchValid = false;       ///< a batch has been opened
    std::vector<Cycle> inflight;   ///< outstanding miss completions
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t mshrRejects = 0;

    static constexpr auto
    fields()
    {
        using S = MemSystemState;
        return std::tuple{field("rng", &S::rng),
                          field("batchTime", &S::batchTime),
                          field("batchUsed", &S::batchUsed),
                          field("batchLatency", &S::batchLatency),
                          field("batchValid", &S::batchValid),
                          field("inflight", &S::inflight),
                          field("hits", &S::hits),
                          field("misses", &S::misses),
                          field("stores", &S::stores),
                          field("mshrRejects", &S::mshrRejects)};
    }
};

/**
 * Per-SM memory system. Accessed by the LD/ST pipeline; tracks
 * outstanding misses and produces per-access latencies.
 */
class MemorySystem
{
  public:
    MemorySystem(const MemConfig& config, Rng rng);

    /**
     * Whether a new access of class @p mem can be accepted this cycle
     * (misses are rejected when the MSHR pool is full).
     */
    bool
    canAccept(MemClass mem) const
    {
        return mem != MemClass::Miss || inflight_.size() < config_.mshrLimit;
    }

    /**
     * Start an access; @return its completion cycle.
     * @param now current cycle
     * @param mem access class (must not be MemClass::None)
     * @param is_store stores complete in storeLatency regardless of class
     */
    Cycle access(Cycle now, MemClass mem, bool is_store);

    /** Retire misses whose data returned at or before @p now. */
    void tick(Cycle now);

    /**
     * Cycle of the next in-flight miss return (the next cycle tick()
     * would change MSHR occupancy), or kNeverCycle when nothing is in
     * flight. Used by the event-horizon fast-forward.
     */
    Cycle
    nextEventCycle() const
    {
        return inflight_.empty() ? kNeverCycle : inflight_.top();
    }

    /** @return outstanding long-latency misses. */
    unsigned outstanding() const
    {
        return static_cast<unsigned>(inflight_.size());
    }

    /** Total accesses served, by class (for stats). */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t stores() const { return stores_; }

    /** LD/ST issue attempts rejected for MSHR capacity (one per
     *  refused attempt, so a stalled cycle can count several). */
    std::uint64_t mshrRejects() const { return mshr_rejects_; }

    /**
     * Record @p count issue attempts at cycle @p now rejected for MSHR
     * capacity. Traced callers pass one tally of one cycle, at most one
     * attempt per resident warp; the recorder extends the open
     * MshrReject run when the previous cycle refused as many attempts,
     * else opens a new run (arg = @p count, value = cycles).
     */
    void
    noteRejects(std::uint64_t count, Cycle now = 0)
    {
        static_assert(kMaxWarpsPerSm <= UINT8_MAX,
                      "a tally refuses at most one attempt per resident "
                      "warp; its count must fit Event::arg");
        mshr_rejects_ += count;
        if (trace_ && count > 0)
            trace_->recordReject(now,
                                 static_cast<std::uint8_t>(UnitClass::Ldst),
                                 static_cast<std::uint8_t>(count));
    }

    /** Attach a trace recorder (null = tracing off). */
    void setTrace(trace::Recorder* recorder) { trace_ = recorder; }

    /** Capture complete model state for a checkpoint. */
    MemSystemState saveState() const;

    /** Rebuild the model mid-flight from a captured MemSystemState. */
    void restoreState(const MemSystemState& s);

  private:
    /** Draw one DRAM round-trip latency. */
    Cycle drawMissLatency();

    MemConfig config_;
    Rng rng_;
    Cycle batch_time_ = 0;      ///< service time of the filling batch
    unsigned batch_used_ = 0;   ///< misses already in that batch
    Cycle batch_latency_ = 0;   ///< latency draw for that batch
    bool batch_valid_ = false;  ///< a batch has been opened
    // Min-heap of completion cycles of outstanding misses.
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        inflight_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t mshr_rejects_ = 0;
    trace::Recorder* trace_ = nullptr;
};

// The per-cycle path is defined here, not in memsys.cc, so the SM's
// step compiles it inline (DESIGN §14 "One inlined stepped cycle").

inline Cycle
MemorySystem::access(Cycle now, MemClass mem, bool is_store)
{
    if (mem == MemClass::None)
        panic("MemorySystem::access with MemClass::None");

    if (is_store) {
        // Stores retire through a write buffer: short occupancy and no
        // MSHR pressure in this model.
        ++stores_;
        return now + config_.storeLatency;
    }

    if (mem == MemClass::Hit) {
        ++hits_;
        return now + config_.hitLatency;
    }

    ++misses_;
    // Bandwidth: assign the miss to the first DRAM service batch at or
    // after `now` with free capacity; all misses of one batch complete
    // together.
    const Cycle period = config_.serviceBatchPeriod;
    Cycle round_up = ((now + period - 1) / period) * period;
    if (!batch_valid_ || batch_time_ < round_up) {
        batch_time_ = round_up;
        batch_used_ = 0;
        batch_latency_ = drawMissLatency();
        batch_valid_ = true;
    }
    while (batch_used_ >= config_.serviceBatchSize) {
        batch_time_ += period;
        batch_used_ = 0;
        batch_latency_ = drawMissLatency();
    }
    ++batch_used_;
    Cycle done = batch_time_ + batch_latency_;
    inflight_.push(done);
    if (trace_)
        trace_->record(now, trace::EventKind::MshrFill,
                       static_cast<std::uint8_t>(UnitClass::Ldst),
                       trace::kNoCluster, 0, outstanding());
    return done;
}

inline Cycle
MemorySystem::drawMissLatency()
{
    Cycle span = config_.missLatencyMax - config_.missLatencyMin + 1;
    return config_.missLatencyMin +
           rng_.nextRange(static_cast<std::uint32_t>(span));
}

inline void
MemorySystem::tick(Cycle now)
{
    while (!inflight_.empty() && inflight_.top() <= now) {
        inflight_.pop();
        if (trace_)
            trace_->record(now, trace::EventKind::MshrDrain,
                           static_cast<std::uint8_t>(UnitClass::Ldst),
                           trace::kNoCluster, 0, outstanding());
    }
}

} // namespace wg

