#include "memsys.hh"

#include "common/logging.hh"

namespace wg {

MemorySystem::MemorySystem(const MemConfig& config, Rng rng)
    : config_(config), rng_(rng)
{
    if (config_.missLatencyMax < config_.missLatencyMin)
        fatal("MemConfig: missLatencyMax < missLatencyMin");
    if (config_.mshrLimit == 0)
        fatal("MemConfig: mshrLimit must be positive");
}

Cycle
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

Cycle
MemorySystem::drawMissLatency()
{
    Cycle span = config_.missLatencyMax - config_.missLatencyMin + 1;
    return config_.missLatencyMin +
           rng_.nextRange(static_cast<std::uint32_t>(span));
}

void
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

MemSystemState
MemorySystem::saveState() const
{
    MemSystemState s;
    s.rng = rng_.saveState();
    s.batchTime = batch_time_;
    s.batchUsed = batch_used_;
    s.batchLatency = batch_latency_;
    s.batchValid = batch_valid_;
    auto heap = inflight_;
    while (!heap.empty()) {
        s.inflight.push_back(heap.top());
        heap.pop();
    }
    s.hits = hits_;
    s.misses = misses_;
    s.stores = stores_;
    s.mshrRejects = mshr_rejects_;
    return s;
}

void
MemorySystem::restoreState(const MemSystemState& s)
{
    rng_.restoreState(s.rng);
    batch_time_ = s.batchTime;
    batch_used_ = s.batchUsed;
    batch_latency_ = s.batchLatency;
    batch_valid_ = s.batchValid;
    inflight_ = {};
    for (Cycle c : s.inflight)
        inflight_.push(c);
    hits_ = s.hits;
    misses_ = s.misses;
    stores_ = s.stores;
    mshr_rejects_ = s.mshrRejects;
}

} // namespace wg
