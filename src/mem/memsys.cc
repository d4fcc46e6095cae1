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
