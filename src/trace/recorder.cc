#include "recorder.hh"

#include <cstdint>
#include <cstring>
#include <new>

#include "common/logging.hh"

namespace wg::trace {

const char*
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Issue: return "issue";
      case EventKind::UnitIdle: return "unit-idle";
      case EventKind::UnitBusy: return "unit-busy";
      case EventKind::Gate: return "gate";
      case EventKind::BetExpire: return "bet-expire";
      case EventKind::WakeupDenied: return "wakeup-denied";
      case EventKind::Wakeup: return "wakeup";
      case EventKind::WakeupDone: return "wakeup-done";
      case EventKind::EpochUpdate: return "epoch-update";
      case EventKind::PrioritySwitch: return "priority-switch";
      case EventKind::GreedySwitch: return "greedy-switch";
      case EventKind::WarpMigrate: return "warp-migrate";
      case EventKind::MshrFill: return "mshr-fill";
      case EventKind::MshrDrain: return "mshr-drain";
      case EventKind::MshrReject: return "mshr-reject";
    }
    return "?";
}

const char*
gateReasonName(GateReason reason)
{
    switch (reason) {
      case GateReason::IdleDetect: return "idle-detect";
      case GateReason::CoordDrain: return "coord-drain";
    }
    return "?";
}

const char*
wakeReasonName(WakeReason reason)
{
    switch (reason) {
      case WakeReason::Demand: return "demand";
      case WakeReason::Critical: return "critical";
      case WakeReason::Uncompensated: return "uncompensated";
    }
    return "?";
}

bool
parseEventKind(const char* name, EventKind& out)
{
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
        const auto kind = static_cast<EventKind>(k);
        if (std::strcmp(name, eventKindName(kind)) == 0) {
            out = kind;
            return true;
        }
    }
    return false;
}

Recorder::Recorder(SmId sm, std::size_t capacity)
    : sm_(sm), capacity_(capacity)
{
    if (capacity == 0 || capacity > PTRDIFF_MAX / sizeof(Event))
        fatal("trace::Recorder: capacity must be positive and "
              "addressable");
    ring_.reset(
        static_cast<Event*>(::operator new(capacity * sizeof(Event))));
}

std::vector<Event>
Recorder::events() const
{
    std::vector<Event> out;
    out.reserve(size_);
    forEach([&out](const Event& e) { out.push_back(e); });
    return out;
}

Collector::Collector(const RecorderConfig& config) : config_(config)
{
}

void
Collector::prepare(std::uint32_t num_sms)
{
    recorders_.clear();
    recorders_.resize(num_sms);
    for (std::uint32_t s = 0; s < num_sms; ++s) {
        if (config_.smFilter >= 0 &&
            static_cast<std::int64_t>(s) != config_.smFilter)
            continue;
        recorders_[s] = std::make_unique<Recorder>(s, config_.capacity);
    }
}

Recorder*
Collector::recorder(SmId sm)
{
    if (sm >= recorders_.size())
        return nullptr;
    return recorders_[sm].get();
}

const Recorder*
Collector::recorder(SmId sm) const
{
    if (sm >= recorders_.size())
        return nullptr;
    return recorders_[sm].get();
}

std::size_t
Collector::totalEvents() const
{
    std::size_t n = 0;
    for (const auto& r : recorders_)
        if (r)
            n += r->size();
    return n;
}

std::uint64_t
Collector::totalOverwritten() const
{
    std::uint64_t n = 0;
    for (const auto& r : recorders_)
        if (r)
            n += r->overwritten();
    return n;
}

} // namespace wg::trace
