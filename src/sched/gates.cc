#include "gates.hh"

namespace wg {

GatesScheduler::GatesScheduler(const GatesConfig& config) : config_(config)
{
}

void
GatesScheduler::switchPriority(Cycle now)
{
    hi_ = hi_ == UnitClass::Int ? UnitClass::Fp : UnitClass::Int;
    last_switch_ = now;
    ++switches_;
    if (trace_)
        trace_->record(now, trace::EventKind::PrioritySwitch,
                       static_cast<std::uint8_t>(hi_));
}

IssuePriority
GatesScheduler::priority() const
{
    // [HI, LDST, SFU, LO]; LDST outranks SFU (longer memory latency).
    IssuePriority p;
    p.classRank[static_cast<std::size_t>(hi_)] = 0;
    p.classRank[static_cast<std::size_t>(UnitClass::Ldst)] = 1;
    p.classRank[static_cast<std::size_t>(UnitClass::Sfu)] = 2;
    p.classRank[static_cast<std::size_t>(loClass())] = 3;
    return p;
}

bool
GatesScheduler::drainSwitchFires(const SchedView& view) const
{
    return view.actv[static_cast<std::size_t>(hi_)] == 0 &&
           view.actv[static_cast<std::size_t>(loClass())] > 0;
}

bool
GatesScheduler::blackoutSwitchFires(const SchedView& view) const
{
    if (!config_.switchOnBlackout)
        return false;
    // If both clusters of the HI type are gated, issuing HI is
    // impossible — flip so LO drains instead (Section 5, last
    // paragraph of Coordinated Blackout).
    const auto& hi_gated =
        hi_ == UnitClass::Int ? view.intBlackout : view.fpBlackout;
    return hi_gated[0] && hi_gated[1] &&
           view.actv[static_cast<std::size_t>(loClass())] > 0;
}

bool
GatesScheduler::blackoutFlipFlop(const SchedView& view) const
{
    if (!blackoutSwitchFires(view))
        return false;
    const auto& lo_gated =
        hi_ == UnitClass::Int ? view.fpBlackout : view.intBlackout;
    return lo_gated[0] && lo_gated[1] &&
           view.actv[static_cast<std::size_t>(hi_)] > 0;
}

bool
GatesScheduler::fairnessSwitchFires(Cycle now, const SchedView& view) const
{
    return config_.maxPriorityHold > 0 &&
           now - last_switch_ >= config_.maxPriorityHold &&
           view.actv[static_cast<std::size_t>(loClass())] > 0;
}

void
GatesScheduler::beginCycle(Cycle now, const SchedView& view)
{
    // Dynamic switching on a drained HI active subset (Section 4.1).
    if (drainSwitchFires(view)) {
        switchPriority(now);
        return;
    }

    // Coordinated Blackout extension.
    if (blackoutSwitchFires(view)) {
        switchPriority(now);
        return;
    }

    // Optional fairness bound.
    if (fairnessSwitchFires(now, view))
        switchPriority(now);
}

Cycle
GatesScheduler::nextEventCycle(Cycle now, const SchedView& view) const
{
    if (drainSwitchFires(view))
        return now;

    if (blackoutSwitchFires(view)) {
        // Both types fully gated with active warps on each side: the
        // swap re-fires every cycle — a uniform flip-flop the
        // fastForward loop replays exactly, not a horizon event.
        if (blackoutFlipFlop(view))
            return kNeverCycle;
        return now;
    }

    if (config_.maxPriorityHold > 0 &&
        view.actv[static_cast<std::size_t>(loClass())] > 0) {
        Cycle forced = last_switch_ + config_.maxPriorityHold;
        return forced < now ? now : forced;
    }
    return kNeverCycle;
}

void
GatesScheduler::fastForward(Cycle from, Cycle n, const SchedView& view)
{
    // Under a constant view, a cycle that does not switch proves no
    // later cycle in the span can (the fairness hold is a horizon
    // event), so one quiet iteration ends the replay. The blackout
    // flip-flop regime switches every iteration and runs the full
    // span, emitting its PrioritySwitch events in cycle order.
    for (Cycle i = 0; i < n; ++i) {
        const std::uint64_t before = switches_;
        beginCycle(from + i, view);
        if (switches_ == before)
            return;
    }
}

void
GatesScheduler::notifyIssue(WarpId warp, UnitClass uc)
{
    (void)warp;
    (void)uc;
}

} // namespace wg
