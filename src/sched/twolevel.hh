/**
 * @file
 * Baseline two-level warp scheduler (Gebhart et al., ISCA 2011), as used
 * by the paper's baseline: issue from the active warps set in
 * least-recently-issued order, with no regard for instruction type.
 */

#pragma once

#include "sched/scheduler.hh"

namespace wg {

/**
 * Type-agnostic round-robin over the active set: every class shares
 * one rank, and the SM's least-recently-issued order decides.
 */
class TwoLevelScheduler : public Scheduler
{
  public:
    void beginCycle(Cycle now, const SchedView& view) override;

    IssuePriority priority() const override { return {}; }

    void notifyIssue(WarpId warp, UnitClass uc) override;

    UnitClass highestPriority() const override;

    /** beginCycle is a no-op: nothing ever bounds a fast-forward. */
    Cycle
    nextEventCycle(Cycle now, const SchedView& view) const override
    {
        (void)now;
        (void)view;
        return kNeverCycle;
    }

    void
    fastForward(Cycle from, Cycle n, const SchedView& view) override
    {
        (void)from;
        (void)n;
        (void)view;
    }

    void
    saveState(SchedulerState& out) const override
    {
        out.hiClass = static_cast<std::uint8_t>(last_issued_);
    }

    void
    restoreState(const SchedulerState& s) override
    {
        last_issued_ = static_cast<UnitClass>(s.hiClass);
    }

  private:
    UnitClass last_issued_ = UnitClass::Int;
};

} // namespace wg
