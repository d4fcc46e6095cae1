/**
 * @file
 * Greedy-Then-Oldest (GTO) warp scheduler.
 *
 * Not part of the paper's evaluation (it uses the two-level scheduler
 * as baseline), but GTO is GPGPU-Sim's default scheduler and the
 * standard point of comparison in the scheduling literature, so the
 * library ships it for scheduler studies: keep issuing from the same
 * warp while it stays ready ("greedy"), otherwise fall back to the
 * oldest warp.
 */

#pragma once

#include "sched/scheduler.hh"

namespace wg {

/** Greedy-then-oldest issue priority. */
class GtoScheduler : public Scheduler
{
  public:
    void beginCycle(Cycle now, const SchedView& view) override;

    /**
     * The last-issued warp first (greedy, if still ready), then the
     * remaining ready warps by warp id (age proxy: lower ids were
     * launched earlier).
     */
    IssuePriority
    priority() const override
    {
        IssuePriority p;
        p.byLri = false;
        p.lead = greedy_warp_;
        return p;
    }

    void notifyIssue(WarpId warp, UnitClass uc) override;

    UnitClass highestPriority() const override { return last_class_; }

    /**
     * beginCycle only latches `now` for notifyIssue's trace timestamp,
     * and an issue cycle always runs a real beginCycle first — skipped
     * cycles never bound a fast-forward.
     */
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
        out.hiClass = static_cast<std::uint8_t>(last_class_);
        out.greedyWarp = greedy_warp_;
        out.now = now_;
    }

    void
    restoreState(const SchedulerState& s) override
    {
        last_class_ = static_cast<UnitClass>(s.hiClass);
        greedy_warp_ = s.greedyWarp;
        now_ = s.now;
    }

  private:
    WarpId greedy_warp_ = ~WarpId(0);
    UnitClass last_class_ = UnitClass::Int;
    Cycle now_ = 0;
};

} // namespace wg
