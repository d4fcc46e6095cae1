/**
 * @file
 * GATES — the Gating-Aware Two-level Scheduler (paper Sections 4 and 6).
 *
 * GATES extends the two-level scheduler with a priority-based issue
 * arbiter. Instruction classes are ordered [HI, LDST, SFU, LO] where
 * {HI, LO} = {INT, FP}: the integer and floating-point classes are
 * pushed to the two ends of the priority so that the low-priority unit
 * type enjoys long idle periods while ready warps of its type accumulate.
 *
 * Dynamic priority switching: INT starts as HI. When the HI type's
 * active-warp subset drains while the other type still has active warps
 * (ACTV counters), HI and LO swap. With Coordinated Blackout the
 * priority also switches when both clusters of the HI type are in
 * blackout (paper Section 5).
 */

#pragma once

#include "sched/scheduler.hh"

namespace wg {

/** Tunables for GATES. */
struct GatesConfig
{
    /**
     * Optional fairness bound: force a HI/LO swap after this many
     * cycles without one (0 disables; the paper mentions the designer
     * may set a large maximum switching threshold).
     */
    Cycle maxPriorityHold = 0;

    /** Honour blackout state in priority switching (Coordinated). */
    bool switchOnBlackout = true;
};

/** The gating-aware scheduler. */
class GatesScheduler : public Scheduler
{
  public:
    explicit GatesScheduler(const GatesConfig& config = {});

    void beginCycle(Cycle now, const SchedView& view) override;

    /** Class rank [HI, LDST, SFU, LO], least recently issued first
     *  within a class. */
    IssuePriority priority() const override;

    void notifyIssue(WarpId warp, UnitClass uc) override;

    UnitClass highestPriority() const override { return hi_; }

    /**
     * Under a constant view the switch rules either fire immediately
     * (event at `now`), fire at a known future cycle (the fairness
     * hold), flip-flop every cycle (both types fully gated with active
     * warps on each side — replayable, so not an event), or never fire.
     */
    Cycle nextEventCycle(Cycle now, const SchedView& view) const override;

    /** Per-cycle replay with early exit once the span proves quiet. */
    void fastForward(Cycle from, Cycle n, const SchedView& view) override;

    std::uint64_t prioritySwitches() const override { return switches_; }

    void
    saveState(SchedulerState& out) const override
    {
        out.hiClass = static_cast<std::uint8_t>(hi_);
        out.lastSwitch = last_switch_;
        out.switches = switches_;
    }

    void
    restoreState(const SchedulerState& s) override
    {
        hi_ = static_cast<UnitClass>(s.hiClass);
        last_switch_ = s.lastSwitch;
        switches_ = s.switches;
    }

    // --- switch predicates (shared by beginCycle / nextEventCycle) ---
    //
    // beginCycle and nextEventCycle must agree on when a switch fires:
    // a drifted copy of these conditions would let fast-forward skip
    // over a cycle beginCycle would have switched on (silent result
    // divergence). They are public so the randomized consistency test
    // can drive them directly.

    /** Section 4.1 drain rule: HI subset empty, LO subset non-empty. */
    bool drainSwitchFires(const SchedView& view) const;

    /**
     * Section 5 Coordinated Blackout rule: both HI clusters gated and
     * the LO subset non-empty (and the extension is enabled).
     */
    bool blackoutSwitchFires(const SchedView& view) const;

    /**
     * True when the blackout rule would re-fire every cycle under a
     * constant view: both types fully gated with active warps on each
     * side. The swap alternates HI<->LO each cycle — a uniform
     * flip-flop the fastForward replay reproduces exactly, so it is
     * deliberately NOT a horizon event.
     */
    bool blackoutFlipFlop(const SchedView& view) const;

    /** Fairness rule: hold expired at @p now and LO is non-empty. */
    bool fairnessSwitchFires(Cycle now, const SchedView& view) const;

  private:
    void switchPriority(Cycle now);

    /** The LO class paired with the current HI. */
    UnitClass
    loClass() const
    {
        return hi_ == UnitClass::Int ? UnitClass::Fp : UnitClass::Int;
    }

    GatesConfig config_;
    UnitClass hi_ = UnitClass::Int; ///< current highest-priority class
    Cycle last_switch_ = 0;
    std::uint64_t switches_ = 0;
};

} // namespace wg
