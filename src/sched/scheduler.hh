/**
 * @file
 * Warp-scheduler interface.
 *
 * A scheduler's job each cycle is (a) to observe the state of the
 * active-warps set (typed ready/active counters, power-gating state of
 * the INT/FP clusters) and (b) to order the issue-ready active warps
 * into a candidate list. The SM walks the list, issuing up to
 * issue-width instructions subject to structural checks.
 *
 * The view is bitmask/SoA based: per-class 64-bit ready masks (bit w =
 * warp w's head is class c, scoreboard-ready, and the warp is in the
 * active set), the active-set membership mask, and a pointer into the
 * SM's least-recently-issued order of the active set. Scheduler
 * policies reduce to word-wide mask operations (GTO is a pure
 * firstHot rotation) plus, where the policy is LRI-relative (GATES,
 * two-level), one masked pass over the LRI array.
 *
 * Mask invariants (checked by tests, documented in DESIGN.md §14):
 *   readyMask[c] ⊆ activeMask           (ready warps are active)
 *   readyMask[a] ∩ readyMask[b] = ∅     (one head class per warp)
 *   popcount(readyMask[c]) == rdy[c]
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "arch/instr.hh"
#include "common/fields.hh"
#include "common/types.hh"
#include "sched/bitmask.hh"
#include "trace/recorder.hh"

namespace wg {

/**
 * Per-cycle view of the active warps set handed to the scheduler before
 * candidate ordering. Mirrors the counters the paper adds in Fig. 7 —
 * INT_ACTV/FP_ACTV (decoded instructions of each type in the active
 * subset) and the per-type ready counters (INT_RDY, FP_RDY, SFU_RDY,
 * LDST_RDY) — plus the per-class ready bitmasks those counters are the
 * popcounts of, and the blackout status of the gateable clusters for
 * Coordinated Blackout's priority-switch extension.
 */
struct SchedView
{
    /** Decoded i-buffer instructions of class c across active warps. */
    std::array<std::uint32_t, kNumUnitClasses> actv = {};
    /** Active warps whose head instruction is class c and ready. */
    std::array<std::uint32_t, kNumUnitClasses> rdy = {};
    /** Bitmask form of rdy: bit w set iff warp w is a class-c ready
     *  head in the active set. Disjoint across classes. */
    std::array<WarpMask, kNumUnitClasses> readyMask = {};
    /** Warps currently in the active set. */
    WarpMask activeMask = 0;
    /** Active warps in least-recently-issued order (front = LRI);
     *  numActive entries. Null in synthetic views (treated as empty). */
    const WarpId* lri = nullptr;
    std::size_t numActive = 0;
    /** Per-warp head class, indexed by warp id (SoA; valid for every
     *  warp with a readyMask bit). Null in synthetic views. */
    const UnitClass* headClass = nullptr;
    /** Power-gated (blackout) state of INT clusters 0/1. */
    std::array<bool, 2> intBlackout = {false, false};
    /** Power-gated (blackout) state of FP clusters 0/1. */
    std::array<bool, 2> fpBlackout = {false, false};

    /** Union of the per-class ready masks. */
    WarpMask
    readyAny() const
    {
        return readyMask[0] | readyMask[1] | readyMask[2] | readyMask[3];
    }
};

/**
 * Checkpoint state shared by every scheduler policy. One flat struct
 * instead of a per-policy hierarchy keeps the snapshot codec a single
 * field table; policies use the subset they need and leave the rest at
 * the defaults (which restore as no-ops for them).
 */
struct SchedulerState {
    std::uint8_t hiClass = 0;     ///< GATES hi_ / two-level last_issued_
                                  ///< / GTO last_class_ (UnitClass)
    Cycle lastSwitch = 0;         ///< GATES last priority-switch cycle
    std::uint64_t switches = 0;   ///< GATES dynamic switch count
    std::uint32_t greedyWarp = ~std::uint32_t(0); ///< GTO greedy warp
    Cycle now = 0;                ///< GTO latched cycle

    static constexpr auto
    fields()
    {
        using S = SchedulerState;
        return std::tuple{field("hiClass", &S::hiClass),
                          field("lastSwitch", &S::lastSwitch),
                          field("switches", &S::switches),
                          field("greedyWarp", &S::greedyWarp),
                          field("now", &S::now)};
    }
};

/**
 * Abstract warp scheduler. Implementations: TwoLevelScheduler (the
 * Gebhart-style baseline), GatesScheduler (the paper's contribution)
 * and GtoScheduler (GPGPU-Sim's default, an extra baseline).
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Observe this cycle's active-set state; update internal priority. */
    virtual void beginCycle(Cycle now, const SchedView& view) = 0;

    /**
     * Order issue candidates: the ready warps (view.readyAny()),
     * highest priority first, written to @p out as warp ids. Warps
     * without a ready head are never candidates — a failed readiness
     * probe has no side effects, so omitting them cannot change which
     * warps issue.
     */
    virtual void order(const SchedView& view,
                       std::vector<WarpId>& out) = 0;

    /** Notification that a candidate actually issued. */
    virtual void notifyIssue(WarpId warp, UnitClass uc) = 0;

    /**
     * First cycle >= @p now at which beginCycle under this (constant)
     * view would change scheduler state in a way a plain per-cycle
     * replay (fastForward) could not reproduce, bounding how far the
     * SM may fast-forward. kNeverCycle when every future cycle is
     * replayable. The conservative default disables fast-forwarding
     * for schedulers that do not opt in.
     */
    virtual Cycle
    nextEventCycle(Cycle now, const SchedView& view) const
    {
        (void)view;
        return now;
    }

    /**
     * Replay the skipped cycles [from, from + n) under the constant
     * @p view. The default replays beginCycle per cycle, which is
     * exact for any scheduler; implementations override it with an
     * O(1) (or early-exit) equivalent where possible.
     */
    virtual void
    fastForward(Cycle from, Cycle n, const SchedView& view)
    {
        for (Cycle i = 0; i < n; ++i)
            beginCycle(from + i, view);
    }

    /** Highest-priority class this cycle (diagnostics / tests). */
    virtual UnitClass highestPriority() const = 0;

    /** Count of dynamic priority switches (diagnostics). */
    virtual std::uint64_t prioritySwitches() const { return 0; }

    /** Capture policy state into @p out (checkpoint). Stateless
     *  policies keep the defaults. */
    virtual void saveState(SchedulerState& out) const { (void)out; }

    /** Restore policy state captured by saveState(). */
    virtual void restoreState(const SchedulerState& s) { (void)s; }

    /** Attach a trace recorder (null = tracing off). */
    void setTrace(trace::Recorder* recorder) { trace_ = recorder; }

  protected:
    trace::Recorder* trace_ = nullptr;
};

} // namespace wg
