/**
 * @file
 * Warp-scheduler interface.
 *
 * A scheduler's job each cycle is (a) to observe the state of the
 * active-warps set (typed ready/active counters, power-gating state of
 * the INT/FP clusters) and (b) to state its issue priority as a key
 * over the ready warps. The SM resolves the cycle's issue slots in
 * ascending key order, up to issue-width instructions, subject to
 * structural checks it evaluates once per unit class (DESIGN.md §14).
 *
 * The view is bitmask/SoA based: per-class 64-bit ready masks (bit w =
 * warp w's head is class c, scoreboard-ready, and the warp is in the
 * active set) and the active-set membership mask. A policy's key is a
 * class rank, a within-rank order (least recently issued first, or
 * warp id) and an optional lead warp; see IssuePriority.
 *
 * Mask invariants (checked by tests, documented in DESIGN.md §14):
 *   readyMask[c] ⊆ activeMask           (ready warps are active)
 *   readyMask[a] ∩ readyMask[b] = ∅     (one head class per warp)
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
 * it states the cycle's issue priority. Mirrors the counters the paper
 * adds in Fig. 7 — INT_ACTV/FP_ACTV (decoded instructions of each type
 * in the active subset) and the per-type ready counters (INT_RDY,
 * FP_RDY, SFU_RDY, LDST_RDY), the latter as per-class ready bitmasks
 * whose popcounts they are — plus the blackout status of the gateable
 * clusters for Coordinated Blackout's priority-switch extension.
 */
struct SchedView
{
    /** Decoded i-buffer instructions of class c across active warps. */
    std::array<std::uint32_t, kNumUnitClasses> actv = {};
    /** The RDY counters as masks: bit w set iff warp w is a class-c
     *  ready head in the active set. Disjoint across classes. */
    std::array<WarpMask, kNumUnitClasses> readyMask = {};
    /** Warps currently in the active set. */
    WarpMask activeMask = 0;
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
 * A policy's issue priority for one cycle, latched by the SM right
 * after beginCycle(). It defines a key over the ready warps, and the
 * SM probes them in ascending key order: the lead warp first, then by
 * class rank, then within a rank least recently issued first (byLri)
 * or by ascending warp id.
 */
struct IssuePriority
{
    /** Rank per unit class; lower ranks issue first. All equal for a
     *  class-blind policy. */
    std::array<std::uint8_t, kNumUnitClasses> classRank = {};
    /** Within a rank: LRI order (true) or ascending warp id (false). */
    bool byLri = true;
    /** A warp that outranks every other (GTO's greedy warp); ids
     *  outside the warp masks never match. */
    WarpId lead = ~WarpId(0);

    /** True when @p m holds the lead warp. */
    bool
    leads(WarpMask m) const
    {
        return lead < kMaxWarpsPerSm && hasWarp(m, lead);
    }
};

/**
 * The warps of @p m that precede warp @p w in @p p's key order. Every
 * warp of @p m and @p w itself must be in one of the disjoint class
 * masks @p by_class; @p lri_stamp increases along the least-recently-
 * issued order (indexed by warp id). Word-wide except for same-rank
 * LRI ties, which compare stamps bit by bit.
 */
inline WarpMask
keyedBefore(const IssuePriority& p,
            const std::array<WarpMask, kNumUnitClasses>& by_class,
            WarpMask m, WarpId w, const std::uint64_t* lri_stamp)
{
    if (w == p.lead)
        return 0;
    WarpMask out = 0;
    if (p.leads(m)) {
        out = warpBit(p.lead);
        m &= ~out;
    }
    std::size_t wc = 0;
    while (!hasWarp(by_class[wc], w))
        ++wc;
    const std::uint8_t rank_w = p.classRank[wc];
    for (std::size_t c = 0; c < kNumUnitClasses; ++c) {
        const WarpMask mc = m & by_class[c];
        if (mc == 0 || p.classRank[c] > rank_w)
            continue;
        if (p.classRank[c] < rank_w) {
            out |= mc;
        } else if (!p.byLri) {
            out |= mc & (warpBit(w) - 1);
        } else {
            const std::uint64_t sw = lri_stamp[w];
            forEachWarp(mc, [&](WarpId x) {
                if (lri_stamp[x] < sw)
                    out |= warpBit(x);
            });
        }
    }
    return out;
}

/**
 * The first warp of the non-empty mask @p m in @p p's key order
 * (arguments as for keyedBefore()).
 */
inline WarpId
lowestKey(const IssuePriority& p,
          const std::array<WarpMask, kNumUnitClasses>& by_class,
          WarpMask m, const std::uint64_t* lri_stamp)
{
    if (p.leads(m))
        return p.lead;
    // Narrow to the best-ranked classes present, then break the tie.
    WarpMask best = 0;
    unsigned best_rank = ~0u;
    for (std::size_t c = 0; c < kNumUnitClasses; ++c) {
        const WarpMask mc = m & by_class[c];
        if (mc == 0 || p.classRank[c] > best_rank)
            continue;
        if (p.classRank[c] < best_rank) {
            best_rank = p.classRank[c];
            best = 0;
        }
        best |= mc;
    }
    WarpId w = firstHotIndex(best);
    if (p.byLri)
        forEachWarp(dropFirstHot(best), [&](WarpId x) {
            if (lri_stamp[x] < lri_stamp[w])
                w = x;
        });
    return w;
}

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
     * This cycle's issue priority. Called once per cycle, after
     * beginCycle(); the SM latches the result, so a notifyIssue() that
     * moves policy state mid-cycle reorders only the next cycle.
     */
    virtual IssuePriority priority() const = 0;

    /** Notification that a warp actually issued. */
    virtual void notifyIssue(WarpId warp, UnitClass uc) = 0;

    /**
     * The ready warps (view.readyAny()) in the order priority() ranks
     * them, written to @p out. @p lri lists the active warps in
     * least-recently-issued order (front = LRI); a policy that ranks
     * by warp id (GTO) needs none. The SM never builds this list — it
     * resolves slots from the key and its own LRI stamps directly — so
     * this exists to state and test a policy's order. Panics when a
     * ready warp is outside the active set.
     */
    void order(const SchedView& view, std::vector<WarpId>& out,
               const std::vector<WarpId>& lri = {}) const;

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
