/**
 * @file
 * SM-level power-gating controller: owns the four gateable domains
 * (two INT clusters, two FP clusters), the per-type adaptive idle-detect
 * regulators, and the coordinated-blackout cross-cluster logic.
 */

#pragma once

#include <array>
#include <cstdint>

#include "arch/instr.hh"
#include "pg/adaptive.hh"
#include "pg/domain.hh"
#include "sched/scheduler.hh"

namespace wg {

/** Number of gateable clusters per unit type (SP0/SP1 in GTX480). */
inline constexpr unsigned kClustersPerType = 2;

/**
 * Checkpoint state of the SM's power-gating controller: every domain
 * state machine, the per-type adaptive regulators and the epoch anchor.
 */
struct PgControllerState {
    /** domains[type][cluster]: type 0 = INT, 1 = FP. */
    std::array<std::array<PgDomainState, kClustersPerType>, 2> domains;
    PgDomainState sfuDomain;             ///< SFU gating domain
    std::array<AdaptiveState, 2> adaptive; ///< per-type regulators
    Cycle epochStart = 0;                ///< current epoch's first cycle

    static constexpr auto
    fields()
    {
        using S = PgControllerState;
        return std::tuple{field("domains", &S::domains).byType(),
                          field("sfuDomain", &S::sfuDomain),
                          field("adaptive", &S::adaptive),
                          field("epochStart", &S::epochStart)};
    }
};

/**
 * Power-gating controller for one SM. Only INT and FP clusters are
 * gated (the paper gates CUDA cores; SFU/LDST are left always-on).
 */
class PgController
{
  public:
    explicit PgController(const PgParams& params);

    /** @return true when (uc, idx) can execute this cycle. */
    bool
    canExecute(UnitClass uc, unsigned idx) const
    {
        switch (uc) {
          case UnitClass::Int: return domains_[0][idx].canExecute();
          case UnitClass::Fp: return domains_[1][idx].canExecute();
          case UnitClass::Sfu: return sfu_domain_.canExecute();
          case UnitClass::Ldst: return true; // never gated in this design
        }
        return true;
    }

    /** @return true when (uc, idx) is gated (either blackout state). */
    bool
    isGated(UnitClass uc, unsigned idx) const
    {
        switch (uc) {
          case UnitClass::Int: return domains_[0][idx].isGated();
          case UnitClass::Fp: return domains_[1][idx].isGated();
          case UnitClass::Sfu: return sfu_domain_.isGated();
          case UnitClass::Ldst: return false;
        }
        return false;
    }

    /**
     * Select the cluster of @p uc a blocked instruction should send its
     * wakeup request to: a wakeable cluster if any, else the gated
     * cluster closest to compensation.
     * @return cluster index, or -1 when no cluster of @p uc is gated or
     *         waking (i.e. a wakeup makes no sense).
     */
    int pickWakeupTarget(UnitClass uc) const;

    /** Forward a wakeup request to (uc, idx). */
    void requestWakeup(UnitClass uc, unsigned idx, Cycle now);

    /**
     * Advance all domains one cycle. Call after the issue stage.
     * @param now current cycle
     * @param int_busy INT cluster pipeline-occupancy, per cluster
     * @param fp_busy FP cluster pipeline-occupancy, per cluster
     * @param view this cycle's active-subset counters (for coordinated
     *        blackout's ACTV checks)
     * @param sfu_busy SFU pipeline occupancy (used when gateSfu is set)
     */
    void tick(Cycle now, const std::array<bool, kClustersPerType>& int_busy,
              const std::array<bool, kClustersPerType>& fp_busy,
              const SchedView& view, bool sfu_busy = false);

    /**
     * First cycle >= @p now at which any domain's per-cycle behaviour
     * under these (constant) inputs stops being uniform, or at which
     * the adaptive idle-detect epoch rolls over. kNeverCycle when every
     * future tick is uniform. Inputs mirror tick().
     */
    Cycle nextEventCycle(Cycle now,
                         const std::array<bool, kClustersPerType>& int_busy,
                         const std::array<bool, kClustersPerType>& fp_busy,
                         const SchedView& view, bool sfu_busy = false) const;

    /**
     * Replay @p n uniform ticks at once (no state transitions, trace
     * events, or epoch rollovers inside the span — the caller bounds
     * @p n by nextEventCycle). Bit-identical to n tick() calls.
     */
    void fastForward(Cycle now, Cycle n,
                     const std::array<bool, kClustersPerType>& int_busy,
                     const std::array<bool, kClustersPerType>& fp_busy,
                     const SchedView& view, bool sfu_busy = false);

    /** The SFU gating domain (meaningful when params().gateSfu). */
    const PgDomain& sfuDomain() const { return sfu_domain_; }

    /** Flush idle-period trackers at end of simulation. */
    void finalize(Cycle now);

    /** Current effective idle-detect window for a unit type. */
    Cycle idleDetectValue(UnitClass uc) const;

    /** Access a domain's state and statistics. */
    const PgDomain& domain(UnitClass uc, unsigned idx) const;

    /** Adaptive regulator for a type (valid for Int/Fp only). */
    const AdaptiveIdleDetect& adaptive(UnitClass uc) const;

    /** Populate the blackout flags of a SchedView for the scheduler. */
    void fillView(SchedView& view) const;

    /**
     * Attach a trace recorder (null = tracing off) to the controller
     * and all of its domains.
     */
    void setTrace(trace::Recorder* recorder);

    const PgParams& params() const { return params_; }

    /** Capture all domains + regulators for a checkpoint. */
    PgControllerState
    saveState() const
    {
        PgControllerState s;
        for (unsigned t = 0; t < 2; ++t)
            for (unsigned c = 0; c < kClustersPerType; ++c)
                s.domains[t][c] = domains_[t][c].saveState();
        s.sfuDomain = sfu_domain_.saveState();
        for (unsigned t = 0; t < 2; ++t)
            s.adaptive[t] = adaptive_[t].saveState();
        s.epochStart = epoch_start_;
        return s;
    }

    /** Rebuild all domains + regulators from a checkpoint. */
    void
    restoreState(const PgControllerState& s)
    {
        for (unsigned t = 0; t < 2; ++t)
            for (unsigned c = 0; c < kClustersPerType; ++c)
                domains_[t][c].restoreState(s.domains[t][c]);
        sfu_domain_.restoreState(s.sfuDomain);
        for (unsigned t = 0; t < 2; ++t)
            adaptive_[t].restoreState(s.adaptive[t]);
        epoch_start_ = s.epochStart;
    }

  private:
    /** Map Int->0, Fp->1; panics on other classes. */
    static unsigned typeIndex(UnitClass uc);

    PgParams params_;
    // domains_[type][cluster]: type 0 = INT, 1 = FP.
    std::array<std::array<PgDomain, kClustersPerType>, 2> domains_;
    PgDomain sfu_domain_;  ///< conventional gating when gateSfu is set
    std::array<AdaptiveIdleDetect, 2> adaptive_;
    Cycle epoch_start_ = 0;
    trace::Recorder* trace_ = nullptr;
};

} // namespace wg

