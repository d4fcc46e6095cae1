/**
 * @file
 * Power-gating state machine for one gateable cluster (paper Fig. 2c).
 */

#pragma once

#include <cstdint>

#include "common/fields.hh"
#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "pg/params.hh"
#include "trace/recorder.hh"

namespace wg {

/**
 * Controller state. "On" is the paper's Idle_detect state: the unit is
 * powered and the idle-detect counter is running.
 */
enum class PgState : std::uint8_t { On, Uncompensated, Compensated, Wakeup };

/** Printable state name. */
const char* pgStateName(PgState state);

/** Event and cycle counters exposed by a domain. */
struct PgDomainStats
{
    std::uint64_t busyCycles = 0;      ///< pipeline occupied
    std::uint64_t idleOnCycles = 0;    ///< powered but idle (leaking)
    std::uint64_t uncompCycles = 0;    ///< gated, before break-even
    std::uint64_t compCycles = 0;      ///< gated, past break-even
    std::uint64_t wakeupCycles = 0;    ///< waking (leaking, no work)
    std::uint64_t gatingEvents = 0;    ///< sleep-transistor off events
    std::uint64_t wakeups = 0;         ///< sleep-transistor on events
    std::uint64_t uncompWakeups = 0;   ///< wakeups before break-even
    std::uint64_t criticalWakeups = 0; ///< wakeups at blackout end
    std::uint64_t coordImmediateGates = 0; ///< coordinated fast gates
    std::uint64_t coordGateVetoes = 0; ///< coordinated gating vetoes

    std::uint64_t
    gatedCycles() const
    {
        return uncompCycles + compCycles;
    }

    static constexpr auto
    fields()
    {
        using S = PgDomainStats;
        constexpr FieldRule kSum = FieldRule::Sum;
        return std::tuple{
            field("busyCycles", &S::busyCycles, kSum),
            field("idleOnCycles", &S::idleOnCycles, kSum),
            field("uncompCycles", &S::uncompCycles, kSum),
            field("compCycles", &S::compCycles, kSum),
            field("wakeupCycles", &S::wakeupCycles, kSum),
            field("gatingEvents", &S::gatingEvents, kSum),
            field("wakeups", &S::wakeups, kSum),
            field("uncompWakeups", &S::uncompWakeups, kSum),
            field("criticalWakeups", &S::criticalWakeups, kSum),
            field("coordImmediateGates", &S::coordImmediateGates, kSum),
            field("coordGateVetoes", &S::coordGateVetoes, kSum),
        };
    }
};

/**
 * Checkpoint state of one power-gating domain: the Fig. 2c state
 * machine registers, the in-progress idle run, the lifetime counters
 * and the idle-period histogram.
 */
struct PgDomainState {
    std::uint8_t state = 0;         ///< PgState
    Cycle idleCount = 0;            ///< idle-detect counter (On state)
    Cycle betRemaining = 0;         ///< countdown in gated states
    Cycle wakeupRemaining = 0;      ///< countdown in Wakeup state
    Cycle compensatedAt = kNeverCycle; ///< cycle BET expired
    bool wakeupRequested = false;   ///< request pending for next tick
    std::uint64_t idleRun = 0;      ///< current idle-period length
    std::uint32_t epochCritical = 0; ///< critical wakeups this epoch
    PgDomainStats stats;            ///< lifetime event/cycle counters
    Histogram idleHist;             ///< idle-period-length distribution

    static constexpr auto
    fields()
    {
        using S = PgDomainState;
        return std::tuple{
            field("state", &S::state),
            field("idleCount", &S::idleCount),
            field("betRemaining", &S::betRemaining),
            field("wakeupRemaining", &S::wakeupRemaining),
            field("compensatedAt", &S::compensatedAt),
            field("wakeupRequested", &S::wakeupRequested),
            field("idleRun", &S::idleRun),
            field("epochCritical", &S::epochCritical),
            field("stats", &S::stats),
            field("idleHist", &S::idleHist),
        };
    }
};

/**
 * One gateable execution cluster's power-gating controller.
 *
 * Per-cycle protocol (driven by PgController):
 *   1. during issue, the SM calls requestWakeup() when it wants an
 *      instruction to run on a gated/waking cluster;
 *   2. after issue, tick() advances the state machine with this cycle's
 *      busy indication and the effective idle-detect value.
 *
 * The domain also records the unit's idle-period-length histogram
 * (Fig. 3): an idle period is a maximal run of cycles during which the
 * pipeline is empty, regardless of gating state.
 */
class PgDomain
{
  public:
    /**
     * @param params policy parameters (policy None = never gates)
     * @param hist_max largest idle-period bin tracked individually
     */
    explicit PgDomain(const PgParams& params, std::uint64_t hist_max = 64);

    /** @return true when the cluster can execute instructions. */
    bool canExecute() const { return state_ == PgState::On; }

    /** @return true in Uncompensated or Compensated. */
    bool
    isGated() const
    {
        return state_ == PgState::Uncompensated ||
               state_ == PgState::Compensated;
    }

    /**
     * @return true when a wakeup request this cycle would be honoured
     * (used by the SM to pick which cluster of a pair to wake).
     */
    bool wakeable() const;

    /** Scheduler wants this cluster; handled at the next tick(). */
    void requestWakeup(Cycle now);

    /**
     * Advance one cycle.
     * @param now current cycle
     * @param busy pipeline-occupied indication for this cycle
     * @param idle_detect effective idle-detect window (adaptive value)
     * @param coord_peer_gated Coordinated Blackout: the other cluster of
     *        this type is currently gated
     * @param coord_actv warps of this type in the active subset
     */
    void tick(Cycle now, bool busy, Cycle idle_detect,
              bool coord_peer_gated, std::uint32_t coord_actv);

    /**
     * First cycle >= @p now at which tick() under these (constant)
     * inputs would do anything beyond uniform counter increments: a
     * state transition, a trace event, or a per-cycle regime change
     * (e.g. the coordinated-blackout veto counter starting to count).
     * kNeverCycle when every future tick is uniform. Preconditions
     * match tick(): no pending wakeup request, inputs constant.
     */
    Cycle nextEventCycle(Cycle now, bool busy, Cycle idle_detect,
                         bool coord_peer_gated,
                         std::uint32_t coord_actv) const;

    /**
     * Replay @p n uniform ticks at once. The caller guarantees
     * now + n <= nextEventCycle(now, ...) for the same inputs, so no
     * state transition or trace event falls inside the span; only the
     * per-cycle counters advance. Bit-identical to n tick() calls.
     */
    void fastForward(Cycle n, bool busy, Cycle idle_detect,
                     bool coord_peer_gated, std::uint32_t coord_actv);

    /** Flush the in-progress idle period into the histogram. */
    void finalize(Cycle now);

    /**
     * Attach a trace recorder (null = tracing off) and this domain's
     * identity in the event stream.
     */
    void
    setTrace(trace::Recorder* recorder, std::uint8_t unit,
             std::uint8_t cluster)
    {
        trace_ = recorder;
        trace_unit_ = unit;
        trace_cluster_ = cluster;
    }

    PgState state() const { return state_; }

    /** Cycles left until a gated cluster compensates (0 otherwise). */
    Cycle
    betRemaining() const
    {
        return state_ == PgState::Uncompensated ? bet_remaining_ : 0;
    }

    const PgDomainStats& stats() const { return stats_; }
    const Histogram& idleHistogram() const { return idle_hist_; }

    /** Critical wakeups recorded since the last epoch reset. */
    std::uint32_t epochCriticalWakeups() const { return epoch_critical_; }

    /** Reset the per-epoch critical-wakeup counter. */
    void resetEpochCriticalWakeups() { epoch_critical_ = 0; }

    /** Capture the full state machine for a checkpoint. */
    PgDomainState
    saveState() const
    {
        PgDomainState s;
        s.state = static_cast<std::uint8_t>(state_);
        s.idleCount = idle_count_;
        s.betRemaining = bet_remaining_;
        s.wakeupRemaining = wakeup_remaining_;
        s.compensatedAt = compensated_at_;
        s.wakeupRequested = wakeup_requested_;
        s.idleRun = idle_run_;
        s.epochCritical = epoch_critical_;
        s.stats = stats_;
        s.idleHist = idle_hist_;
        return s;
    }

    /** Rebuild the state machine from a captured PgDomainState. */
    void
    restoreState(const PgDomainState& s)
    {
        state_ = static_cast<PgState>(s.state);
        idle_count_ = s.idleCount;
        bet_remaining_ = s.betRemaining;
        wakeup_remaining_ = s.wakeupRemaining;
        compensated_at_ = s.compensatedAt;
        wakeup_requested_ = s.wakeupRequested;
        idle_run_ = s.idleRun;
        epoch_critical_ = s.epochCritical;
        stats_ = s.stats;
        idle_hist_ = s.idleHist;
    }

  private:
    void enterGated(Cycle now, trace::GateReason reason,
                    std::uint32_t actv);
    void beginWakeup(Cycle now, trace::WakeReason reason);

    /** Record a trace event when a recorder is attached. */
    void
    traceEvent(Cycle now, trace::EventKind kind, std::uint8_t arg = 0,
               std::uint32_t value = 0)
    {
        if (trace_)
            trace_->record(now, kind, trace_unit_, trace_cluster_, arg,
                           value);
    }

    PgParams params_;
    PgState state_ = PgState::On;

    Cycle idle_count_ = 0;       ///< idle-detect counter (On state)
    Cycle bet_remaining_ = 0;    ///< countdown in gated states
    Cycle wakeup_remaining_ = 0; ///< countdown in Wakeup state
    Cycle compensated_at_ = kNeverCycle; ///< cycle BET expired
    bool wakeup_requested_ = false;

    std::uint64_t idle_run_ = 0; ///< current idle-period length

    PgDomainStats stats_;
    Histogram idle_hist_;
    std::uint32_t epoch_critical_ = 0;

    trace::Recorder* trace_ = nullptr;
    std::uint8_t trace_unit_ = trace::kNoUnit;
    std::uint8_t trace_cluster_ = trace::kNoCluster;
};

// The per-cycle path is defined here, not in domain.cc, so the SM's
// step compiles it inline (DESIGN §14 "One inlined stepped cycle").

inline bool
PgDomain::wakeable() const
{
    switch (state_) {
      case PgState::On:
      case PgState::Wakeup:
        return false;
      case PgState::Uncompensated:
        return params_.policy == PgPolicy::Conventional;
      case PgState::Compensated:
        return true;
    }
    return false;
}

inline void
PgDomain::requestWakeup(Cycle now)
{
    (void)now;
    wakeup_requested_ = true;
}

inline void
PgDomain::enterGated(Cycle now, trace::GateReason reason,
                     std::uint32_t actv)
{
    ++stats_.gatingEvents;
    idle_count_ = 0;
    traceEvent(now, trace::EventKind::Gate,
               static_cast<std::uint8_t>(reason), actv);
    if (params_.breakEven == 0) {
        state_ = PgState::Compensated;
        compensated_at_ = now;
        traceEvent(now, trace::EventKind::BetExpire, 0, 0);
    } else {
        state_ = PgState::Uncompensated;
        bet_remaining_ = params_.breakEven;
    }
}

inline void
PgDomain::beginWakeup(Cycle now, trace::WakeReason reason)
{
    ++stats_.wakeups;
    traceEvent(now, trace::EventKind::Wakeup,
               static_cast<std::uint8_t>(reason));
    if (params_.wakeupDelay == 0) {
        state_ = PgState::On;
        idle_count_ = 0;
        traceEvent(now, trace::EventKind::WakeupDone);
        return;
    }
    state_ = PgState::Wakeup;
    wakeup_remaining_ = params_.wakeupDelay;
}

inline void
PgDomain::tick(Cycle now, bool busy, Cycle idle_detect,
               bool coord_peer_gated, std::uint32_t coord_actv)
{
    if (busy && state_ != PgState::On)
        panic("PgDomain: busy while ", pgStateName(state_), " at cycle ",
              now);

    // Idle-period bookkeeping is independent of gating state: an idle
    // period is any maximal run of pipeline-empty cycles (Fig. 3).
    if (busy) {
        if (idle_run_ > 0) {
            traceEvent(now, trace::EventKind::UnitBusy, 0,
                       static_cast<std::uint32_t>(idle_run_));
            idle_hist_.add(idle_run_);
            idle_run_ = 0;
        }
    } else {
        ++idle_run_;
        if (idle_run_ == 1)
            traceEvent(now, trace::EventKind::UnitIdle);
    }

    switch (state_) {
      case PgState::On:
        if (busy) {
            ++stats_.busyCycles;
            idle_count_ = 0;
        } else {
            ++stats_.idleOnCycles;
            ++idle_count_;
            if (params_.policy != PgPolicy::None) {
                bool gate = false;
                trace::GateReason reason = trace::GateReason::IdleDetect;
                if (params_.policy == PgPolicy::CoordinatedBlackout &&
                    coord_peer_gated) {
                    if (coord_actv == 0) {
                        // Second cluster gates immediately: nothing of
                        // this type is even waiting to become ready.
                        gate = true;
                        if (idle_count_ < idle_detect) {
                            ++stats_.coordImmediateGates;
                            reason = trace::GateReason::CoordDrain;
                        }
                    } else if (idle_count_ >= idle_detect) {
                        // Would have gated, but a warp of this type
                        // waits in the active subset: keep one cluster
                        // of the pair powered.
                        ++stats_.coordGateVetoes;
                    }
                } else if (idle_count_ >= idle_detect) {
                    gate = true;
                }
                if (gate)
                    enterGated(now, reason, coord_actv);
            }
        }
        break;

      case PgState::Uncompensated:
        ++stats_.uncompCycles;
        if (--bet_remaining_ == 0) {
            state_ = PgState::Compensated;
            compensated_at_ = now;
            traceEvent(now, trace::EventKind::BetExpire, 0,
                       static_cast<std::uint32_t>(params_.breakEven));
            // Fall through behaviour: a request pending at the exact
            // cycle the blackout ends is the paper's critical wakeup
            // (a blackout-only concept; conventional gating would have
            // woken earlier).
            if (wakeup_requested_) {
                if (params_.policy != PgPolicy::Conventional) {
                    ++stats_.criticalWakeups;
                    ++epoch_critical_;
                    beginWakeup(now, trace::WakeReason::Critical);
                } else {
                    beginWakeup(now, trace::WakeReason::Demand);
                }
            }
        } else if (wakeup_requested_) {
            if (params_.policy == PgPolicy::Conventional) {
                // Conventional gating may wake before break-even: the
                // gating attempt nets an energy loss.
                ++stats_.uncompWakeups;
                beginWakeup(now, trace::WakeReason::Uncompensated);
            } else {
                // Blackout hold: the request is remembered by the SM's
                // demand logic, not honoured before break-even.
                traceEvent(now, trace::EventKind::WakeupDenied);
            }
        }
        break;

      case PgState::Compensated:
        ++stats_.compCycles;
        if (wakeup_requested_) {
            if (now == compensated_at_ &&
                params_.policy != PgPolicy::Conventional) {
                ++stats_.criticalWakeups;
                ++epoch_critical_;
                beginWakeup(now, trace::WakeReason::Critical);
            } else {
                beginWakeup(now, trace::WakeReason::Demand);
            }
        }
        break;

      case PgState::Wakeup:
        ++stats_.wakeupCycles;
        if (--wakeup_remaining_ == 0) {
            state_ = PgState::On;
            idle_count_ = 0;
            traceEvent(now, trace::EventKind::WakeupDone);
        }
        break;
    }

    wakeup_requested_ = false;
}

} // namespace wg

