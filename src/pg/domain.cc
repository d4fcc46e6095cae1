#include "domain.hh"

#include "common/logging.hh"

namespace wg {

const char*
pgPolicyName(PgPolicy policy)
{
    switch (policy) {
      case PgPolicy::None: return "none";
      case PgPolicy::Conventional: return "conventional";
      case PgPolicy::NaiveBlackout: return "naive-blackout";
      case PgPolicy::CoordinatedBlackout: return "coordinated-blackout";
    }
    return "?";
}

bool
parsePgPolicy(const std::string& name, PgPolicy& out)
{
    for (PgPolicy p : {PgPolicy::None, PgPolicy::Conventional,
                       PgPolicy::NaiveBlackout,
                       PgPolicy::CoordinatedBlackout}) {
        if (name == pgPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

const char*
pgStateName(PgState state)
{
    switch (state) {
      case PgState::On: return "on";
      case PgState::Uncompensated: return "uncompensated";
      case PgState::Compensated: return "compensated";
      case PgState::Wakeup: return "wakeup";
    }
    return "?";
}

PgDomain::PgDomain(const PgParams& params, std::uint64_t hist_max)
    : params_(params), idle_hist_(hist_max)
{
}

bool
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

void
PgDomain::requestWakeup(Cycle now)
{
    (void)now;
    wakeup_requested_ = true;
}

void
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

void
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

void
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

Cycle
PgDomain::nextEventCycle(Cycle now, bool busy, Cycle idle_detect,
                         bool coord_peer_gated,
                         std::uint32_t coord_actv) const
{
    switch (state_) {
      case PgState::On:
        if (busy || params_.policy == PgPolicy::None)
            return kNeverCycle;
        if (params_.policy == PgPolicy::CoordinatedBlackout &&
            coord_peer_gated) {
            if (coord_actv == 0)
                return now; // immediate second-cluster gate
            if (idle_count_ + 1 >= idle_detect)
                return kNeverCycle; // established veto regime: uniform
            // The veto counter starts the cycle idle_count_ crosses
            // the window — a per-cycle regime change.
            return now + (idle_detect - idle_count_ - 1);
        }
        if (idle_count_ + 1 >= idle_detect)
            return now; // gates this very cycle
        return now + (idle_detect - idle_count_ - 1);

      case PgState::Uncompensated:
        // bet_remaining_ >= 1 here (0 transitions out immediately).
        return now + bet_remaining_ - 1;

      case PgState::Compensated:
        return kNeverCycle; // leaves only on a wakeup request

      case PgState::Wakeup:
        return now + wakeup_remaining_ - 1;
    }
    return kNeverCycle;
}

void
PgDomain::fastForward(Cycle n, bool busy, Cycle idle_detect,
                      bool coord_peer_gated, std::uint32_t coord_actv)
{
    if (!busy)
        idle_run_ += n; // run already open (>= 1 after the last tick)

    switch (state_) {
      case PgState::On:
        if (busy) {
            stats_.busyCycles += n; // idle_count_ already 0
        } else {
            stats_.idleOnCycles += n;
            const bool veto_regime =
                params_.policy == PgPolicy::CoordinatedBlackout &&
                coord_peer_gated && coord_actv > 0 &&
                idle_count_ + 1 >= idle_detect;
            idle_count_ += n;
            if (veto_regime)
                stats_.coordGateVetoes += n;
        }
        break;
      case PgState::Uncompensated:
        stats_.uncompCycles += n;
        bet_remaining_ -= n; // stays >= 1: span ends before expiry
        break;
      case PgState::Compensated:
        stats_.compCycles += n;
        break;
      case PgState::Wakeup:
        stats_.wakeupCycles += n;
        wakeup_remaining_ -= n;
        break;
    }
}

void
PgDomain::finalize(Cycle now)
{
    (void)now;
    if (idle_run_ > 0) {
        idle_hist_.add(idle_run_);
        idle_run_ = 0;
    }
}

} // namespace wg
