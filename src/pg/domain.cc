#include "domain.hh"

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
