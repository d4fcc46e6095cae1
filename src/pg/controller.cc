#include "controller.hh"

#include "common/logging.hh"

namespace wg {

namespace {

/** SFU gating parameters: conventional state machine (Section 3). */
PgParams
sfuParams(const PgParams& params)
{
    PgParams p = params;
    p.policy = params.gateSfu ? PgPolicy::Conventional : PgPolicy::None;
    p.adaptiveIdleDetect = false;
    return p;
}

} // namespace

PgController::PgController(const PgParams& params)
    : params_(params),
      domains_{{{PgDomain(params), PgDomain(params)},
                {PgDomain(params), PgDomain(params)}}},
      sfu_domain_(sfuParams(params)),
      adaptive_{AdaptiveIdleDetect(params), AdaptiveIdleDetect(params)}
{
    if (params_.breakEven == 0 && params_.policy != PgPolicy::None)
        warn("PgController: break-even time of 0 makes every gating "
             "event instantly compensated");
}

unsigned
PgController::typeIndex(UnitClass uc)
{
    switch (uc) {
      case UnitClass::Int: return 0;
      case UnitClass::Fp: return 1;
      default:
        panic("PgController: class ", unitClassName(uc), " is not gated");
    }
}

int
PgController::pickWakeupTarget(UnitClass uc) const
{
    if (uc == UnitClass::Sfu)
        return sfu_domain_.isGated() ? 0 : -1;
    if (uc == UnitClass::Ldst)
        return -1;
    const auto& doms = domains_[typeIndex(uc)];

    // Prefer a cluster whose wakeup would be honoured right now.
    for (unsigned i = 0; i < kClustersPerType; ++i)
        if (doms[i].wakeable())
            return static_cast<int>(i);

    // Otherwise target the gated cluster closest to compensation so the
    // pending request is seen the moment its blackout ends.
    int best = -1;
    Cycle best_rem = kNeverCycle;
    for (unsigned i = 0; i < kClustersPerType; ++i) {
        if (!doms[i].isGated())
            continue;
        Cycle rem = doms[i].betRemaining();
        if (rem < best_rem) {
            best_rem = rem;
            best = static_cast<int>(i);
        }
    }
    return best;
}

void
PgController::requestWakeup(UnitClass uc, unsigned idx, Cycle now)
{
    if (uc == UnitClass::Sfu) {
        sfu_domain_.requestWakeup(now);
        return;
    }
    domains_[typeIndex(uc)][idx].requestWakeup(now);
}

void
PgController::tick(Cycle now,
                   const std::array<bool, kClustersPerType>& int_busy,
                   const std::array<bool, kClustersPerType>& fp_busy,
                   const SchedView& view, bool sfu_busy)
{
    sfu_domain_.tick(now, sfu_busy, params_.idleDetect, false, 0);

    // Snapshot gated state before any domain advances so both clusters
    // of a pair observe a consistent "peer gated" view.
    std::array<std::array<bool, kClustersPerType>, 2> gated;
    for (unsigned t = 0; t < 2; ++t)
        for (unsigned c = 0; c < kClustersPerType; ++c)
            gated[t][c] = domains_[t][c].isGated();

    const std::array<std::uint32_t, 2> actv = {
        view.actv[static_cast<std::size_t>(UnitClass::Int)],
        view.actv[static_cast<std::size_t>(UnitClass::Fp)],
    };

    for (unsigned t = 0; t < 2; ++t) {
        Cycle idle_detect = params_.adaptiveIdleDetect
                                ? adaptive_[t].value()
                                : params_.idleDetect;
        const auto& busy = t == 0 ? int_busy : fp_busy;
        for (unsigned c = 0; c < kClustersPerType; ++c) {
            bool peer_gated = gated[t][1 - c];
            domains_[t][c].tick(now, busy[c], idle_detect, peer_gated,
                                actv[t]);
        }
    }

    // Epoch roll-over for adaptive idle detect.
    if (params_.adaptiveIdleDetect &&
        now - epoch_start_ + 1 >= params_.epochLength) {
        for (unsigned t = 0; t < 2; ++t) {
            std::uint32_t criticals = 0;
            for (unsigned c = 0; c < kClustersPerType; ++c) {
                criticals += domains_[t][c].epochCriticalWakeups();
                domains_[t][c].resetEpochCriticalWakeups();
            }
            adaptive_[t].endEpoch(criticals);
            if (trace_)
                trace_->record(
                    now, trace::EventKind::EpochUpdate,
                    static_cast<std::uint8_t>(t == 0 ? UnitClass::Int
                                                     : UnitClass::Fp),
                    trace::kNoCluster,
                    static_cast<std::uint8_t>(
                        criticals > 255 ? 255 : criticals),
                    static_cast<std::uint32_t>(adaptive_[t].value()));
        }
        epoch_start_ = now + 1;
    }
}

Cycle
PgController::nextEventCycle(
    Cycle now, const std::array<bool, kClustersPerType>& int_busy,
    const std::array<bool, kClustersPerType>& fp_busy,
    const SchedView& view, bool sfu_busy) const
{
    Cycle h = sfu_domain_.nextEventCycle(now, sfu_busy,
                                         params_.idleDetect, false, 0);

    const std::array<std::uint32_t, 2> actv = {
        view.actv[static_cast<std::size_t>(UnitClass::Int)],
        view.actv[static_cast<std::size_t>(UnitClass::Fp)],
    };
    for (unsigned t = 0; t < 2; ++t) {
        Cycle idle_detect = params_.adaptiveIdleDetect
                                ? adaptive_[t].value()
                                : params_.idleDetect;
        const auto& busy = t == 0 ? int_busy : fp_busy;
        for (unsigned c = 0; c < kClustersPerType; ++c) {
            bool peer_gated = domains_[t][1 - c].isGated();
            Cycle e = domains_[t][c].nextEventCycle(
                now, busy[c], idle_detect, peer_gated, actv[t]);
            if (e < h)
                h = e;
        }
    }

    if (params_.adaptiveIdleDetect) {
        Cycle edge = epoch_start_ + params_.epochLength - 1;
        if (edge < h)
            h = edge;
    }
    return h;
}

void
PgController::fastForward(
    Cycle now, Cycle n,
    const std::array<bool, kClustersPerType>& int_busy,
    const std::array<bool, kClustersPerType>& fp_busy,
    const SchedView& view, bool sfu_busy)
{
    (void)now;
    sfu_domain_.fastForward(n, sfu_busy, params_.idleDetect, false, 0);

    const std::array<std::uint32_t, 2> actv = {
        view.actv[static_cast<std::size_t>(UnitClass::Int)],
        view.actv[static_cast<std::size_t>(UnitClass::Fp)],
    };
    for (unsigned t = 0; t < 2; ++t) {
        Cycle idle_detect = params_.adaptiveIdleDetect
                                ? adaptive_[t].value()
                                : params_.idleDetect;
        const auto& busy = t == 0 ? int_busy : fp_busy;
        for (unsigned c = 0; c < kClustersPerType; ++c) {
            // The peer snapshot is stable inside a uniform span: every
            // domain transition is itself a horizon event.
            bool peer_gated = domains_[t][1 - c].isGated();
            domains_[t][c].fastForward(n, busy[c], idle_detect,
                                       peer_gated, actv[t]);
        }
    }
    // No epoch rollover inside a span (the edge bounds the horizon).
}

void
PgController::setTrace(trace::Recorder* recorder)
{
    trace_ = recorder;
    for (unsigned t = 0; t < 2; ++t) {
        auto unit = static_cast<std::uint8_t>(t == 0 ? UnitClass::Int
                                                     : UnitClass::Fp);
        for (unsigned c = 0; c < kClustersPerType; ++c)
            domains_[t][c].setTrace(recorder, unit,
                                    static_cast<std::uint8_t>(c));
    }
    sfu_domain_.setTrace(recorder,
                         static_cast<std::uint8_t>(UnitClass::Sfu), 0);
}

void
PgController::finalize(Cycle now)
{
    for (auto& type : domains_)
        for (auto& d : type)
            d.finalize(now);
    sfu_domain_.finalize(now);
}

Cycle
PgController::idleDetectValue(UnitClass uc) const
{
    if (!params_.adaptiveIdleDetect)
        return params_.idleDetect;
    return adaptive_[typeIndex(uc)].value();
}

const PgDomain&
PgController::domain(UnitClass uc, unsigned idx) const
{
    return domains_[typeIndex(uc)][idx];
}

const AdaptiveIdleDetect&
PgController::adaptive(UnitClass uc) const
{
    return adaptive_[typeIndex(uc)];
}

void
PgController::fillView(SchedView& view) const
{
    for (unsigned c = 0; c < kClustersPerType; ++c) {
        view.intBlackout[c] = domains_[0][c].isGated();
        view.fpBlackout[c] = domains_[1][c].isGated();
    }
}

} // namespace wg
