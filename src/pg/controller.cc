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

} // namespace wg
