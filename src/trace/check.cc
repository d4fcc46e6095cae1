#include "check.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace wg::trace {

namespace {

constexpr const char* kLaneNames[] = {"INT0", "INT1", "FP0", "FP1", "SFU"};

// UnitClass values (kept numeric so trace/ stays below arch/ users).
constexpr std::uint8_t kUnitInt = 0;
constexpr std::uint8_t kUnitFp = 1;
constexpr std::uint8_t kUnitSfu = 2;

} // namespace

std::string
Violation::toString() const
{
    std::ostringstream os;
    os << "sm " << sm << " cycle " << cycle << " " << unit << ": "
       << message;
    return os.str();
}

InvariantChecker::InvariantChecker(const Meta& meta) : meta_(meta)
{
    blackout_ = meta_.policy == "naive-blackout" ||
                meta_.policy == "coordinated-blackout";
    coordinated_ = meta_.policy == "coordinated-blackout";
}

int
InvariantChecker::laneIndex(std::uint8_t unit, std::uint8_t cluster)
{
    switch (unit) {
      case kUnitInt: return cluster < 2 ? static_cast<int>(cluster) : -1;
      case kUnitFp: return cluster < 2 ? 2 + static_cast<int>(cluster) : -1;
      case kUnitSfu: return 4;
      default: return -1;
    }
}

std::string
InvariantChecker::laneName(std::size_t lane)
{
    return lane < kLanesPerSm ? kLaneNames[lane] : "?";
}

InvariantChecker::Lane&
InvariantChecker::lane(SmId sm, std::size_t lane_idx)
{
    if (sm >= lanes_.size())
        lanes_.resize(sm + 1);
    return lanes_[sm][lane_idx];
}

InvariantChecker::Regulator&
InvariantChecker::regulator(SmId sm, std::size_t type)
{
    if (sm >= regulators_.size()) {
        std::size_t old = regulators_.size();
        regulators_.resize(sm + 1);
        Cycle init = meta_.idleDetect;
        if (init < meta_.idleDetectMin)
            init = meta_.idleDetectMin;
        if (init > meta_.idleDetectMax)
            init = meta_.idleDetectMax;
        for (std::size_t s = old; s < regulators_.size(); ++s)
            for (auto& r : regulators_[s])
                r.value = init;
    }
    return regulators_[sm][type];
}

bool
InvariantChecker::truncated(SmId sm) const
{
    return sm < truncated_.size() && truncated_[sm];
}

std::size_t
InvariantChecker::truncatedSms() const
{
    return static_cast<std::size_t>(
        std::count(truncated_.begin(), truncated_.end(), true));
}

std::size_t
InvariantChecker::checkedSms() const
{
    std::size_t n = 0;
    for (SmId sm = 0; sm < seen_.size(); ++sm)
        n += seen_[sm] && !truncated(sm);
    return n;
}

void
InvariantChecker::noteSeen(SmId sm)
{
    if (sm >= seen_.size())
        seen_.resize(sm + 1, false);
    seen_[sm] = true;
}

void
InvariantChecker::noteTruncated(SmId sm, std::uint64_t lost)
{
    noteSeen(sm);
    if (sm >= truncated_.size())
        truncated_.resize(sm + 1, false);
    truncated_[sm] = true;
    std::ostringstream os;
    os << "sm " << sm << ": ring wrapped, " << lost
       << " events lost; invariant checks suppressed for this SM";
    warnings_.push_back(os.str());
}

void
InvariantChecker::addViolation(SmId sm, Cycle cycle,
                               const std::string& unit,
                               std::string message)
{
    violations_.push_back({sm, cycle, unit, std::move(message)});
}

void
InvariantChecker::feed(SmId sm, const Event& e)
{
    noteSeen(sm);
    ++events_;
    ++by_kind_[static_cast<std::size_t>(e.kind)];
    if (e.kind == EventKind::MshrReject) {
        reject_cycles_ += e.value;
        reject_attempts_ += std::uint64_t{e.arg} * e.value;
    }
    if (truncated(sm))
        return;

    switch (e.kind) {
      case EventKind::Issue: checkIssue(sm, e); break;
      case EventKind::Gate: checkGate(sm, e); break;
      case EventKind::BetExpire: checkBetExpire(sm, e); break;
      case EventKind::Wakeup: checkWakeup(sm, e); break;
      case EventKind::WakeupDone: checkWakeupDone(sm, e); break;
      case EventKind::EpochUpdate: checkEpochUpdate(sm, e); break;
      default:
        break;
    }
}

void
InvariantChecker::checkIssue(SmId sm, const Event& e)
{
    int li = laneIndex(e.unit, e.cluster);
    if (li < 0)
        return; // LD/ST and control events are never gated
    Lane& l = lane(sm, static_cast<std::size_t>(li));
    if (l.gated || l.waking) {
        std::ostringstream os;
        os << "issued warp " << e.value << " while "
           << (l.gated ? "gated" : "still waking") << " (gated at cycle "
           << l.gateCycle << ")";
        addViolation(sm, e.cycle, laneName(li), os.str());
    }
}

void
InvariantChecker::checkGate(SmId sm, const Event& e)
{
    int li = laneIndex(e.unit, e.cluster);
    if (li < 0) {
        addViolation(sm, e.cycle, "?", "gate event on a non-gateable unit");
        return;
    }
    auto lane_idx = static_cast<std::size_t>(li);
    Lane& l = lane(sm, lane_idx);
    const bool sfu = lane_idx == 4;
    const auto reason = static_cast<GateReason>(e.arg);

    if (l.gated || l.waking)
        addViolation(sm, e.cycle, laneName(lane_idx),
                     "gate while already gated or waking");
    if (sfu && !meta_.gateSfu)
        addViolation(sm, e.cycle, laneName(lane_idx),
                     "SFU gated but gateSfu is off");
    if (!sfu && meta_.policy == "none")
        addViolation(sm, e.cycle, laneName(lane_idx),
                     "gate under policy 'none'");

    if (!sfu) {
        if (reason == GateReason::CoordDrain) {
            if (!coordinated_)
                addViolation(sm, e.cycle, laneName(lane_idx),
                             "coord-drain gate under a non-coordinated "
                             "policy");
            if (e.value > 0) {
                std::ostringstream os;
                os << "coordinated drain gate with ACTV=" << e.value
                   << " warps of this type waiting";
                addViolation(sm, e.cycle, laneName(lane_idx), os.str());
            }
        }
        if (coordinated_) {
            // Peer cluster of the same type: lanes {0,1} and {2,3}.
            // Same-cycle gates are legal: the controller ticks both
            // clusters against a consistent pre-tick snapshot, so two
            // first-cluster gates can land on one cycle.
            std::size_t peer_idx = lane_idx ^ 1u;
            const Lane& peer = lane(sm, peer_idx);
            if (peer.gated && peer.gateCycle < e.cycle && e.value > 0) {
                std::ostringstream os;
                os << "gated the second " << (lane_idx < 2 ? "INT" : "FP")
                   << " cluster while ACTV=" << e.value
                   << " warps of the type wait in the active subset";
                addViolation(sm, e.cycle, laneName(lane_idx), os.str());
            }
        }
    }

    l.gated = true;
    l.waking = false;
    l.everGated = true;
    l.gateCycle = e.cycle;
}

void
InvariantChecker::checkBetExpire(SmId sm, const Event& e)
{
    int li = laneIndex(e.unit, e.cluster);
    if (li < 0)
        return;
    Lane& l = lane(sm, static_cast<std::size_t>(li));
    if (!l.gated) {
        addViolation(sm, e.cycle, laneName(li),
                     "break-even expiry on a cluster that is not gated");
        return;
    }
    Cycle expected = l.gateCycle + meta_.breakEven;
    if (e.cycle != expected) {
        std::ostringstream os;
        os << "break-even expired at the wrong cycle (gated at "
           << l.gateCycle << ", BET " << meta_.breakEven << ", expected "
           << expected << ")";
        addViolation(sm, e.cycle, laneName(li), os.str());
    }
}

void
InvariantChecker::checkWakeup(SmId sm, const Event& e)
{
    int li = laneIndex(e.unit, e.cluster);
    if (li < 0)
        return;
    auto lane_idx = static_cast<std::size_t>(li);
    Lane& l = lane(sm, lane_idx);
    const bool sfu = lane_idx == 4;
    const auto reason = static_cast<WakeReason>(e.arg);

    if (!l.gated) {
        addViolation(sm, e.cycle, laneName(lane_idx),
                     "wakeup on a cluster that is not gated");
        return;
    }

    const Cycle held = e.cycle - l.gateCycle;
    // SFU always runs the conventional machine; early wakeups are its
    // uncompensated-loss case, not a blackout violation.
    if (!sfu && blackout_) {
        if (held < meta_.breakEven) {
            std::ostringstream os;
            os << "blackout violated: woke after " << held
               << " cycles, break-even is " << meta_.breakEven
               << " (gated at cycle " << l.gateCycle << ")";
            addViolation(sm, e.cycle, laneName(lane_idx), os.str());
        }
        if (reason == WakeReason::Uncompensated)
            addViolation(sm, e.cycle, laneName(lane_idx),
                         "uncompensated wakeup recorded under a blackout "
                         "policy");
        if (reason == WakeReason::Critical && held != meta_.breakEven) {
            std::ostringstream os;
            os << "critical wakeup " << held
               << " cycles after gating; criticals fire exactly at "
                  "break-even ("
               << meta_.breakEven << ")";
            addViolation(sm, e.cycle, laneName(lane_idx), os.str());
        }
    }

    l.gated = false;
    l.waking = true;
}

void
InvariantChecker::checkWakeupDone(SmId sm, const Event& e)
{
    int li = laneIndex(e.unit, e.cluster);
    if (li < 0)
        return;
    Lane& l = lane(sm, static_cast<std::size_t>(li));
    if (!l.waking) {
        addViolation(sm, e.cycle, laneName(li),
                     "wakeup-done without a preceding wakeup");
        return;
    }
    l.waking = false;
}

void
InvariantChecker::checkEpochUpdate(SmId sm, const Event& e)
{
    if (!meta_.adaptive) {
        addViolation(sm, e.cycle, "?",
                     "epoch-update with adaptive idle detect disabled");
        return;
    }
    std::size_t type;
    if (e.unit == kUnitInt)
        type = 0;
    else if (e.unit == kUnitFp)
        type = 1;
    else {
        addViolation(sm, e.cycle, "?",
                     "epoch-update for a non-adaptive unit class");
        return;
    }

    if (e.value < meta_.idleDetectMin || e.value > meta_.idleDetectMax) {
        std::ostringstream os;
        os << "adaptive window " << e.value << " outside ["
           << meta_.idleDetectMin << ", " << meta_.idleDetectMax << "]";
        addViolation(sm, e.cycle, type == 0 ? "INT" : "FP", os.str());
    }

    // Replica regulator: fast increase on a hot epoch, decrement only
    // after `decrementEpochs` consecutive quiet epochs.
    Regulator& r = regulator(sm, type);
    if (e.arg > meta_.criticalThreshold) {
        if (r.value < meta_.idleDetectMax)
            ++r.value;
        r.goodEpochs = 0;
    } else {
        ++r.goodEpochs;
        if (r.goodEpochs >= meta_.decrementEpochs) {
            if (r.value > meta_.idleDetectMin)
                --r.value;
            r.goodEpochs = 0;
        }
    }
    if (e.value != r.value) {
        std::ostringstream os;
        os << "adaptive window diverged from the fast-increase/"
              "slow-decrease schedule (trace says "
           << e.value << ", replica expects " << r.value << " after "
           << static_cast<unsigned>(e.arg) << " criticals)";
        addViolation(sm, e.cycle, type == 0 ? "INT" : "FP", os.str());
        r.value = e.value; // resynchronise to avoid cascading reports
    }
}

std::vector<Violation>
checkCollector(const Collector& collector)
{
    InvariantChecker checker(collector.meta);
    for (SmId s = 0; s < collector.numSms(); ++s) {
        const Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        if (r->overwritten() > 0)
            checker.noteTruncated(s, r->overwritten());
        r->forEach([&checker, s](const Event& e) { checker.feed(s, e); });
    }
    return checker.violations();
}

} // namespace wg::trace
