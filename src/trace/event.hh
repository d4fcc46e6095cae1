/**
 * @file
 * Typed cycle-level trace events.
 *
 * Every observable transition the Warped Gates claims rest on — idle
 * windows opening, gate/ungate decisions, break-even countdowns,
 * critical wakeups, adaptive-window updates, warp migrations, MSHR
 * occupancy — is recorded as one fixed-size Event. Events are plain
 * values; the 16-byte layout keeps a full ring of them cache-friendly
 * and cheap to copy into sinks.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/fields.hh"
#include "common/types.hh"

namespace wg::trace {

/** Kinds of recorded transitions. */
enum class EventKind : std::uint8_t {
    Issue,          ///< instruction issued; unit/cluster, value = warp
    UnitIdle,       ///< pipeline went empty (idle-window start)
    UnitBusy,       ///< pipeline occupied again; value = idle-run length
    Gate,           ///< sleep transistor off; arg = GateReason,
                    ///< value = ACTV count of the type at the decision
    BetExpire,      ///< blackout compensated; value = held cycles
    WakeupDenied,   ///< request arrived during blackout hold
    Wakeup,         ///< sleep transistor on; arg = WakeReason
    WakeupDone,     ///< unit operational again (end of wakeup delay)
    EpochUpdate,    ///< adaptive window closed an epoch; unit = type,
                    ///< arg = critical wakeups (saturated at 255),
                    ///< value = new idle-detect window
    PrioritySwitch, ///< GATES HI/LO flip; unit = new HI class
    GreedySwitch,   ///< GTO switched its greedy warp; value = new warp
    WarpMigrate,    ///< warp moved sets; arg = new WarpLoc, value = warp
    MshrFill,       ///< miss allocated an MSHR; value = outstanding now
    MshrDrain,      ///< miss retired its MSHR; value = outstanding now
    MshrReject,     ///< LD/ST issues refused: MSHR pool full; one per
                    ///< run of consecutive cycles with equal tallies,
                    ///< arg = refused attempts per cycle,
                    ///< value = cycles in the run
};

/** Number of distinct EventKind values. */
inline constexpr std::size_t kNumEventKinds = 15;

/** Decode bound of EventKind (common/fields.hh). */
constexpr EnumRange
enumRange(EventKind)
{
    return {kNumEventKinds, "unknown event kind"};
}

/** Why a cluster was gated. */
enum class GateReason : std::uint8_t {
    IdleDetect, ///< idle-detect counter reached the window
    CoordDrain, ///< coordinated blackout: peer gated and ACTV == 0
};

/** Number of distinct GateReason values. */
inline constexpr std::size_t kNumGateReasons = 2;

/** Why a cluster was woken. */
enum class WakeReason : std::uint8_t {
    Demand,        ///< issue-blocked wakeup request, past break-even
    Critical,      ///< request was pending the cycle blackout ended
    Uncompensated, ///< conventional gating woke before break-even
};

/** Number of distinct WakeReason values. */
inline constexpr std::size_t kNumWakeReasons = 3;

/** Sentinel for events with no unit/cluster association. */
inline constexpr std::uint8_t kNoUnit = 0xff;
inline constexpr std::uint8_t kNoCluster = 0xff;

/** One recorded transition. */
struct Event
{
    Cycle cycle = 0;               ///< core-clock cycle of the event
    EventKind kind = EventKind::Issue;
    std::uint8_t unit = kNoUnit;   ///< UnitClass value, or kNoUnit
    std::uint8_t cluster = kNoCluster; ///< cluster index, or kNoCluster
    std::uint8_t arg = 0;          ///< kind-specific small payload
    std::uint32_t value = 0;       ///< kind-specific payload

    static constexpr auto
    fields()
    {
        using S = Event;
        return std::tuple{field("cycle", &S::cycle), field("kind", &S::kind),
                          field("unit", &S::unit),
                          field("cluster", &S::cluster),
                          field("arg", &S::arg), field("value", &S::value)};
    }
};

/** Printable names (stable identifiers used by every sink). */
const char* eventKindName(EventKind kind);
const char* gateReasonName(GateReason reason);
const char* wakeReasonName(WakeReason reason);

/**
 * Parse a kind name back into its enum (the JSONL reader).
 * @return false when @p name is unknown.
 */
bool parseEventKind(const char* name, EventKind& out);

/**
 * JSONL schema version the writer emits. Version 1 recorded one
 * payload-less MshrReject per refused attempt; version 2 one per tally
 * carrying its attempt count; version 3 one per run of equal tallies
 * carrying the attempts per cycle and the run's length in cycles.
 */
inline constexpr std::uint32_t kSchemaVersion = 3;

/** Oldest schema version the JSONL reader accepts. */
inline constexpr std::uint32_t kOldestSchemaVersion = 1;

/**
 * Trace-wide metadata every sink emits ahead of the event stream and
 * the invariant checker needs to replay a run: the gating policy and
 * its parameters. Plain strings/integers so the trace subsystem stays
 * below sim/ and pg/ in the dependency order.
 */
struct Meta
{
    std::uint32_t version = kSchemaVersion; ///< schema version
    std::string policy;         ///< pgPolicyName of the INT/FP domains
    std::string scheduler;      ///< schedulerPolicyName
    std::uint32_t numSms = 0;
    Cycle idleDetect = 0;       ///< initial idle-detect window
    Cycle breakEven = 0;        ///< BET (cycles)
    Cycle wakeupDelay = 0;      ///< wakeup latency (cycles)
    bool adaptive = false;      ///< adaptive idle detect enabled
    Cycle idleDetectMin = 0;
    Cycle idleDetectMax = 0;
    Cycle epochLength = 0;
    std::uint32_t criticalThreshold = 0;
    std::uint32_t decrementEpochs = 0;
    bool gateSfu = false;       ///< SFU runs conventional gating

    static constexpr auto
    fields()
    {
        using S = Meta;
        return std::tuple{field("version", &S::version),
                          field("policy", &S::policy),
                          field("scheduler", &S::scheduler),
                          field("sms", &S::numSms),
                          field("idleDetect", &S::idleDetect),
                          field("breakEven", &S::breakEven),
                          field("wakeupDelay", &S::wakeupDelay),
                          field("adaptive", &S::adaptive),
                          field("idleDetectMin", &S::idleDetectMin),
                          field("idleDetectMax", &S::idleDetectMax),
                          field("epochLength", &S::epochLength),
                          field("criticalThreshold", &S::criticalThreshold),
                          field("decrementEpochs", &S::decrementEpochs),
                          field("gateSfu", &S::gateSfu)};
    }
};

} // namespace wg::trace

