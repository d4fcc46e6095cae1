/**
 * @file
 * Power-gating policy selection and parameters (paper Sections 2.2, 5,
 * 5.1 and 7.1).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace wg {

/** Which power-gating controller drives the INT/FP clusters. */
enum class PgPolicy : std::uint8_t {
    None,                ///< no gating (baseline energy accounting only)
    Conventional,        ///< Hu et al. ISLPED'04 state machine
    NaiveBlackout,       ///< blackout: no wakeup before break-even time
    CoordinatedBlackout, ///< blackout + cluster-aware second-unit rule
};

/** Printable policy name. */
const char* pgPolicyName(PgPolicy policy);

/** Inverse of pgPolicyName(); false for an unknown name. */
bool parsePgPolicy(const std::string& name, PgPolicy& out);

/** Parameters of the gating controllers. Paper defaults in §7.1. */
struct PgParams
{
    PgPolicy policy = PgPolicy::None;

    Cycle idleDetect = 5;   ///< idle cycles before gating
    Cycle breakEven = 14;   ///< BET: cycles to recoup E_overhead
    Cycle wakeupDelay = 3;  ///< cycles from wake signal to operational

    /**
     * Extension (paper Section 3): also gate the SFU block. SFU
     * instructions are rare, so the paper argues plain conventional
     * gating suffices there; when enabled the SFU domain always runs
     * the conventional state machine regardless of `policy`.
     */
    bool gateSfu = false;

    // --- Adaptive idle detect (Section 5.1) ---
    bool adaptiveIdleDetect = false;
    Cycle epochLength = 1000;        ///< cycles per adaptation epoch
    std::uint32_t criticalThreshold = 5; ///< critical wakeups per epoch
    Cycle idleDetectMin = 5;         ///< lower bound when adaptive
    Cycle idleDetectMax = 10;        ///< upper bound when adaptive
    std::uint32_t decrementEpochs = 4; ///< good epochs before decrement

    /**
     * Parameter sanity check. @return one actionable message per
     * problem (empty = valid): break-even of 0 under an active policy,
     * inverted adaptive bounds, a zero epoch, and similar nonsense
     * that would otherwise simulate quietly.
     */
    std::vector<std::string> validate() const;
};

} // namespace wg

