/**
 * @file
 * Technique presets matching the naming convention of the paper's
 * evaluation (Section 7.2):
 *
 *   Baseline             two-level scheduler, no power gating
 *   ConvPG               two-level scheduler + conventional gating
 *   GATES                GATES scheduler + conventional gating
 *   NaiveBlackout        GATES + naive blackout
 *   CoordinatedBlackout  GATES + coordinated blackout
 *   WarpedGates          GATES + coordinated blackout + adaptive
 *                        idle detect
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "sim/config.hh"

namespace wg {

/** The evaluated techniques. */
enum class Technique : std::uint8_t {
    Baseline,
    ConvPG,
    Gates,
    NaiveBlackout,
    CoordinatedBlackout,
    WarpedGates,
};

/** Printable technique name (paper spelling). */
const char* techniqueName(Technique t);

/** All techniques, in the paper's presentation order. */
const std::vector<Technique>& allTechniques();

/** Experiment-level knobs shared by all harnesses. */
struct ExperimentOptions
{
    unsigned numSms = 6;      ///< SMs simulated (results are per-SM
                              ///< homogeneous; fewer SMs = faster)
    std::uint64_t seed = 1;   ///< workload + latency seed
    Cycle idleDetect = 5;     ///< default idle-detect window (§7.1)
    Cycle breakEven = 14;     ///< default break-even time (§7.1)
    Cycle wakeupDelay = 3;    ///< default wakeup delay (§7.1)

    static constexpr auto
    fields()
    {
        using S = ExperimentOptions;
        return std::tuple{field("numSms", &S::numSms),
                          field("seed", &S::seed),
                          field("idleDetect", &S::idleDetect),
                          field("breakEven", &S::breakEven),
                          field("wakeupDelay", &S::wakeupDelay)};
    }
};

/**
 * Build the full GPU configuration for a technique.
 * PG parameters come from @p opts so the sensitivity benches (Fig. 11)
 * can sweep them.
 */
GpuConfig makeConfig(Technique t, const ExperimentOptions& opts = {});

} // namespace wg

