/**
 * @file
 * Simulation configuration: one struct per SM, one for the whole GPU.
 * Defaults model the GTX480 configuration the paper uses (Section 7.1).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/unit.hh"
#include "mem/memsys.hh"
#include "pg/params.hh"
#include "power/constants.hh"
#include "sched/gates.hh"

namespace wg {

/** Which warp scheduler the SM uses. */
enum class SchedulerPolicy : std::uint8_t {
    TwoLevel, ///< baseline two-level scheduler (Gebhart et al.)
    Gates,    ///< gating-aware two-level scheduler (the paper)
    Gto,      ///< greedy-then-oldest (GPGPU-Sim default; extra baseline)
};

/** Printable scheduler name. */
const char* schedulerPolicyName(SchedulerPolicy policy);

/** Inverse of schedulerPolicyName(); false for an unknown name. */
bool parseSchedulerPolicy(const std::string& name, SchedulerPolicy& out);

/** Per-SM microarchitecture configuration. */
struct SmConfig
{
    SchedulerPolicy scheduler = SchedulerPolicy::TwoLevel;
    GatesConfig gates;  ///< GATES tunables (used when scheduler==Gates)
    PgParams pg;        ///< power-gating policy and parameters
    MemConfig mem;      ///< memory-system latencies and MSHRs

    unsigned issueWidth = 2;        ///< warps issued per SM per cycle
    unsigned activeSetCapacity = 32; ///< two-level active-set size
    unsigned ibufferDepth = 2;      ///< decoded entries per warp

    /** INT/FP cluster pipelines: 4-cycle latency, II = 1 (GPGPU-Sim
     *  Fermi defaults quoted in Section 3.1). */
    ExecUnitConfig alu = {4, 1, 0};
    /** SFU: long latency, quarter-rate initiation (4 units). */
    ExecUnitConfig sfu = {20, 8, 0};
    /** LD/ST pipeline: occupancy is the AGU/coalescer time; result
     *  latency comes from the memory system per access. */
    ExecUnitConfig ldst = {4, 1, 4};

    Cycle maxCycles = 4'000'000; ///< safety stop for runaway workloads

    /**
     * Event-horizon fast-forward: when the SM proves no state can
     * change before cycle h, jump the clock there while replaying the
     * skipped span into every counter. Results are bit-identical to
     * the cycle-by-cycle path (gated by tests and wgreport --tol 0);
     * disable only to cross-check (`wgsim --no-fastforward`).
     */
    bool fastForward = true;

    /**
     * Configuration sanity check. @return one actionable message per
     * problem (empty = valid). Includes the nested PgParams and unit
     * checks; wgsim and ExperimentRunner reject invalid configs up
     * front instead of simulating nonsense.
     */
    std::vector<std::string> validate() const;
};

/** Whole-GPU configuration. */
struct GpuConfig
{
    /** Upper bound validate() puts on numSms; no caller uses over 64. */
    static constexpr unsigned kMaxSms = 1024;

    SmConfig sm;
    unsigned numSms = 15;       ///< GTX480 has 15 SMs
    std::uint64_t seed = 1;     ///< experiment seed
    PowerConstants power;       ///< energy-model constants

    /** GPU-level sanity check; includes sm.validate(). */
    std::vector<std::string> validate() const;
};

} // namespace wg

