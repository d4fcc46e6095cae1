/**
 * @file
 * Aggregated multi-SM simulation results plus the derived metrics the
 * paper's figures plot.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "power/energymodel.hh"
#include "sim/config.hh"
#include "sim/smstats.hh"

namespace wg {

/** Result of simulating one workload on one GPU configuration. */
struct SimResult
{
    GpuConfig config;

    /** Wall-clock runtime in cycles: the slowest SM (SMs run in
     *  parallel in hardware). */
    Cycle cycles = 0;

    /** Sum of per-SM cycle counts (denominator for per-cluster
     *  utilisation ratios). */
    std::uint64_t totalSmCycles = 0;

    /** Counter totals across SMs (aggregate.cycles == totalSmCycles). */
    SmStats aggregate;

    /** Per-SM runtimes. */
    std::vector<Cycle> smCycles;

    /** Energy ledgers per unit type (summed over SMs and clusters). */
    UnitEnergy intEnergy;
    UnitEnergy fpEnergy;
    UnitEnergy sfuEnergy;
    UnitEnergy ldstEnergy;

    /** Idle-period histograms merged over SMs and clusters, per type. */
    Histogram intIdleHist{64};
    Histogram fpIdleHist{64};

    // ----- derived metrics (paper figures) -----

    /** Energy ledger for Int or Fp. */
    const UnitEnergy& energy(UnitClass uc) const;

    /** Merged idle histogram for Int or Fp. */
    const Histogram& idleHist(UnitClass uc) const;

    /** Aggregated gating stats of both clusters of a type. */
    PgDomainStats typeStats(UnitClass uc) const;

    /**
     * Fraction of cluster-cycles the type's pipelines were idle
     * (Fig. 8a numerator before normalisation).
     */
    double idleFraction(UnitClass uc) const;

    /**
     * (compensated - uncompensated) gated cycles as a fraction of
     * cluster-cycles (Fig. 8b; negative = net-loss-dominated).
     */
    double compensatedNetFraction(UnitClass uc) const;

    /** Wakeup count for the type (Fig. 8c numerator). */
    std::uint64_t wakeups(UnitClass uc) const;

    /** Critical wakeups per 1000 cycles per SM (Fig. 6 x-axis). */
    double criticalWakeupsPer1k(UnitClass uc) const;

    /**
     * Idle-period distribution split into the three Fig. 3 regions for
     * the given idle-detect and break-even parameters:
     * [0] lengths <= idle-detect (wasted),
     * [1] in (idle-detect, idle-detect + BET] (net loss under
     *     conventional gating),
     * [2] longer than idle-detect + BET (net win).
     */
    std::array<double, 3> idleRegions(UnitClass uc, Cycle idle_detect,
                                      Cycle bet) const;

    /** Total average instructions-per-cycle across the GPU. */
    double ipc() const;
};

/** Compute the energy ledgers of @p result from its aggregate stats. */
void computeEnergy(SimResult& result);

} // namespace wg

