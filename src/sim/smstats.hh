/**
 * @file
 * Raw statistics produced by one SM simulation.
 */

#pragma once

#include <array>
#include <cstdint>

#include "arch/instr.hh"
#include "common/fields.hh"
#include "common/histogram.hh"
#include "common/types.hh"
#include "pg/domain.hh"

namespace wg {

/** Per-gateable-cluster outcome. */
struct ClusterStats
{
    PgDomainStats pg;          ///< state-machine cycle/event counters
    std::uint64_t issues = 0;  ///< warp instructions executed
    Histogram idleHist{64};    ///< idle-period-length distribution

    static constexpr auto
    fields()
    {
        using S = ClusterStats;
        constexpr FieldRule kSum = FieldRule::Sum;
        return std::tuple{field("pg", &S::pg, kSum).named(""),
                          field("issues", &S::issues, kSum),
                          field("idleHist", &S::idleHist, kSum)};
    }
};

/** Everything one SM run produces. */
struct SmStats
{
    Cycle cycles = 0;               ///< simulated cycles
    bool completed = false;         ///< all warps drained (vs maxCycles)

    std::array<std::uint64_t, kNumUnitClasses> issuedByClass = {};
    std::uint64_t issuedTotal = 0;

    /** [type][cluster]; type 0 = INT, 1 = FP. */
    std::array<std::array<ClusterStats, 2>, 2> clusters;

    /** SFU gating-extension stats (all-idle counters when disabled). */
    ClusterStats sfuCluster;

    std::uint64_t sfuIssues = 0;
    std::uint64_t ldstIssues = 0;
    std::uint64_t sfuBusyCycles = 0;
    std::uint64_t ldstBusyCycles = 0;

    // Active-warps-set occupancy (Fig. 5b).
    std::uint64_t activeSizeAccum = 0; ///< sum over cycles
    std::uint32_t activeSizeMax = 0;

    std::uint64_t prioritySwitches = 0;
    std::uint64_t wakeupRequests = 0;  ///< issue-blocked-on-gated events

    // Memory system.
    std::uint64_t memHits = 0;
    std::uint64_t memMisses = 0;
    std::uint64_t memStores = 0;
    std::uint64_t mshrRejects = 0;

    // Adaptive idle detect outcomes.
    std::array<Cycle, 2> finalIdleDetect = {0, 0}; ///< [INT, FP]
    std::array<std::uint64_t, 2> adaptIncrements = {0, 0};
    std::array<std::uint64_t, 2> adaptDecrements = {0, 0};

    /** Registry labels of issuedByClass, clusters and [type] arrays. */
    static constexpr const char* kClassLabels[] = {"int", "fp", "sfu",
                                                   "ldst"};
    static constexpr const char* kClusterLabels[] = {"int0", "int1", "fp0",
                                                     "fp1"};
    static constexpr const char* kTypeLabels[] = {"int", "fp"};

    static constexpr auto
    fields()
    {
        using S = SmStats;
        constexpr FieldRule kSum = FieldRule::Sum;
        constexpr FieldRule kMax = FieldRule::Max;
        return std::tuple{
            field("cycles", &S::cycles, kSum),
            field("completed", &S::completed, FieldRule::And),
            field("issuedByClass", &S::issuedByClass, kSum)
                .named("issued.*", kClassLabels),
            field("issuedTotal", &S::issuedTotal, kSum)
                .named("instructions"),
            field("clusters", &S::clusters, kSum)
                .named("pg.*", kClusterLabels)
                .byType(),
            field("sfuCluster", &S::sfuCluster, kSum).named("pg.sfu"),
            field("sfuIssues", &S::sfuIssues, kSum)
                .named("units.sfuIssues"),
            field("ldstIssues", &S::ldstIssues, kSum)
                .named("units.ldstIssues"),
            field("sfuBusyCycles", &S::sfuBusyCycles, kSum)
                .named("units.sfuBusyCycles"),
            field("ldstBusyCycles", &S::ldstBusyCycles, kSum)
                .named("units.ldstBusyCycles"),
            field("activeSizeAccum", &S::activeSizeAccum, kSum)
                .named("sched.activeSizeAccum"),
            field("activeSizeMax", &S::activeSizeMax, kMax)
                .named("sched.activeSizeMax"),
            field("prioritySwitches", &S::prioritySwitches, kSum)
                .named("sched.prioritySwitches"),
            field("wakeupRequests", &S::wakeupRequests, kSum)
                .named("sched.wakeupRequests"),
            field("memHits", &S::memHits, kSum).named("mem.hits"),
            field("memMisses", &S::memMisses, kSum).named("mem.misses"),
            field("memStores", &S::memStores, kSum).named("mem.stores"),
            field("mshrRejects", &S::mshrRejects, kSum)
                .named("mem.mshrRejects"),
            // Max: SMs adapt independently; the values are typically
            // identical.
            field("finalIdleDetect", &S::finalIdleDetect, kMax)
                .named("adaptive.*.finalIdleDetect", kTypeLabels),
            field("adaptIncrements", &S::adaptIncrements, kSum)
                .named("adaptive.*.increments", kTypeLabels),
            field("adaptDecrements", &S::adaptDecrements, kSum)
                .named("adaptive.*.decrements", kTypeLabels),
        };
    }

    /** Mean active-set size over the run. */
    double
    avgActiveWarps() const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(activeSizeAccum) /
               static_cast<double>(cycles);
    }
};

} // namespace wg

