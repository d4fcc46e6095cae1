/**
 * @file
 * Deterministic checkpoint state of a simulation (DESIGN.md §17).
 *
 * An SmSnapshot captures everything a mid-run SM needs to continue
 * bit-identically: warp slots, scoreboard words, scheduler policy
 * state, execution-unit heaps, the memory system (including its RNG
 * stream position), the power-gating state machines, the residency
 * lists in their exact order, the partial SmStats, and — when the run
 * is observed — the epoch-sampler partials and the trace ring.
 *
 * Deliberately NOT captured (recomputed or segment-local):
 *   - the i-buffer rings (re-decoded from the program at restore),
 *   - the derived ready/blocked masks and ACTV aggregates,
 *   - fast-forward span diagnostics (ffSkippedCycles/ffSpans describe
 *     one process's work, not simulation state),
 *   - the workload programs themselves (regenerated from the profile
 *     and seed, which the serialized envelope pins).
 *
 * These are plain structs; the JSON codec lives in src/serve (the sim
 * library cannot depend on the serve layer).
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "exec/unit.hh"
#include "mem/memsys.hh"
#include "metrics/sampler.hh"
#include "pg/controller.hh"
#include "sched/scheduler.hh"
#include "sched/warp.hh"
#include "sim/smstats.hh"
#include "trace/event.hh"

namespace wg {

/** Complete checkpoint state of one SM. */
struct SmSnapshot
{
    Cycle now = 0;                   ///< cycles completed
    bool done = false;               ///< every warp finished
    bool finishedStats = false;      ///< finish() already ran
    std::uint64_t liveWarps = 0;     ///< warps not yet Finished
    std::uint64_t ldstIdleRun = 0;   ///< open LD/ST idle-period length
    std::array<std::uint32_t, 2> rrCluster = {0, 0}; ///< ALU round-robin

    /** Residency lists in their exact (order-significant) order. */
    std::vector<std::uint32_t> active;  ///< LRI order, front = LRI
    std::vector<std::uint32_t> waiting; ///< FIFO
    std::vector<std::uint32_t> pending; ///< FIFO

    std::vector<WarpSlotState> warps;          ///< per-warp slots
    std::vector<std::uint32_t> scoreboard;     ///< pending words
    std::vector<std::uint32_t> scoreboardLong; ///< long-latency words

    SchedulerState scheduler;             ///< policy state
    std::array<ExecUnitState, 2> intUnits; ///< INT clusters
    std::array<ExecUnitState, 2> fpUnits;  ///< FP clusters
    ExecUnitState sfu;
    ExecUnitState ldst;
    MemSystemState mem;
    PgControllerState pg;
    SmStats stats;                        ///< partial (or final) stats

    /** Trace section; present iff the SM had a recorder attached. */
    bool hasTrace = false;
    /** trace::kSchemaVersion of the build that recorded traceEvents. */
    std::uint32_t traceSchema = 0;
    std::vector<trace::Event> traceEvents; ///< retained, oldest first
    std::uint64_t traceOverwritten = 0;    ///< pre-checkpoint ring loss

    /** Metrics section; present iff the SM had a sampler attached. */
    bool hasSampler = false;
    metrics::SamplerState sampler;

    static constexpr auto
    fields()
    {
        using S = SmSnapshot;
        return std::tuple{
            field("now", &S::now),
            field("done", &S::done),
            field("finishedStats", &S::finishedStats),
            field("liveWarps", &S::liveWarps),
            field("ldstIdleRun", &S::ldstIdleRun),
            field("rrCluster", &S::rrCluster),
            field("active", &S::active),
            field("waiting", &S::waiting),
            field("pending", &S::pending),
            field("warps", &S::warps),
            field("scoreboard", &S::scoreboard),
            field("scoreboardLong", &S::scoreboardLong),
            field("scheduler", &S::scheduler),
            field("intUnits", &S::intUnits),
            field("fpUnits", &S::fpUnits),
            field("sfu", &S::sfu),
            field("ldst", &S::ldst),
            field("mem", &S::mem),
            field("pg", &S::pg),
            field("stats", &S::stats),
            field("hasTrace", &S::hasTrace),
            field("traceSchema", &S::traceSchema).onlyIf(&S::hasTrace),
            field("traceEvents", &S::traceEvents).onlyIf(&S::hasTrace),
            field("traceOverwritten", &S::traceOverwritten)
                .onlyIf(&S::hasTrace),
            field("hasSampler", &S::hasSampler),
            field("sampler", &S::sampler).onlyIf(&S::hasSampler),
        };
    }
};

/** Checkpoint of a whole-GPU run at one runUntil() boundary. */
struct GpuSnapshot
{
    Cycle cycle = 0;             ///< the runUntil() checkpoint cycle
    std::vector<SmSnapshot> sms; ///< one per SM, SM index order

    static constexpr auto
    fields()
    {
        using S = GpuSnapshot;
        return std::tuple{field("cycle", &S::cycle), field("sms", &S::sms)};
    }
};

} // namespace wg
