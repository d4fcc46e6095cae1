/**
 * @file
 * Pipelined execution-unit cluster model.
 *
 * One ExecUnit models one *gateable domain*: a 16-lane SIMT cluster that
 * accepts one warp instruction per initiation interval (the 16 CUDA
 * cores run at 2x clock, so a 32-thread warp occupies the cluster for a
 * single issue cycle — exactly the GTX480 arrangement in the paper).
 * The SM instantiates two INT clusters, two FP clusters (SP0/SP1), one
 * LD/ST pipeline and one SFU pipeline.
 *
 * The unit separates *occupancy* (cycles the silicon is actually
 * switching, which drives busy/idle detection for power gating) from
 * *result availability* (when the scoreboard learns the value is ready;
 * for loads this is whenever the memory system returns the data, long
 * after the LD/ST pipeline itself went idle).
 */

#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "arch/instr.hh"
#include "common/fields.hh"
#include "common/types.hh"

namespace wg {

/** Static configuration of one execution unit. */
struct ExecUnitConfig
{
    Cycle latency = 4;             ///< result latency (ALU default 4)
    Cycle initiationInterval = 1;  ///< min cycles between issues
    Cycle occupancy = 0;           ///< pipeline-occupancy cycles;
                                   ///< 0 means "same as latency"
};

/** A value (or store) finishing execution. */
struct Completion
{
    Cycle done;         ///< cycle the result becomes visible
    WarpId warp;        ///< producing warp
    RegId dest;         ///< destination register (kNoReg for stores)
    bool longLatency;   ///< true for global-miss loads

    static constexpr auto
    fields()
    {
        using S = Completion;
        return std::tuple{field("done", &S::done), field("warp", &S::warp),
                          field("dest", &S::dest),
                          field("longLatency", &S::longLatency)};
    }
};

/**
 * Checkpoint state of one execution unit. The two heaps are captured
 * as sorted vectors (occupancy ascending; completions by (done, warp,
 * dest, longLatency)) so identical simulator states serialize to
 * identical bytes regardless of heap layout history.
 */
struct ExecUnitState {
    Cycle lastIssue = kNeverCycle;      ///< initiation-interval anchor
    std::uint64_t issues = 0;           ///< lifetime issue count
    std::vector<Cycle> occupancy;       ///< occupancy-end cycles
    std::vector<Completion> completions; ///< in-flight results

    static constexpr auto
    fields()
    {
        using S = ExecUnitState;
        return std::tuple{field("lastIssue", &S::lastIssue),
                          field("issues", &S::issues),
                          field("occupancy", &S::occupancy),
                          field("completions", &S::completions)};
    }
};

/**
 * One pipelined cluster. The SM drives it with issue() and tick();
 * the power-gating controller observes busy().
 */
class ExecUnit
{
  public:
    /**
     * @param cls unit class this cluster executes
     * @param index cluster index within its class (0 or 1 for INT/FP)
     */
    ExecUnit(UnitClass cls, unsigned index, const ExecUnitConfig& config);

    /** @return true when the issue port is free this cycle. */
    bool
    canAccept(Cycle now) const
    {
        return last_issue_ == kNeverCycle ||
               now >= last_issue_ + config_.initiationInterval;
    }

    /**
     * Issue a warp instruction.
     * @param now issue cycle (canAccept(now) must hold)
     * @param complete cycle the result is visible (scoreboard clear)
     * @param warp issuing warp
     * @param dest destination register or kNoReg
     * @param long_latency marks global-miss loads
     */
    void issue(Cycle now, Cycle complete, WarpId warp, RegId dest,
               bool long_latency);

    /** Retire finished occupancy slots; call once per cycle. */
    void
    tick(Cycle now)
    {
        while (!occupancy_.empty() && occupancy_.top() <= now)
            occupancy_.pop();
    }

    /** @return true while any instruction occupies the pipeline. */
    bool busy() const { return !occupancy_.empty(); }

    /**
     * First future cycle at which this unit's externally visible state
     * changes on its own: an occupancy slot retires (busy() flips) or a
     * completion becomes drainable. kNeverCycle when the unit is fully
     * drained. Used by the event-horizon fast-forward to bound how far
     * the SM may skip.
     */
    Cycle
    nextEventCycle() const
    {
        Cycle e = kNeverCycle;
        if (!occupancy_.empty())
            e = occupancy_.top();
        if (!completions_.empty() && completions_.top().done < e)
            e = completions_.top().done;
        return e;
    }

    /**
     * First future cycle a completion becomes drainable, ignoring
     * occupancy retires. The LD/ST pipeline's busy flag feeds nothing
     * but a stats counter (no PG domain, not a pg.tick input), so the
     * untraced fast-forward bounds its horizon with this instead of
     * nextEventCycle() and replays the busy cycles via busyUntil().
     */
    Cycle
    nextCompletionCycle() const
    {
        return completions_.empty() ? kNeverCycle
                                    : completions_.top().done;
    }

    /**
     * Cycle at which busy() flips to false if nothing more issues
     * (0 when already idle). Occupancy ends are issue + occupancy with
     * monotonically increasing issue cycles, so the latest end is the
     * last issue's.
     */
    Cycle
    busyUntil() const
    {
        return occupancy_.empty() ? 0
                                  : last_issue_ + config_.occupancy;
    }

    /**
     * First cycle the issue port accepts again (0 when it already
     * does). Unlike nextEventCycle() this is not a state change — the
     * port "frees" purely as a function of time — but the fast-forward
     * must stop there when a ready instruction is waiting on the port,
     * because the issue that follows is one.
     */
    Cycle
    portFreeCycle() const
    {
        return last_issue_ == kNeverCycle
                   ? 0
                   : last_issue_ + config_.initiationInterval;
    }

    /** Move completions due at or before @p now into @p out. */
    void
    drainCompletions(Cycle now, std::vector<Completion>& out)
    {
        while (!completions_.empty() && completions_.top().done <= now) {
            out.push_back(completions_.top());
            completions_.pop();
        }
    }

    UnitClass unitClass() const { return class_; }
    unsigned index() const { return index_; }
    const std::string& name() const { return name_; }

    /** Total instructions issued to this cluster. */
    std::uint64_t issueCount() const { return issues_; }

    /** @return configured result latency. */
    Cycle latency() const { return config_.latency; }

    /** Capture heap contents + issue bookkeeping for a checkpoint. */
    ExecUnitState saveState() const;

    /** Rebuild the unit mid-flight from a captured ExecUnitState. */
    void restoreState(const ExecUnitState& s);

  private:
    UnitClass class_;
    unsigned index_;
    ExecUnitConfig config_;
    std::string name_;

    Cycle last_issue_ = kNeverCycle; ///< for initiation-interval check
    std::uint64_t issues_ = 0;

    /** Min-heap of occupancy-end cycles. */
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        occupancy_;

    /** Min-heap of pending completions, ordered by done cycle. */
    struct CompletionLater
    {
        bool
        operator()(const Completion& a, const Completion& b) const
        {
            return a.done > b.done;
        }
    };
    std::priority_queue<Completion, std::vector<Completion>,
                        CompletionLater>
        completions_;
};

} // namespace wg

