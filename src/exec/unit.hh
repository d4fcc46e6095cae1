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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "arch/instr.hh"
#include "common/fields.hh"
#include "common/logging.hh"
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
 * Checkpoint state of one execution unit: the occupancy ends ascending
 * and the completions in (done, warp, dest, longLatency) order, so
 * identical simulator states serialize to identical bytes. Restoring
 * requires the occupancy list, and a fixed-latency unit's completion
 * list, to be strictly ascending and no longer than the unit can hold
 * in flight (ExecUnit::checkState).
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
 * FIFO of one unit's in-flight events, oldest first, holding at most
 * the unit's in-flight bound. The slots are rounded up to a power of
 * two so the wrap is a mask. Under the SM's tick-and-drain-before-issue
 * protocol the bound is never exceeded; a push beyond it panics.
 */
template <typename T>
class InFlightRing
{
  public:
    /** @param capacity most events held at once (>= 1) */
    explicit InFlightRing(std::size_t capacity)
        : slots_(std::bit_ceil(capacity)), mask_(slots_.size() - 1),
          capacity_(capacity)
    {
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const T& front() const { return slots_[head_]; }

    /** @p i-th oldest event (0 = front()). */
    const T&
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & mask_];
    }

    void
    push(const T& v)
    {
        if (size_ == capacity_)
            panic("more than ", capacity_,
                  " events in flight: tick and drain before issue");
        slots_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    void
    pop()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::vector<T> slots_;
    std::size_t mask_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/**
 * One pipelined cluster. The SM drives it with issue() and tick();
 * the power-gating controller observes busy().
 *
 * In-flight events live in FIFOs where their order is fixed by issue
 * order. Occupancy ends are issue + occupancy with strictly rising
 * issue cycles (II >= 1), so they rise; so do the completions of a
 * fixed-latency unit (INT, FP, SFU: done = issue + latency). Only the
 * LD/ST unit, whose results come back when the memory system says,
 * keeps its completions in a min-heap.
 *
 * The SM calls tick(now) and drainCompletions(now) before any
 * issue(now), so a FIFO never holds more than the unit's in-flight
 * bound (maxOccupancy(), maxCompletions()): an issue that would exceed
 * it panics, and a snapshot whose lists exceed it did not come from a
 * run.
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
     * @param complete cycle the result is visible (scoreboard clear);
     *        now + latency() on a fixed-latency unit
     * @param warp issuing warp
     * @param dest destination register or kNoReg
     * @param long_latency marks global-miss loads
     */
    void
    issue(Cycle now, Cycle complete, WarpId warp, RegId dest,
          bool long_latency)
    {
        if (!canAccept(now))
            panic(name_, ": issue() while port busy at cycle ", now);
        last_issue_ = now;
        ++issues_;
        occupancy_.push(now + config_.occupancy);
        const Completion c{complete, warp, dest, long_latency};
        if (!fixed_latency_) {
            memory_done_.push(c);
            return;
        }
        if (complete != now + config_.latency)
            panic(name_, ": completion at ", complete, " for an issue at ",
                  now, " breaks the fixed latency ", config_.latency);
        fixed_done_.push(c);
    }

    /** Retire finished occupancy slots; call once per cycle. */
    void
    tick(Cycle now)
    {
        while (!occupancy_.empty() && occupancy_.front() <= now)
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
        const Cycle e =
            occupancy_.empty() ? kNeverCycle : occupancy_.front();
        return std::min(e, nextCompletionCycle());
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
        if (fixed_latency_)
            return fixed_done_.empty() ? kNeverCycle
                                       : fixed_done_.front().done;
        return memory_done_.empty() ? kNeverCycle
                                    : memory_done_.top().done;
    }

    /**
     * Cycle at which busy() flips to false if nothing more issues
     * (0 when already idle). Occupancy ends rise with issue order, so
     * the latest end is the last issue's.
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

    /**
     * Hand every completion due at or before @p now to @p retire, in
     * done order (the LD/ST heap breaks ties by its layout history).
     */
    template <typename Retire>
    void
    drainCompletions(Cycle now, Retire&& retire)
    {
        if (fixed_latency_) {
            while (!fixed_done_.empty() && fixed_done_.front().done <= now) {
                retire(fixed_done_.front());
                fixed_done_.pop();
            }
            return;
        }
        while (!memory_done_.empty() && memory_done_.top().done <= now) {
            const Completion c = memory_done_.top();
            memory_done_.pop();
            retire(c);
        }
    }

    UnitClass unitClass() const { return class_; }
    unsigned index() const { return index_; }
    const std::string& name() const { return name_; }

    /** Total instructions issued to this cluster. */
    std::uint64_t issueCount() const { return issues_; }

    /** @return configured result latency. */
    Cycle latency() const { return config_.latency; }

    /**
     * Most occupancy slots in flight at once: ceil(occupancy / II).
     * Ends alive after tick(t) and an issue at t come from issues in
     * [t - occupancy + 1, t], at least II apart.
     */
    std::size_t maxOccupancy() const { return max_occupancy_; }

    /**
     * Most completions in flight at once: ceil(latency / II) for a
     * fixed-latency unit (the same argument over drainCompletions),
     * 0 for LD/ST, whose count the memory system bounds instead.
     */
    std::size_t maxCompletions() const { return max_completions_; }

    /** Capture in-flight events + issue bookkeeping for a checkpoint. */
    ExecUnitState saveState() const;

    /**
     * Why @p s cannot be restored into this unit — an occupancy list,
     * or a fixed-latency completion list, that is not strictly
     * ascending or holds more than the unit can have in flight — or
     * null when it can.
     */
    const char* checkState(const ExecUnitState& s) const;

    /** Rebuild the unit mid-flight from a captured ExecUnitState
     *  (checkState(s) must accept it). */
    void restoreState(const ExecUnitState& s);

  private:
    UnitClass class_;
    unsigned index_;
    ExecUnitConfig config_;
    std::string name_;
    bool fixed_latency_; ///< completions are issue + latency (not LD/ST)
    std::size_t max_occupancy_;   ///< see maxOccupancy()
    std::size_t max_completions_; ///< see maxCompletions()

    Cycle last_issue_ = kNeverCycle; ///< for initiation-interval check
    std::uint64_t issues_ = 0;

    /** Occupancy-end cycles, ascending. */
    InFlightRing<Cycle> occupancy_;

    /** Pending completions of a fixed-latency unit, ascending done. */
    InFlightRing<Completion> fixed_done_;

    /** Min-heap of LD/ST completions, ordered by done cycle. */
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
        memory_done_;
};

} // namespace wg

