/**
 * @file
 * Register scoreboard.
 *
 * Tracks, per warp, which architectural registers have an in-flight
 * producer, and whether that producer is a long-latency operation (a
 * global-miss load). The latter drives two-level active/pending
 * residency: a warp whose head instruction is blocked by a long-latency
 * producer is demoted to the pending set.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "arch/instr.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace wg {

/**
 * Bitmask scoreboard over a 16-register window per warp (the synthetic
 * programs use registers 0..15).
 */
class Scoreboard
{
  public:
    /** @param num_warps warps tracked. */
    explicit Scoreboard(std::size_t num_warps);

    /** @return true when @p instr has no RAW/WAW hazard for @p warp. */
    bool
    ready(WarpId warp, const Instruction& instr) const
    {
        return (maskOf(instr) & pending_[warp]) == 0;
    }

    /**
     * @return true when @p instr is blocked specifically by a
     * long-latency producer (implies !ready()).
     */
    bool
    blockedOnLong(WarpId warp, const Instruction& instr) const
    {
        return (maskOf(instr) & pendingLong_[warp]) != 0;
    }

    /**
     * Register-mask probes for the incremental ready-bit protocol: the
     * SM caches each warp's head-instruction regMask() and re-ANDs it
     * against these words only when an issue / completion / fetch event
     * touches that warp, instead of re-probing every warp every cycle.
     */
    bool
    readyMask(WarpId warp, std::uint32_t reg_mask) const
    {
        return (reg_mask & pending_[warp]) == 0;
    }

    /** Mask analogue of blockedOnLong(). */
    bool
    blockedOnLongMask(WarpId warp, std::uint32_t reg_mask) const
    {
        return (reg_mask & pendingLong_[warp]) != 0;
    }

    /** Record @p instr issuing from @p warp. */
    void markIssued(WarpId warp, const Instruction& instr);

    /** Producer of (warp, reg) completed; clears the pending bit. */
    void complete(WarpId warp, RegId reg);

    /** @return true when the warp has no pending registers. */
    bool clean(WarpId warp) const;

    /** Reset all state. */
    void reset();

    // --- checkpoint/resume ---

    /** Raw pending-producer word for @p warp (checkpoint capture). */
    std::uint32_t pendingWord(WarpId warp) const { return pending_[warp]; }

    /** Raw long-latency-producer word for @p warp. */
    std::uint32_t
    pendingLongWord(WarpId warp) const
    {
        return pendingLong_[warp];
    }

    /** Overwrite both scoreboard words for @p warp from a checkpoint. */
    void
    restoreWords(WarpId warp, std::uint32_t pending,
                 std::uint32_t pending_long)
    {
        pending_[warp] = pending;
        pendingLong_[warp] = pending_long;
    }

  private:
    /** Bit over registers 0..15. */
    static std::uint32_t
    bit(RegId reg)
    {
        return 1u << (reg & 15u);
    }

    static std::uint32_t
    maskOf(const Instruction& instr)
    {
        return instr.regMask();
    }

    std::vector<std::uint32_t> pending_;     ///< in-flight producers
    std::vector<std::uint32_t> pendingLong_; ///< ... that are long-latency
};

// Defined here so the SM's step compiles them inline (DESIGN §14 "One
// inlined stepped cycle").

inline void
Scoreboard::markIssued(WarpId warp, const Instruction& instr)
{
    if (instr.dest == kNoReg)
        return;
    std::uint32_t b = bit(instr.dest);
    if (pending_[warp] & b)
        panic("scoreboard: WAW violation, warp ", warp, " reg ",
              instr.dest);
    pending_[warp] |= b;
    if (instr.isLongLatency())
        pendingLong_[warp] |= b;
}

inline void
Scoreboard::complete(WarpId warp, RegId reg)
{
    std::uint32_t b = bit(reg);
    pending_[warp] &= ~b;
    pendingLong_[warp] &= ~b;
}

} // namespace wg

