/**
 * @file
 * A per-warp program: the straight-line instruction sequence a warp
 * executes. Control flow is pre-resolved (trace-style), matching how the
 * power-gating study treats the instruction stream.
 */

#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "arch/instr.hh"

namespace wg {

/**
 * Immutable instruction sequence executed by one warp: a shared handle,
 * so copies (the warps of one CTA, each SM's copy of its warps) share
 * one vector and copying costs a reference-count bump. Also caches the
 * per-class instruction counts for workload-characterisation reports
 * (Fig. 5a).
 */
class Program
{
  public:
    Program() = default;

    /** Build from an instruction vector. */
    explicit Program(std::vector<Instruction> instrs);

    /** @return instruction at @p pc (pc < size()). */
    const Instruction& at(std::size_t pc) const { return data_[pc]; }

    /** @return number of instructions. */
    std::size_t size() const { return size_; }

    /** @return true when the program has no instructions. */
    bool empty() const { return size_ == 0; }

    /** @return count of instructions of unit class @p uc. */
    std::size_t countOf(UnitClass uc) const;

    /**
     * @return the instructions; the storage is shared by every copy
     * and lives as long as any of them.
     */
    std::span<const Instruction> instructions() const
    {
        return {data_, size_};
    }

  private:
    std::shared_ptr<const std::vector<Instruction>> instrs_;
    const Instruction* data_ = nullptr; ///< instrs_->data(), cached
    std::size_t size_ = 0;
    std::array<std::size_t, kNumUnitClasses> class_counts_ = {};
};

} // namespace wg
