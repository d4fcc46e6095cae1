/**
 * @file
 * Synthetic program generation from benchmark profiles.
 */

#pragma once

#include <vector>

#include "arch/program.hh"
#include "common/rng.hh"
#include "workload/profile.hh"

namespace wg {

/**
 * Expands a BenchmarkProfile into per-warp instruction traces.
 *
 * The generator is deterministic: the same (profile, seed, warp count)
 * always yields the same programs, which keeps every experiment
 * reproducible. Register dataflow is synthesised over a 16-register
 * window with configurable producer-consumer density so the scoreboard
 * and the two-level pending/active machinery see realistic hazards.
 */
class ProgramGenerator
{
  public:
    /** @param seed experiment-level seed (per-SM seeds are forked). */
    explicit ProgramGenerator(std::uint64_t seed = 1);

    /** Generate one warp's program from @p profile. */
    Program generate(const BenchmarkProfile& profile, std::uint64_t salt);

    /**
     * Generate programs for all resident warps of one SM. The warps of
     * one CTA get copies of one Program, so they share its storage.
     * @param sm_salt distinguishes SMs so they do not run in lock-step.
     */
    std::vector<Program> generateSm(const BenchmarkProfile& profile,
                                    std::uint64_t sm_salt);

  private:
    Rng root_;
};

} // namespace wg

