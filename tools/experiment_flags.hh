/**
 * @file
 * The experiment knobs every simulating tool takes: SM count, seed and
 * the paper's three gating parameters (idle-detect 5, break-even 14,
 * wakeup 3 cycles by default, §7.1). wgsim, wgctl and wgservd hand this
 * table to ArgParser beside their own and fill ExperimentOptions from
 * it with readExperimentOptions(), so each flag has one row and one
 * reader.
 */

#pragma once

#include "common/args.hh"
#include "core/presets.hh"
#include "sim/config.hh"

namespace wg {

inline constexpr FlagSpec kExperimentFlags[] = {
    {"sms", FlagKind::Count, "6", "number of SMs to simulate",
     GpuConfig::kMaxSms},
    {"seed", FlagKind::Int, "1", "experiment seed"},
    {"idle-detect", FlagKind::Count, "5", "idle-detect window (cycles)"},
    {"bet", FlagKind::Count, "14", "break-even time (cycles)"},
    {"wakeup", FlagKind::Count, "3", "wakeup delay (cycles)"},
};

/** The options kExperimentFlags spell on @p args' command line. */
inline ExperimentOptions
readExperimentOptions(const ArgParser& args)
{
    ExperimentOptions opts;
    opts.numSms = static_cast<unsigned>(args.getCount("sms"));
    opts.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    opts.idleDetect = args.getCount("idle-detect");
    opts.breakEven = args.getCount("bet");
    opts.wakeupDelay = args.getCount("wakeup");
    return opts;
}

} // namespace wg
