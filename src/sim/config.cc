#include "config.hh"

namespace wg {

namespace {

void
checkUnit(const char* name, const ExecUnitConfig& unit,
          std::vector<std::string>& errs)
{
    if (unit.latency == 0)
        errs.push_back(std::string("sm.") + name +
                       ".latency must be >= 1 (results cannot appear "
                       "in the issue cycle)");
    if (unit.initiationInterval == 0)
        errs.push_back(std::string("sm.") + name +
                       ".initiationInterval must be >= 1 (a unit "
                       "cannot accept more than one warp per cycle)");
}

} // namespace

std::vector<std::string>
SmConfig::validate() const
{
    std::vector<std::string> errs;
    if (issueWidth == 0)
        errs.push_back("sm.issueWidth must be >= 1 (an SM that issues "
                       "nothing never retires a warp)");
    if (activeSetCapacity == 0)
        errs.push_back("sm.activeSetCapacity must be >= 1 (the "
                       "two-level scheduler needs at least one active "
                       "slot)");
    if (ibufferDepth == 0)
        errs.push_back("sm.ibufferDepth must be >= 1 (warps cannot "
                       "decode into an empty buffer)");
    if (maxCycles == 0)
        errs.push_back("sm.maxCycles must be >= 1 (the safety stop "
                       "would end the run before cycle 0)");
    checkUnit("alu", alu, errs);
    checkUnit("sfu", sfu, errs);
    checkUnit("ldst", ldst, errs);
    if (mem.missLatencyMin > mem.missLatencyMax)
        errs.push_back("sm.mem.missLatencyMin (" +
                       std::to_string(mem.missLatencyMin) +
                       ") exceeds sm.mem.missLatencyMax (" +
                       std::to_string(mem.missLatencyMax) +
                       "); the latency range is inverted");
    if (mem.mshrLimit == 0)
        errs.push_back("sm.mem.mshrLimit must be >= 1 (no MSHRs means "
                       "no miss ever issues, deadlocking long-latency "
                       "warps)");
    if (mem.serviceBatchPeriod == 0)
        errs.push_back("sm.mem.serviceBatchPeriod must be >= 1 (the "
                       "bandwidth proxy needs a non-zero batch period)");
    if (mem.serviceBatchSize == 0)
        errs.push_back("sm.mem.serviceBatchSize must be >= 1 (a batch "
                       "of 0 misses never drains the MSHR pool)");
    for (std::string& e : pg.validate())
        errs.push_back("sm." + std::move(e));
    return errs;
}

std::vector<std::string>
GpuConfig::validate() const
{
    std::vector<std::string> errs;
    if (numSms == 0)
        errs.push_back("numSms must be >= 1 (a GPU with no SMs "
                       "simulates nothing)");
    if (numSms > kMaxSms)
        errs.push_back("numSms must be <= " + std::to_string(kMaxSms));
    for (std::string& e : sm.validate())
        errs.push_back(std::move(e));
    return errs;
}

} // namespace wg
