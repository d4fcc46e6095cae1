#include "unit.hh"

#include <algorithm>

#include "common/logging.hh"

namespace wg {

ExecUnit::ExecUnit(UnitClass cls, unsigned index,
                   const ExecUnitConfig& config)
    : class_(cls), index_(index), config_(config)
{
    if (config_.latency == 0)
        fatal("ExecUnitConfig: zero latency");
    if (config_.initiationInterval == 0)
        fatal("ExecUnitConfig: zero initiation interval");
    if (config_.occupancy == 0)
        config_.occupancy = config_.latency;
    name_ = std::string(unitClassName(cls)) + std::to_string(index);
}

void
ExecUnit::issue(Cycle now, Cycle complete, WarpId warp, RegId dest,
                bool long_latency)
{
    if (!canAccept(now))
        panic(name_, ": issue() while port busy at cycle ", now);
    last_issue_ = now;
    ++issues_;
    occupancy_.push(now + config_.occupancy);
    completions_.push(Completion{complete, warp, dest, long_latency});
}

ExecUnitState
ExecUnit::saveState() const
{
    ExecUnitState s;
    s.lastIssue = last_issue_;
    s.issues = issues_;
    auto occ = occupancy_;
    while (!occ.empty()) {
        s.occupancy.push_back(occ.top());
        occ.pop();
    }
    auto comp = completions_;
    while (!comp.empty()) {
        s.completions.push_back(comp.top());
        comp.pop();
    }
    // The heaps pop in done order but ties pop in layout-history order;
    // impose the full canonical order so equal states give equal bytes.
    std::sort(s.completions.begin(), s.completions.end(),
              [](const Completion& a, const Completion& b) {
                  if (a.done != b.done)
                      return a.done < b.done;
                  if (a.warp != b.warp)
                      return a.warp < b.warp;
                  if (a.dest != b.dest)
                      return a.dest < b.dest;
                  return a.longLatency < b.longLatency;
              });
    return s;
}

void
ExecUnit::restoreState(const ExecUnitState& s)
{
    last_issue_ = s.lastIssue;
    issues_ = s.issues;
    occupancy_ = {};
    for (Cycle c : s.occupancy)
        occupancy_.push(c);
    completions_ = {};
    for (const Completion& c : s.completions)
        completions_.push(c);
}

} // namespace wg
