#include "unit.hh"

#include <algorithm>
#include <functional>

namespace wg {

namespace {

/** Most events in flight when each lives @p span cycles and issues are
 *  at least @p ii apart (both already validated non-zero). */
std::size_t
inFlightBound(Cycle span, Cycle ii)
{
    return static_cast<std::size_t>((span + ii - 1) / ii);
}

ExecUnitConfig
checkedConfig(ExecUnitConfig c)
{
    if (c.latency == 0)
        fatal("ExecUnitConfig: zero latency");
    if (c.initiationInterval == 0)
        fatal("ExecUnitConfig: zero initiation interval");
    if (c.occupancy == 0)
        c.occupancy = c.latency;
    return c;
}

} // namespace

ExecUnit::ExecUnit(UnitClass cls, unsigned index,
                   const ExecUnitConfig& config)
    : class_(cls), index_(index), config_(checkedConfig(config)),
      name_(std::string(unitClassName(cls)) + std::to_string(index)),
      fixed_latency_(cls != UnitClass::Ldst),
      max_occupancy_(
          inFlightBound(config_.occupancy, config_.initiationInterval)),
      max_completions_(fixed_latency_
                           ? inFlightBound(config_.latency,
                                           config_.initiationInterval)
                           : 0),
      occupancy_(max_occupancy_),
      fixed_done_(std::max<std::size_t>(max_completions_, 1))
{
}

ExecUnitState
ExecUnit::saveState() const
{
    ExecUnitState s;
    s.lastIssue = last_issue_;
    s.issues = issues_;
    for (std::size_t i = 0; i < occupancy_.size(); ++i)
        s.occupancy.push_back(occupancy_[i]);
    if (fixed_latency_) {
        // Distinct, ascending done cycles: already the canonical order.
        for (std::size_t i = 0; i < fixed_done_.size(); ++i)
            s.completions.push_back(fixed_done_[i]);
        return s;
    }
    auto heap = memory_done_;
    while (!heap.empty()) {
        s.completions.push_back(heap.top());
        heap.pop();
    }
    // The heap pops in done order but ties pop in layout-history order;
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

const char*
ExecUnit::checkState(const ExecUnitState& s) const
{
    if (s.occupancy.size() > max_occupancy_)
        return "more occupancy slots than the unit holds in flight";
    if (std::adjacent_find(s.occupancy.begin(), s.occupancy.end(),
                           std::greater_equal<Cycle>()) !=
        s.occupancy.end())
        return "occupancy ends not ascending";
    if (!fixed_latency_)
        return nullptr;
    if (s.completions.size() > max_completions_)
        return "more completions than the unit holds in flight";
    if (std::adjacent_find(s.completions.begin(), s.completions.end(),
                           [](const Completion& a, const Completion& b) {
                               return a.done >= b.done;
                           }) != s.completions.end())
        return "completions not ascending";
    return nullptr;
}

void
ExecUnit::restoreState(const ExecUnitState& s)
{
    if (const char* why = checkState(s))
        panic(name_, ": restoreState: ", why);
    last_issue_ = s.lastIssue;
    issues_ = s.issues;
    occupancy_.clear();
    for (Cycle c : s.occupancy)
        occupancy_.push(c);
    fixed_done_.clear();
    memory_done_ = {};
    for (const Completion& c : s.completions) {
        if (fixed_latency_)
            fixed_done_.push(c);
        else
            memory_done_.push(c);
    }
}

} // namespace wg
