#include "gto.hh"

namespace wg {

void
GtoScheduler::beginCycle(Cycle now, const SchedView& view)
{
    (void)view;
    now_ = now;
}

void
GtoScheduler::notifyIssue(WarpId warp, UnitClass uc)
{
    if (trace_ && warp != greedy_warp_)
        trace_->record(now_, trace::EventKind::GreedySwitch,
                       static_cast<std::uint8_t>(uc), trace::kNoCluster, 0,
                       static_cast<std::uint32_t>(warp));
    greedy_warp_ = warp;
    last_class_ = uc;
}

} // namespace wg
