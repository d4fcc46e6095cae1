#include "twolevel.hh"

namespace wg {

void
TwoLevelScheduler::beginCycle(Cycle now, const SchedView& view)
{
    (void)now;
    (void)view;
}

void
TwoLevelScheduler::notifyIssue(WarpId warp, UnitClass uc)
{
    (void)warp;
    last_issued_ = uc;
}

UnitClass
TwoLevelScheduler::highestPriority() const
{
    // The baseline has no type priority; report the last issued class.
    return last_issued_;
}

} // namespace wg
