#include "scheduler.hh"

#include "common/logging.hh"

namespace wg {

void
Scheduler::order(const SchedView& view, std::vector<WarpId>& out,
                 const std::vector<WarpId>& lri) const
{
    out.clear();
    const WarpMask ready = view.readyAny();
    if ((ready & ~view.activeMask) != 0)
        panic("Scheduler::order: ready mask not a subset of active");

    // LRI position stands in for the SM's stamps: both increase along
    // the least-recently-issued order.
    std::array<std::uint64_t, kMaxWarpsPerSm> stamp = {};
    for (std::size_t i = 0; i < lri.size(); ++i)
        stamp[lri[i]] = i;
    const IssuePriority prio = priority();
    for (WarpMask left = ready; left != 0;) {
        const WarpId w =
            lowestKey(prio, view.readyMask, left, stamp.data());
        out.push_back(w);
        left &= ~warpBit(w);
    }
}

} // namespace wg
