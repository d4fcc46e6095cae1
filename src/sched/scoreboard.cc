#include "scoreboard.hh"

namespace wg {

Scoreboard::Scoreboard(std::size_t num_warps)
    : pending_(num_warps, 0), pendingLong_(num_warps, 0)
{
}

bool
Scoreboard::clean(WarpId warp) const
{
    return pending_[warp] == 0;
}

void
Scoreboard::reset()
{
    for (auto& m : pending_)
        m = 0;
    for (auto& m : pendingLong_)
        m = 0;
}

} // namespace wg
