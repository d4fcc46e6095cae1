/**
 * @file
 * Unit tests for the pipelined execution-unit model, including a
 * differential test against a min-heap reference model.
 */

#include <algorithm>
#include <memory>
#include <ostream>
#include <queue>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "exec/unit.hh"

namespace wg {
namespace {

/** Append every completion @p u has due at @p now to @p out. */
void
drainInto(ExecUnit& u, Cycle now, std::vector<Completion>& out)
{
    u.drainCompletions(now,
                       [&out](const Completion& c) { out.push_back(c); });
}

TEST(ExecUnit, NameCombinesClassAndIndex)
{
    ExecUnit u(UnitClass::Int, 1, {4, 1, 0});
    EXPECT_EQ(u.name(), "INT1");
    EXPECT_EQ(u.unitClass(), UnitClass::Int);
    EXPECT_EQ(u.index(), 1u);
}

TEST(ExecUnit, FreshUnitAcceptsAndIsIdle)
{
    ExecUnit u(UnitClass::Fp, 0, {4, 1, 0});
    EXPECT_TRUE(u.canAccept(0));
    EXPECT_FALSE(u.busy());
    EXPECT_EQ(u.issueCount(), 0u);
}

TEST(ExecUnit, InitiationIntervalEnforced)
{
    ExecUnit u(UnitClass::Sfu, 0, {20, 8, 0});
    u.issue(10, 30, 0, 1, false);
    EXPECT_FALSE(u.canAccept(10));
    EXPECT_FALSE(u.canAccept(17));
    EXPECT_TRUE(u.canAccept(18));
}

TEST(ExecUnit, FullyPipelinedAtIiOne)
{
    ExecUnit u(UnitClass::Int, 0, {4, 1, 0});
    u.issue(0, 4, 0, 1, false);
    EXPECT_TRUE(u.canAccept(1));
    u.issue(1, 5, 1, 2, false);
    EXPECT_EQ(u.issueCount(), 2u);
}

TEST(ExecUnit, BusyWhileOccupied)
{
    ExecUnit u(UnitClass::Int, 0, {4, 1, 0});
    u.issue(0, 4, 0, 1, false);
    for (Cycle t = 0; t < 4; ++t) {
        u.tick(t);
        EXPECT_TRUE(u.busy()) << "cycle " << t;
    }
    u.tick(4);
    EXPECT_FALSE(u.busy());
}

TEST(ExecUnit, OccupancyShorterThanCompletion)
{
    // LD/ST style: the pipeline frees after `occupancy` cycles but the
    // result arrives much later.
    ExecUnit u(UnitClass::Ldst, 0, {4, 1, 4});
    u.issue(0, 300, 0, 1, true);
    u.tick(4);
    EXPECT_FALSE(u.busy()) << "AGU done, miss outstanding";
    std::vector<Completion> out;
    drainInto(u, 4, out);
    EXPECT_TRUE(out.empty());
    drainInto(u, 300, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].done, 300u);
    EXPECT_TRUE(out[0].longLatency);
}

TEST(ExecUnit, CompletionsDrainInOrder)
{
    ExecUnit u(UnitClass::Ldst, 0, {4, 1, 4});
    u.issue(0, 50, 0, 1, false);
    u.issue(1, 20, 1, 2, false);
    u.issue(2, 80, 2, 3, false);
    std::vector<Completion> out;
    drainInto(u, 100, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].done, 20u);
    EXPECT_EQ(out[1].done, 50u);
    EXPECT_EQ(out[2].done, 80u);
}

TEST(ExecUnit, DrainRespectsNow)
{
    ExecUnit u(UnitClass::Int, 0, {4, 1, 0});
    u.issue(0, 4, 0, 1, false);
    u.issue(1, 5, 1, 2, false);
    std::vector<Completion> out;
    drainInto(u, 4, out);
    EXPECT_EQ(out.size(), 1u);
    drainInto(u, 5, out);
    EXPECT_EQ(out.size(), 2u);
}

TEST(ExecUnit, CompletionCarriesWarpAndDest)
{
    ExecUnit u(UnitClass::Fp, 1, {4, 1, 0});
    u.issue(3, 7, 42, 9, false);
    std::vector<Completion> out;
    drainInto(u, 7, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].warp, 42u);
    EXPECT_EQ(out[0].dest, 9);
    EXPECT_FALSE(out[0].longLatency);
}

TEST(ExecUnit, OccupancyDefaultsToLatency)
{
    ExecUnit u(UnitClass::Int, 0, {6, 1, 0});
    u.issue(0, 6, 0, 1, false);
    u.tick(5);
    EXPECT_TRUE(u.busy());
    u.tick(6);
    EXPECT_FALSE(u.busy());
}

TEST(ExecUnitDeath, IssueWhilePortBusyPanics)
{
    ExecUnit u(UnitClass::Sfu, 0, {20, 8, 0});
    u.issue(0, 20, 0, 1, false);
    EXPECT_DEATH(u.issue(1, 21, 1, 2, false), "port busy");
}

TEST(ExecUnitDeath, ZeroLatencyIsFatal)
{
    EXPECT_EXIT(ExecUnit(UnitClass::Int, 0, ExecUnitConfig{0, 1, 0}),
                ::testing::ExitedWithCode(1), "zero latency");
}

TEST(ExecUnitDeath, ZeroIiIsFatal)
{
    EXPECT_EXIT(ExecUnit(UnitClass::Int, 0, ExecUnitConfig{4, 0, 0}),
                ::testing::ExitedWithCode(1), "zero initiation");
}

/** Property: at initiation interval N, issue slots are exactly N apart. */
class ExecUnitIi : public ::testing::TestWithParam<Cycle>
{
};

TEST_P(ExecUnitIi, SpacingMatchesInterval)
{
    const Cycle ii = GetParam();
    ExecUnit u(UnitClass::Sfu, 0, {30, ii, 0});
    Cycle now = 0;
    for (int k = 0; k < 5; ++k) {
        // Find the next acceptable cycle by scanning.
        while (!u.canAccept(now))
            ++now;
        if (k > 0) {
            EXPECT_EQ(now % ii, 0u);
        }
        u.tick(now);
        std::vector<Completion> out;
        drainInto(u, now, out);
        u.issue(now, now + 30, 0, kNoReg, false);
    }
}

INSTANTIATE_TEST_SUITE_P(Intervals, ExecUnitIi,
                         ::testing::Values(1, 2, 4, 8));

/**
 * Reference model: the unit with both event lists in min-heaps, which
 * accept any issue order. The FIFO unit must match it on every call
 * sequence a caller can make.
 */
class HeapUnit
{
  public:
    explicit HeapUnit(const ExecUnitConfig& c) : config_(c)
    {
        if (config_.occupancy == 0)
            config_.occupancy = config_.latency;
    }

    bool
    canAccept(Cycle now) const
    {
        return last_issue_ == kNeverCycle ||
               now >= last_issue_ + config_.initiationInterval;
    }

    void
    issue(Cycle now, Cycle complete, WarpId warp, RegId dest, bool ll)
    {
        last_issue_ = now;
        ++issues_;
        occupancy_.push(now + config_.occupancy);
        completions_.push(Completion{complete, warp, dest, ll});
    }

    void
    tick(Cycle now)
    {
        while (!occupancy_.empty() && occupancy_.top() <= now)
            occupancy_.pop();
    }

    void
    drain(Cycle now, std::vector<Completion>& out)
    {
        while (!completions_.empty() && completions_.top().done <= now) {
            out.push_back(completions_.top());
            completions_.pop();
        }
    }

    bool busy() const { return !occupancy_.empty(); }

    Cycle
    nextCompletionCycle() const
    {
        return completions_.empty() ? kNeverCycle
                                    : completions_.top().done;
    }

    Cycle
    nextEventCycle() const
    {
        const Cycle e =
            occupancy_.empty() ? kNeverCycle : occupancy_.top();
        return std::min(e, nextCompletionCycle());
    }

    Cycle
    busyUntil() const
    {
        return occupancy_.empty() ? 0 : last_issue_ + config_.occupancy;
    }

    Cycle
    portFreeCycle() const
    {
        return last_issue_ == kNeverCycle
                   ? 0
                   : last_issue_ + config_.initiationInterval;
    }

    std::uint64_t issueCount() const { return issues_; }

    ExecUnitState
    saveState() const
    {
        ExecUnitState s;
        s.lastIssue = last_issue_;
        s.issues = issues_;
        for (auto occ = occupancy_; !occ.empty(); occ.pop())
            s.occupancy.push_back(occ.top());
        for (auto comp = completions_; !comp.empty(); comp.pop())
            s.completions.push_back(comp.top());
        std::sort(s.completions.begin(), s.completions.end(),
                  [](const Completion& a, const Completion& b) {
                      return std::tie(a.done, a.warp, a.dest,
                                      a.longLatency) <
                             std::tie(b.done, b.warp, b.dest,
                                      b.longLatency);
                  });
        return s;
    }

    void
    restoreState(const ExecUnitState& s)
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

  private:
    struct Later
    {
        bool
        operator()(const Completion& a, const Completion& b) const
        {
            return a.done > b.done;
        }
    };

    ExecUnitConfig config_;
    Cycle last_issue_ = kNeverCycle;
    std::uint64_t issues_ = 0;
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        occupancy_;
    std::priority_queue<Completion, std::vector<Completion>, Later>
        completions_;
};

bool
sameCompletion(const Completion& a, const Completion& b)
{
    return a.done == b.done && a.warp == b.warp && a.dest == b.dest &&
           a.longLatency == b.longLatency;
}

void
expectSameCompletions(const std::vector<Completion>& a,
                      const std::vector<Completion>& b,
                      const std::string& where)
{
    ASSERT_EQ(a.size(), b.size()) << where;
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameCompletion(a[i], b[i]))
            << where << ": entry " << i << " done " << a[i].done
            << " vs " << b[i].done << ", warp " << a[i].warp << " vs "
            << b[i].warp;
}

struct DiffCase
{
    const char* name;
    UnitClass cls;
    ExecUnitConfig config;
};

void
PrintTo(const DiffCase& c, std::ostream* os)
{
    *os << c.name;
}

/** Every probe the SM or the fast-forward reads, on both models. */
void
expectSameProbes(const ExecUnit& u, const HeapUnit& ref, Cycle now,
                 const std::string& where)
{
    EXPECT_EQ(u.canAccept(now), ref.canAccept(now)) << where;
    EXPECT_EQ(u.busy(), ref.busy()) << where;
    EXPECT_EQ(u.nextEventCycle(), ref.nextEventCycle()) << where;
    EXPECT_EQ(u.nextCompletionCycle(), ref.nextCompletionCycle())
        << where;
    EXPECT_EQ(u.busyUntil(), ref.busyUntil()) << where;
    EXPECT_EQ(u.portFreeCycle(), ref.portFreeCycle()) << where;
    EXPECT_EQ(u.issueCount(), ref.issueCount()) << where;
}

/**
 * Drive the unit and the reference with one seeded random sequence of
 * time steps (single cycles and fast-forward-sized jumps), ticks,
 * drains, issues and mid-flight saveState -> restoreState round trips,
 * comparing everything observable after every step. Every issue
 * follows the SM's protocol: tick and drain at the issue cycle first.
 * @return the number of round trips taken
 */
unsigned
runDifferential(const DiffCase& dc, std::uint64_t seed, unsigned steps)
{
    Rng rng(seed);
    auto unit = std::make_unique<ExecUnit>(dc.cls, 0, dc.config);
    HeapUnit ref(dc.config);
    const Cycle latency = unit->latency();
    Cycle now = 0;
    unsigned trips = 0;
    WarpId next_warp = 0;

    auto drainBoth = [&](const std::string& where) {
        std::vector<Completion> got, want;
        drainInto(*unit, now, got);
        ref.drain(now, want);
        expectSameCompletions(got, want, where);
    };

    for (unsigned step = 0; step < steps; ++step) {
        const std::string where = std::string(dc.name) + " seed " +
                                  std::to_string(seed) + " step " +
                                  std::to_string(step) + " cycle " +
                                  std::to_string(now);
        const std::uint32_t op = rng.nextRange(100);
        if (op < 25) {
            now += 1 + rng.nextRange(rng.nextBool(0.1) ? 64 : 3);
        } else if (op < 40) {
            unit->tick(now);
            ref.tick(now);
        } else if (op < 55) {
            drainBoth(where);
        } else if (op < 95) {
            unit->tick(now);
            ref.tick(now);
            drainBoth(where);
            if (unit->canAccept(now)) {
                Cycle done = now + latency;
                if (dc.cls == UnitClass::Ldst) {
                    // Store, hit or miss batch: equal done cycles are
                    // common, so the heap's tie order is exercised.
                    const std::uint32_t kind = rng.nextRange(3);
                    done = kind == 0   ? now + 8
                           : kind == 1 ? now + 12
                                       : (now / 96 + 1) * 96 + 300 +
                                             rng.nextRange(4) * 100;
                }
                const WarpId warp = next_warp++ % 48;
                const RegId dest = rng.nextBool(0.2)
                                       ? kNoReg
                                       : static_cast<RegId>(
                                             rng.nextRange(16));
                const bool ll = dc.cls == UnitClass::Ldst && done > now + 12;
                unit->issue(now, done, warp, dest, ll);
                ref.issue(now, done, warp, dest, ll);
            }
        } else {
            const ExecUnitState saved = unit->saveState();
            const ExecUnitState want = ref.saveState();
            EXPECT_EQ(saved.lastIssue, want.lastIssue) << where;
            EXPECT_EQ(saved.issues, want.issues) << where;
            EXPECT_EQ(saved.occupancy, want.occupancy) << where;
            expectSameCompletions(saved.completions, want.completions,
                                  where + " saveState");
            EXPECT_EQ(unit->checkState(saved), nullptr) << where;
            unit = std::make_unique<ExecUnit>(dc.cls, 0, dc.config);
            unit->restoreState(saved);
            ref = HeapUnit(dc.config);
            ref.restoreState(want);
            ++trips;
        }
        expectSameProbes(*unit, ref, now, where);
        if (::testing::Test::HasFailure())
            return trips;
    }
    return trips;
}

class ExecUnitDifferential : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(ExecUnitDifferential, MatchesHeapReference)
{
    unsigned trips = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        trips += runDifferential(GetParam(), seed, 3000);
    EXPECT_GT(trips, 1000u) << "round trips must run mid-flight";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ExecUnitDifferential,
    ::testing::Values(DiffCase{"alu", UnitClass::Int, {4, 1, 0}},
                      DiffCase{"sfu", UnitClass::Sfu, {20, 8, 0}},
                      DiffCase{"ldst", UnitClass::Ldst, {4, 1, 4}}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
        return std::string(info.param.name);
    });

TEST(ExecUnit, InFlightBoundsFollowLatencyOccupancyAndIi)
{
    EXPECT_EQ(ExecUnit(UnitClass::Int, 0, {4, 1, 0}).maxOccupancy(), 4u);
    EXPECT_EQ(ExecUnit(UnitClass::Int, 0, {4, 1, 0}).maxCompletions(),
              4u);
    EXPECT_EQ(ExecUnit(UnitClass::Sfu, 0, {20, 8, 0}).maxOccupancy(), 3u);
    EXPECT_EQ(ExecUnit(UnitClass::Sfu, 0, {20, 8, 0}).maxCompletions(),
              3u);
    EXPECT_EQ(ExecUnit(UnitClass::Ldst, 0, {4, 1, 4}).maxOccupancy(), 4u);
    EXPECT_EQ(ExecUnit(UnitClass::Ldst, 0, {4, 1, 4}).maxCompletions(),
              0u);
}

TEST(ExecUnit, BoundIsReachedUnderTheProtocol)
{
    // Issue every II cycles, ticking and draining first: the lists
    // fill to exactly the bound and no further.
    ExecUnit u(UnitClass::Sfu, 0, {20, 8, 0});
    std::size_t most = 0;
    for (Cycle now = 0; now < 200; now += 8) {
        u.tick(now);
        std::vector<Completion> out;
        drainInto(u, now, out);
        u.issue(now, now + 20, 0, 1, false);
        const ExecUnitState s = u.saveState();
        EXPECT_LE(s.occupancy.size(), u.maxOccupancy());
        EXPECT_LE(s.completions.size(), u.maxCompletions());
        most = std::max(most, s.completions.size());
    }
    EXPECT_EQ(most, u.maxCompletions());
}

TEST(ExecUnit, CheckStateRefusesWhatNoRunProduces)
{
    ExecUnit alu(UnitClass::Int, 0, {4, 1, 0});
    ExecUnitState ok;
    ok.lastIssue = 9;
    ok.occupancy = {11, 12, 13};
    ok.completions = {{11, 0, 1, false}, {12, 1, 2, false}};
    EXPECT_EQ(alu.checkState(ok), nullptr);

    ExecUnitState s = ok;
    s.occupancy = {12, 11, 13};
    EXPECT_STREQ(alu.checkState(s), "occupancy ends not ascending");
    s.occupancy = {11, 11};
    EXPECT_STREQ(alu.checkState(s), "occupancy ends not ascending");
    s = ok;
    s.occupancy = {10, 11, 12, 13, 14};
    EXPECT_STREQ(alu.checkState(s),
                 "more occupancy slots than the unit holds in flight");
    s = ok;
    std::swap(s.completions[0], s.completions[1]);
    EXPECT_STREQ(alu.checkState(s), "completions not ascending");
    s = ok;
    for (Cycle d = 13; d <= 15; ++d)
        s.completions.push_back({d, 2, 3, false});
    EXPECT_STREQ(alu.checkState(s),
                 "more completions than the unit holds in flight");

    // LD/ST completions live in a heap: any order, any count.
    ExecUnit ldst(UnitClass::Ldst, 0, {4, 1, 4});
    s = ok;
    std::swap(s.completions[0], s.completions[1]);
    for (Cycle d = 400; d > 390; --d)
        s.completions.push_back({d, 2, 3, true});
    EXPECT_EQ(ldst.checkState(s), nullptr);
}

TEST(ExecUnitDeath, RestoringARefusedStatePanics)
{
    ExecUnit alu(UnitClass::Int, 0, {4, 1, 0});
    ExecUnitState s;
    s.occupancy = {12, 11};
    EXPECT_DEATH(alu.restoreState(s), "occupancy ends not ascending");
}

TEST(ExecUnitDeath, IssueBeyondTheInFlightBoundPanics)
{
    // Without tick(), the ended slots of issues at 0, 8 and 16 are
    // still held when 24 issues: one more than ceil(20 / 8).
    ExecUnit u(UnitClass::Sfu, 0, {20, 8, 0});
    for (Cycle now = 0; now < 24; now += 8)
        u.issue(now, now + 20, 0, 1, false);
    EXPECT_DEATH(u.issue(24, 44, 0, 1, false), "3 events in flight");
}

TEST(ExecUnitDeath, FixedLatencyCompletionMustBeIssuePlusLatency)
{
    ExecUnit u(UnitClass::Fp, 0, {4, 1, 0});
    EXPECT_DEATH(u.issue(0, 9, 0, 1, false), "fixed latency");
}

} // namespace
} // namespace wg
