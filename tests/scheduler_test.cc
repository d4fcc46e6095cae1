/**
 * @file
 * Unit tests for the two-level baseline and GATES schedulers.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sched/gates.hh"
#include "sched/gto.hh"
#include "sched/twolevel.hh"

namespace wg {
namespace {

/**
 * Builds a SchedView from explicit (warp, head class) pairs listed in
 * least-recently-issued order; `lri` keeps that order for
 * Scheduler::order().
 */
struct ViewBuilder
{
    std::vector<WarpId> lri;
    std::array<UnitClass, kMaxWarpsPerSm> head_class = {};
    SchedView view;

    ViewBuilder&
    add(WarpId w, UnitClass uc, bool ready = true)
    {
        lri.push_back(w);
        head_class[w] = uc;
        view.activeMask |= warpBit(w);
        view.actv[static_cast<std::size_t>(uc)] += 1;
        if (ready) {
            view.readyMask[static_cast<std::size_t>(uc)] |= warpBit(w);
        }
        return *this;
    }

    const SchedView&
    get() const
    {
        return view;
    }
};

TEST(TwoLevel, OrderIsLriOrder)
{
    TwoLevelScheduler sched;
    ViewBuilder b;
    b.add(3, UnitClass::Int)
        .add(0, UnitClass::Int)
        .add(4, UnitClass::Fp)
        .add(1, UnitClass::Ldst)
        .add(2, UnitClass::Sfu);
    std::vector<WarpId> out;
    sched.beginCycle(0, b.get());
    sched.order(b.get(), out, b.lri);
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out, (std::vector<WarpId>{3, 0, 4, 1, 2}))
        << "type-agnostic LRR order";
}

TEST(TwoLevel, NonReadyWarpsAreNotCandidates)
{
    TwoLevelScheduler sched;
    ViewBuilder b;
    b.add(3, UnitClass::Int)
        .add(0, UnitClass::Int, /*ready=*/false)
        .add(4, UnitClass::Fp);
    std::vector<WarpId> out;
    sched.order(b.get(), out, b.lri);
    EXPECT_EQ(out, (std::vector<WarpId>{3, 4}));
}

TEST(TwoLevel, NoPrioritySwitches)
{
    TwoLevelScheduler sched;
    EXPECT_EQ(sched.prioritySwitches(), 0u);
}

SchedView
viewWith(std::uint32_t int_actv, std::uint32_t fp_actv)
{
    SchedView v;
    v.actv[static_cast<std::size_t>(UnitClass::Int)] = int_actv;
    v.actv[static_cast<std::size_t>(UnitClass::Fp)] = fp_actv;
    return v;
}

TEST(Gates, StartsWithIntPriority)
{
    GatesScheduler sched;
    EXPECT_EQ(sched.highestPriority(), UnitClass::Int);
}

TEST(Gates, OrderGroupsByClassPriority)
{
    GatesScheduler sched;
    sched.beginCycle(0, viewWith(2, 2));
    ViewBuilder b;
    b.add(0, UnitClass::Fp)
        .add(1, UnitClass::Int)
        .add(2, UnitClass::Ldst)
        .add(3, UnitClass::Sfu)
        .add(4, UnitClass::Int)
        .add(5, UnitClass::Fp);
    std::vector<WarpId> out;
    sched.order(b.get(), out, b.lri);
    // INT first (warps 1, 4 in LRI order), then LDST (2), SFU (3),
    // then FP (0, 5).
    EXPECT_EQ(out, (std::vector<WarpId>{1, 4, 2, 3, 0, 5}));
}

TEST(Gates, OrderSkipsNonReadyWithinEveryClass)
{
    GatesScheduler sched;
    sched.beginCycle(0, viewWith(2, 2));
    ViewBuilder b;
    b.add(0, UnitClass::Fp)
        .add(1, UnitClass::Int, /*ready=*/false)
        .add(2, UnitClass::Ldst)
        .add(3, UnitClass::Sfu, /*ready=*/false)
        .add(4, UnitClass::Int)
        .add(5, UnitClass::Fp, /*ready=*/false);
    std::vector<WarpId> out;
    sched.order(b.get(), out, b.lri);
    EXPECT_EQ(out, (std::vector<WarpId>{4, 2, 0}));
}

TEST(Gates, OrderSingleReadyWarpFastPath)
{
    GatesScheduler sched;
    sched.beginCycle(0, viewWith(1, 1));
    ViewBuilder b;
    b.add(7, UnitClass::Int, /*ready=*/false).add(9, UnitClass::Fp);
    std::vector<WarpId> out;
    sched.order(b.get(), out, b.lri);
    EXPECT_EQ(out, (std::vector<WarpId>{9}));
}

TEST(Gates, SwitchesWhenHighTypeDrains)
{
    GatesScheduler sched;
    sched.beginCycle(0, viewWith(3, 3));
    EXPECT_EQ(sched.highestPriority(), UnitClass::Int);
    sched.beginCycle(1, viewWith(0, 3));
    EXPECT_EQ(sched.highestPriority(), UnitClass::Fp);
    EXPECT_EQ(sched.prioritySwitches(), 1u);
}

TEST(Gates, DoesNotSwitchWhenBothEmpty)
{
    GatesScheduler sched;
    sched.beginCycle(0, viewWith(0, 0));
    EXPECT_EQ(sched.highestPriority(), UnitClass::Int);
    EXPECT_EQ(sched.prioritySwitches(), 0u);
}

TEST(Gates, SwitchesBackWhenFpDrains)
{
    GatesScheduler sched;
    sched.beginCycle(0, viewWith(0, 3)); // -> FP
    sched.beginCycle(1, viewWith(3, 0)); // -> INT
    EXPECT_EQ(sched.highestPriority(), UnitClass::Int);
    EXPECT_EQ(sched.prioritySwitches(), 2u);
}

TEST(Gates, SwitchesWhenHighTypeFullyBlackedOut)
{
    GatesScheduler sched;
    SchedView v = viewWith(4, 4);
    v.intBlackout = {true, true};
    sched.beginCycle(0, v);
    EXPECT_EQ(sched.highestPriority(), UnitClass::Fp)
        << "both INT clusters gated: issuing INT is impossible";
}

TEST(Gates, PartialBlackoutDoesNotSwitch)
{
    GatesScheduler sched;
    SchedView v = viewWith(4, 4);
    v.intBlackout = {true, false};
    sched.beginCycle(0, v);
    EXPECT_EQ(sched.highestPriority(), UnitClass::Int);
}

TEST(Gates, BlackoutSwitchCanBeDisabled)
{
    GatesConfig cfg;
    cfg.switchOnBlackout = false;
    GatesScheduler sched(cfg);
    SchedView v = viewWith(4, 4);
    v.intBlackout = {true, true};
    sched.beginCycle(0, v);
    EXPECT_EQ(sched.highestPriority(), UnitClass::Int);
}

TEST(Gates, NoSwitchToEmptyLowType)
{
    GatesScheduler sched;
    SchedView v = viewWith(4, 0);
    v.intBlackout = {true, true};
    sched.beginCycle(0, v);
    EXPECT_EQ(sched.highestPriority(), UnitClass::Int)
        << "switching to a type with no active warps is pointless";
}

TEST(Gates, MaxPriorityHoldForcesSwitch)
{
    GatesConfig cfg;
    cfg.maxPriorityHold = 10;
    GatesScheduler sched(cfg);
    for (Cycle t = 0; t < 10; ++t) {
        sched.beginCycle(t, viewWith(4, 4));
        EXPECT_EQ(sched.highestPriority(), UnitClass::Int) << t;
    }
    sched.beginCycle(10, viewWith(4, 4));
    EXPECT_EQ(sched.highestPriority(), UnitClass::Fp);
}

TEST(Gates, LdstOutranksSfu)
{
    GatesScheduler sched;
    sched.beginCycle(0, viewWith(1, 1));
    ViewBuilder b;
    b.add(0, UnitClass::Sfu).add(1, UnitClass::Ldst);
    std::vector<WarpId> out;
    sched.order(b.get(), out, b.lri);
    EXPECT_EQ(out, (std::vector<WarpId>{1, 0}));
}

TEST(Gates, FpPriorityReversesIntAndFp)
{
    GatesScheduler sched;
    sched.beginCycle(0, viewWith(0, 2)); // switch to FP priority
    ViewBuilder b;
    b.add(0, UnitClass::Int).add(1, UnitClass::Fp);
    std::vector<WarpId> out;
    sched.order(b.get(), out, b.lri);
    EXPECT_EQ(out[0], 1u) << "FP is now highest priority";
    EXPECT_EQ(out[1], 0u) << "INT is now lowest priority";
}

/**
 * beginCycle and nextEventCycle share one set of switch predicates;
 * this property test pins the contract that keeps them from drifting:
 * for a constant view, nextEventCycle(now) == now exactly when
 * beginCycle(now) would switch — except the blackout flip-flop regime
 * (both types fully gated, active warps on each side), where the swap
 * re-fires every cycle, fastForward replays it exactly, and
 * nextEventCycle deliberately reports no horizon event.
 */
TEST(Gates, SwitchPredicateConsistencyRandomized)
{
    Rng rng(0x5eedf00d);
    for (int iter = 0; iter < 5000; ++iter) {
        GatesConfig cfg;
        cfg.maxPriorityHold =
            rng.nextBool(0.5) ? 1 + rng.nextRange(8) : 0;
        cfg.switchOnBlackout = rng.nextBool(0.7);
        GatesScheduler sched(cfg);

        // Randomize internal state: maybe flip priority to FP, and
        // open a random gap since the last switch.
        Cycle now = 0;
        if (rng.nextBool(0.5)) {
            sched.beginCycle(now, viewWith(0, 3));
            ASSERT_EQ(sched.highestPriority(), UnitClass::Fp);
        }
        now += rng.nextRange(12);

        SchedView v = viewWith(rng.nextRange(4), rng.nextRange(4));
        v.intBlackout = {rng.nextBool(0.4), rng.nextBool(0.4)};
        v.fpBlackout = {rng.nextBool(0.4), rng.nextBool(0.4)};

        const bool would_switch = sched.drainSwitchFires(v) ||
                                  sched.blackoutSwitchFires(v) ||
                                  sched.fairnessSwitchFires(now, v);
        const Cycle next = sched.nextEventCycle(now, v);

        if (sched.blackoutFlipFlop(v)) {
            EXPECT_EQ(next, kNeverCycle) << "iter " << iter;
        } else {
            EXPECT_EQ(next == now, would_switch) << "iter " << iter;
        }

        // The predicates must agree with what beginCycle actually does.
        const std::uint64_t before = sched.prioritySwitches();
        sched.beginCycle(now, v);
        EXPECT_EQ(sched.prioritySwitches() == before + 1, would_switch)
            << "iter " << iter;
    }
}

/**
 * Cross-check the mask-based order() against a straightforward AoS
 * reference of the pre-bitmask selection: walk the LRI vector once per
 * priority class, picking ready warps of that class. The mask rotation
 * must reproduce that order exactly on random views.
 */
TEST(Gates, OrderMatchesAosReferenceRandomized)
{
    Rng rng(0xbadc0de5);
    for (int iter = 0; iter < 2000; ++iter) {
        GatesScheduler sched;
        if (rng.nextBool(0.5)) {
            sched.beginCycle(0, viewWith(0, 3)); // flip priority to FP
        }

        // Random active set in random LRI order with random classes.
        ViewBuilder b;
        std::vector<WarpId> ids;
        for (WarpId w = 0; w < kMaxWarpsPerSm; ++w)
            if (rng.nextBool(0.25))
                ids.push_back(w);
        for (std::size_t i = ids.size(); i > 1; --i)
            std::swap(ids[i - 1], ids[rng.nextRange(i)]);
        for (WarpId w : ids) {
            b.add(w, static_cast<UnitClass>(rng.nextRange(4)),
                  /*ready=*/rng.nextBool(0.6));
        }
        const SchedView& v = b.get();

        // AoS reference: one LRI pass per class, priority order.
        const UnitClass hi = sched.highestPriority();
        const UnitClass lo =
            hi == UnitClass::Int ? UnitClass::Fp : UnitClass::Int;
        const UnitClass prio[] = {hi, UnitClass::Ldst, UnitClass::Sfu,
                                  lo};
        std::vector<WarpId> expect;
        for (UnitClass uc : prio) {
            for (WarpId w : b.lri) {
                if (b.head_class[w] == uc &&
                    hasWarp(v.readyMask[static_cast<std::size_t>(uc)],
                            w)) {
                    expect.push_back(w);
                }
            }
        }

        std::vector<WarpId> out;
        sched.order(v, out, b.lri);
        ASSERT_EQ(out, expect) << "iter " << iter;
    }
}

/**
 * The SM resolves issue slots with lowestKey() (the next warp that
 * issues) and keyedBefore() (the failed probes ahead of it); order()
 * is repeated lowestKey(). For every policy and every ready warp w,
 * keyedBefore must be exactly the warps order() puts before w.
 */
TEST(IssueKey, KeyedBeforeMatchesOrderRandomized)
{
    Rng rng(0x0dd5eed5);
    for (int iter = 0; iter < 1500; ++iter) {
        ViewBuilder b;
        std::vector<WarpId> ids;
        for (WarpId w = 0; w < kMaxWarpsPerSm; ++w)
            if (rng.nextBool(0.3))
                ids.push_back(w);
        for (std::size_t i = ids.size(); i > 1; --i)
            std::swap(ids[i - 1], ids[rng.nextRange(i)]);
        for (WarpId w : ids)
            b.add(w, static_cast<UnitClass>(rng.nextRange(4)),
                  /*ready=*/rng.nextBool(0.7));
        const SchedView& v = b.get();

        GatesScheduler gates;
        if (rng.nextBool(0.5))
            gates.beginCycle(0, viewWith(0, 3)); // FP priority
        GtoScheduler gto;
        if (!ids.empty() && rng.nextBool(0.7))
            gto.notifyIssue(ids[rng.nextRange(ids.size())], UnitClass::Int);
        TwoLevelScheduler two_level;
        const Scheduler* policies[] = {&gates, &gto, &two_level};
        const Scheduler& sched = *policies[iter % 3];

        std::array<std::uint64_t, kMaxWarpsPerSm> stamp = {};
        for (std::size_t i = 0; i < b.lri.size(); ++i)
            stamp[b.lri[i]] = 100 + 3 * i; // any increasing stamps
        std::vector<WarpId> out;
        sched.order(v, out, b.lri);
        const IssuePriority prio = sched.priority();
        WarpMask before = 0;
        for (WarpId w : out) {
            ASSERT_EQ(keyedBefore(prio, v.readyMask, v.readyAny(), w,
                                  stamp.data()),
                      before)
                << "iter " << iter << " warp " << w;
            ASSERT_EQ(lowestKey(prio, v.readyMask, v.readyAny() & ~before,
                                stamp.data()),
                      w)
                << "iter " << iter;
            before |= warpBit(w);
        }
    }
}

TEST(GatesDeath, ReadyOutsideActivePanics)
{
    GatesScheduler sched;
    SchedView v;
    // Two ready warps (to dodge the singleton fast path), one of them
    // outside the active set: the subset invariant is violated.
    v.readyMask[static_cast<std::size_t>(UnitClass::Int)] =
        warpBit(1) | warpBit(3);
    v.activeMask = warpBit(1);
    std::vector<WarpId> out;
    EXPECT_DEATH(sched.order(v, out), "not a subset");
}

} // namespace
} // namespace wg
