/**
 * @file
 * Unit tests for the energy model and its accounting identities.
 */

#include <gtest/gtest.h>

#include "power/energymodel.hh"

namespace wg {
namespace {

PgDomainStats
statsWith(std::uint64_t busy, std::uint64_t idle_on,
          std::uint64_t uncomp, std::uint64_t comp,
          std::uint64_t wakeup_cycles, std::uint64_t events)
{
    PgDomainStats s;
    s.busyCycles = busy;
    s.idleOnCycles = idle_on;
    s.uncompCycles = uncomp;
    s.compCycles = comp;
    s.wakeupCycles = wakeup_cycles;
    s.gatingEvents = events;
    s.wakeups = events;
    return s;
}

TEST(EnergyModel, StaticConservation)
{
    // staticE + staticSaved == totalCycles * P_static.
    EnergyModel model;
    const Cycle total = 1000;
    PgDomainStats s = statsWith(300, 200, 100, 350, 50, 10);
    UnitEnergy e = model.cluster(UnitClass::Int, s, 300, total, 14);
    double p = model.constants().staticPerCycle(UnitClass::Int);
    EXPECT_NEAR(e.staticE + e.staticSaved, total * p, 1e-18);
    EXPECT_NEAR(e.staticNoPg, total * p, 1e-18);
}

TEST(EnergyModel, OverheadIsBetTimesEvents)
{
    EnergyModel model;
    PgDomainStats s = statsWith(0, 0, 0, 1000, 0, 7);
    UnitEnergy e = model.cluster(UnitClass::Fp, s, 0, 1000, 14);
    double p = model.constants().staticPerCycle(UnitClass::Fp);
    EXPECT_NEAR(e.overheadE, 7.0 * 14.0 * p, 1e-18);
}

TEST(EnergyModel, DynamicScalesWithIssues)
{
    EnergyModel model;
    PgDomainStats s = statsWith(100, 0, 0, 0, 0, 0);
    UnitEnergy e1 = model.cluster(UnitClass::Int, s, 100, 100, 14);
    UnitEnergy e2 = model.cluster(UnitClass::Int, s, 200, 100, 14);
    EXPECT_NEAR(e2.dynamicE, 2.0 * e1.dynamicE, 1e-18);
}

TEST(EnergyModel, GatedExactlyBreakEvenIsEnergyNeutral)
{
    // A gating instance held exactly BET cycles recoups exactly its
    // overhead: net savings zero (the paper's break-even definition).
    EnergyModel model;
    PgDomainStats s = statsWith(0, 0, 14, 0, 0, 1);
    UnitEnergy e = model.cluster(UnitClass::Int, s, 0, 14, 14);
    EXPECT_NEAR(e.staticSaved - e.overheadE, 0.0, 1e-18);
    EXPECT_NEAR(e.staticSavingsRatio(), 0.0, 1e-12);
}

TEST(EnergyModel, EarlyWakeupNetsNegative)
{
    // Gated for less than BET: conventional gating loses energy.
    EnergyModel model;
    PgDomainStats s = statsWith(90, 0, 10, 0, 0, 1);
    UnitEnergy e = model.cluster(UnitClass::Int, s, 0, 100, 14);
    EXPECT_LT(e.staticSavingsRatio(), 0.0);
}

TEST(EnergyModel, LongGatingNetsPositive)
{
    EnergyModel model;
    PgDomainStats s = statsWith(0, 0, 14, 486, 0, 1);
    UnitEnergy e = model.cluster(UnitClass::Int, s, 0, 1000, 14);
    EXPECT_NEAR(e.staticSavingsRatio(), (500.0 - 14.0) / 1000.0, 1e-12);
}

TEST(EnergyModel, WakeupCyclesStillLeak)
{
    EnergyModel model;
    PgDomainStats gated = statsWith(0, 0, 0, 100, 0, 0);
    PgDomainStats waking = statsWith(0, 0, 0, 90, 10, 0);
    UnitEnergy a = model.cluster(UnitClass::Int, gated, 0, 100, 14);
    UnitEnergy b = model.cluster(UnitClass::Int, waking, 0, 100, 14);
    EXPECT_GT(b.staticE, a.staticE);
    EXPECT_LT(b.staticSaved, a.staticSaved);
}

TEST(EnergyModel, AlwaysOnLeaksEveryCycle)
{
    EnergyModel model;
    UnitEnergy e = model.alwaysOn(UnitClass::Sfu, 50, 1000);
    double p = model.constants().staticPerCycle(UnitClass::Sfu);
    EXPECT_NEAR(e.staticE, 1000.0 * p, 1e-18);
    EXPECT_NEAR(e.staticNoPg, e.staticE, 1e-18);
    EXPECT_DOUBLE_EQ(e.staticSavingsRatio(), 0.0);
    EXPECT_GT(e.dynamicE, 0.0);
}

TEST(EnergyModel, SavingsRatioZeroWhenNoBaseline)
{
    UnitEnergy e;
    EXPECT_DOUBLE_EQ(e.staticSavingsRatio(), 0.0);
    EXPECT_DOUBLE_EQ(e.total(), 0.0);
}

TEST(EnergyModel, UnitEnergyAdd)
{
    UnitEnergy a, b;
    a.dynamicE = 1;
    a.staticE = 2;
    a.overheadE = 3;
    a.staticSaved = 4;
    a.staticNoPg = 5;
    b = a;
    mergeFields(a, b);
    EXPECT_DOUBLE_EQ(a.dynamicE, 2);
    EXPECT_DOUBLE_EQ(a.staticE, 4);
    EXPECT_DOUBLE_EQ(a.overheadE, 6);
    EXPECT_DOUBLE_EQ(a.staticSaved, 8);
    EXPECT_DOUBLE_EQ(a.staticNoPg, 10);
    EXPECT_DOUBLE_EQ(a.total(), 12);
}

TEST(PowerConstants, FpLeaksFarMoreThanInt)
{
    // GPUWattch: FP units 4.40 W vs INT units 0.00557 W chip-wide.
    PowerConstants pc;
    EXPECT_GT(pc.staticPerCycle(UnitClass::Fp),
              100.0 * pc.staticPerCycle(UnitClass::Int));
}

TEST(PowerConstants, ExecShareOfChipLeakage)
{
    // The paper derives 16.38% from these numbers.
    PowerConstants pc;
    double exec = (pc.intClusterStatic + pc.fpClusterStatic) * 2 *
                  pc.numSms;
    EXPECT_NEAR(exec / pc.chipLeakage, 0.1638, 0.002);
}

TEST(PowerConstants, AllClassesHavePositiveCosts)
{
    PowerConstants pc;
    for (UnitClass uc : {UnitClass::Int, UnitClass::Fp, UnitClass::Sfu,
                         UnitClass::Ldst}) {
        EXPECT_GT(pc.staticPerCycle(uc), 0.0);
        EXPECT_GT(pc.dynPerOp(uc), 0.0);
    }
}

} // namespace
} // namespace wg
