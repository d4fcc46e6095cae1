/**
 * @file
 * Unit tests for the memory-system latency/MSHR/bandwidth model.
 */

#include <gtest/gtest.h>

#include "mem/memsys.hh"

namespace wg {
namespace {

MemConfig
smallConfig()
{
    MemConfig c;
    c.hitLatency = 10;
    c.missLatencyMin = 100;
    c.missLatencyMax = 200;
    c.storeLatency = 4;
    c.mshrLimit = 4;
    c.serviceBatchPeriod = 32;
    c.serviceBatchSize = 2;
    return c;
}

TEST(MemSys, HitLatencyIsExact)
{
    MemorySystem mem(smallConfig(), Rng(1));
    EXPECT_EQ(mem.access(100, MemClass::Hit, false), 110u);
    EXPECT_EQ(mem.hits(), 1u);
}

TEST(MemSys, StoreLatencyIsExactRegardlessOfClass)
{
    MemorySystem mem(smallConfig(), Rng(1));
    EXPECT_EQ(mem.access(50, MemClass::Miss, true), 54u);
    EXPECT_EQ(mem.access(50, MemClass::Hit, true), 54u);
    EXPECT_EQ(mem.stores(), 2u);
    EXPECT_EQ(mem.outstanding(), 0u)
        << "stores do not occupy MSHRs in this model";
}

TEST(MemSys, MissLatencyWithinBoundsPlusBatchWait)
{
    MemConfig cfg = smallConfig();
    MemorySystem mem(cfg, Rng(7));
    for (int i = 0; i < 2; ++i) {
        Cycle done = mem.access(0, MemClass::Miss, false);
        // First batch boundary at cycle 0; latency in [100, 200].
        EXPECT_GE(done, cfg.missLatencyMin);
        EXPECT_LE(done, cfg.missLatencyMax);
        mem.tick(done);
    }
}

TEST(MemSys, BatchCapacityPushesLaterMissesOut)
{
    MemConfig cfg = smallConfig(); // 2 misses per 32-cycle batch
    MemorySystem mem(cfg, Rng(7));
    Cycle d1 = mem.access(0, MemClass::Miss, false);
    Cycle d2 = mem.access(0, MemClass::Miss, false);
    Cycle d3 = mem.access(0, MemClass::Miss, false);
    EXPECT_EQ(d1, d2) << "misses in one batch complete together";
    // The third miss lands in the next batch: its service starts one
    // period later (its latency is drawn independently).
    EXPECT_GE(d3, cfg.serviceBatchPeriod + cfg.missLatencyMin);
}

TEST(MemSys, BandwidthBoundOverManyMisses)
{
    MemConfig cfg = smallConfig();
    MemorySystem mem(cfg, Rng(7));
    // 20 misses at cycle 0: 2 per 32-cycle batch -> last batch at
    // >= 9*32 = 288 cycles.
    Cycle last = 0;
    for (int i = 0; i < 20; ++i) {
        Cycle d = mem.access(0, MemClass::Miss, false);
        if (d > last)
            last = d;
        mem.tick(d); // keep MSHRs free for this bandwidth-only check
    }
    EXPECT_GE(last, 9 * 32 + cfg.missLatencyMin);
}

TEST(MemSys, MshrLimitBlocksMisses)
{
    MemorySystem mem(smallConfig(), Rng(3));
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(mem.canAccept(MemClass::Miss));
        mem.access(0, MemClass::Miss, false);
    }
    EXPECT_FALSE(mem.canAccept(MemClass::Miss));
    EXPECT_TRUE(mem.canAccept(MemClass::Hit))
        << "hits are never MSHR-limited";
    EXPECT_EQ(mem.outstanding(), 4u);
}

TEST(MemSys, TickRetiresCompletedMisses)
{
    MemorySystem mem(smallConfig(), Rng(3));
    Cycle done = mem.access(0, MemClass::Miss, false);
    mem.tick(done - 1);
    EXPECT_EQ(mem.outstanding(), 1u);
    mem.tick(done);
    EXPECT_EQ(mem.outstanding(), 0u);
    EXPECT_TRUE(mem.canAccept(MemClass::Miss));
}

TEST(MemSys, RejectCounter)
{
    MemorySystem mem(smallConfig(), Rng(3));
    EXPECT_EQ(mem.mshrRejects(), 0u);
    mem.noteRejects(1);
    mem.noteRejects(1);
    EXPECT_EQ(mem.mshrRejects(), 2u);
}

TEST(MemSys, DeterministicAcrossInstances)
{
    MemorySystem a(smallConfig(), Rng(9));
    MemorySystem b(smallConfig(), Rng(9));
    for (int i = 0; i < 50; ++i) {
        Cycle now = static_cast<Cycle>(i * 40);
        a.tick(now);
        b.tick(now);
        EXPECT_EQ(a.access(now, MemClass::Miss, false),
                  b.access(now, MemClass::Miss, false));
    }
}

TEST(MemSys, CountersTrackClasses)
{
    MemorySystem mem(smallConfig(), Rng(5));
    mem.access(0, MemClass::Hit, false);
    mem.access(0, MemClass::Hit, false);
    mem.access(0, MemClass::Miss, false);
    mem.access(0, MemClass::Hit, true);
    EXPECT_EQ(mem.hits(), 2u);
    EXPECT_EQ(mem.misses(), 1u);
    EXPECT_EQ(mem.stores(), 1u);
}

TEST(MemSys, BatchLargerThanOutstandingMisses)
{
    // serviceBatchSize above the MSHR limit: the batch can never fill,
    // every concurrently-outstanding miss lands in the open batch, and
    // they all complete together.
    MemConfig cfg = smallConfig();
    cfg.serviceBatchSize = 16; // > mshrLimit (4)
    MemorySystem mem(cfg, Rng(11));
    Cycle first = mem.access(0, MemClass::Miss, false);
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(mem.access(0, MemClass::Miss, false), first)
            << "an underfilled batch must absorb every pending miss";
    EXPECT_EQ(mem.outstanding(), 4u);
    EXPECT_FALSE(mem.canAccept(MemClass::Miss));
}

TEST(MemSys, ExactlyFullMshrPoolDrainsAndRefills)
{
    // Fill the pool to exactly mshrLimit, drain one completion, and
    // verify acceptance flips at exactly the boundary both ways.
    MemConfig cfg = smallConfig();
    MemorySystem mem(cfg, Rng(13));
    Cycle last = 0;
    for (unsigned i = 0; i < cfg.mshrLimit; ++i) {
        ASSERT_TRUE(mem.canAccept(MemClass::Miss));
        Cycle d = mem.access(0, MemClass::Miss, false);
        if (d > last)
            last = d;
    }
    ASSERT_EQ(mem.outstanding(), cfg.mshrLimit);
    ASSERT_FALSE(mem.canAccept(MemClass::Miss));

    // The two batches complete at different cycles; retiring the first
    // batch frees exactly those MSHRs.
    mem.tick(last - 1);
    EXPECT_GT(mem.outstanding(), 0u);
    EXPECT_LT(mem.outstanding(), cfg.mshrLimit);
    EXPECT_TRUE(mem.canAccept(MemClass::Miss));

    // Refill to exactly full again from the partially-drained state.
    while (mem.canAccept(MemClass::Miss))
        mem.access(last, MemClass::Miss, false);
    EXPECT_EQ(mem.outstanding(), cfg.mshrLimit);

    mem.tick(kNeverCycle - 1);
    EXPECT_EQ(mem.outstanding(), 0u);
}

TEST(MemSys, StoresBypassFullMshrPool)
{
    // Store vs miss ordering: stores retire through the write buffer
    // with fixed latency even while the MSHR pool is saturated, and
    // never perturb the miss stream's completion times.
    MemConfig cfg = smallConfig();
    MemorySystem with_stores(cfg, Rng(17));
    MemorySystem without(cfg, Rng(17));

    std::vector<Cycle> a, b;
    for (unsigned i = 0; i < cfg.mshrLimit; ++i) {
        a.push_back(with_stores.access(5, MemClass::Miss, false));
        b.push_back(without.access(5, MemClass::Miss, false));
        // Interleave a store between every miss on one instance only.
        EXPECT_EQ(with_stores.access(5, MemClass::Miss, true),
                  5 + cfg.storeLatency);
    }
    EXPECT_FALSE(with_stores.canAccept(MemClass::Miss));
    EXPECT_TRUE(with_stores.canAccept(MemClass::Hit));
    EXPECT_EQ(with_stores.access(6, MemClass::Hit, true),
              6 + cfg.storeLatency)
        << "stores are accepted while the pool is full";
    EXPECT_EQ(a, b) << "stores must not shift miss batching or latency";
    EXPECT_EQ(with_stores.stores(), cfg.mshrLimit + 1);
}

TEST(MemSysDeath, AccessWithNoneClassPanics)
{
    MemorySystem mem(smallConfig(), Rng(5));
    EXPECT_DEATH(mem.access(0, MemClass::None, false), "MemClass::None");
}

TEST(MemSysDeath, BadLatencyConfigIsFatal)
{
    MemConfig cfg = smallConfig();
    cfg.missLatencyMax = cfg.missLatencyMin - 1;
    EXPECT_EXIT(MemorySystem(cfg, Rng(1)), ::testing::ExitedWithCode(1),
                "missLatencyMax");
}

TEST(MemSysDeath, ZeroMshrIsFatal)
{
    MemConfig cfg = smallConfig();
    cfg.mshrLimit = 0;
    EXPECT_EXIT(MemorySystem(cfg, Rng(1)), ::testing::ExitedWithCode(1),
                "mshrLimit");
}

} // namespace
} // namespace wg
