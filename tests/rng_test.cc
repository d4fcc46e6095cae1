/**
 * @file
 * Unit tests for the deterministic PCG32 generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hh"

namespace wg {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.nextU32(), b.nextU32());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.nextU32() == b.nextU32())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, DifferentStreamsDiverge)
{
    Rng a(7, 1), b(7, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.nextU32() == b.nextU32())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, RangeBounds)
{
    Rng rng(3);
    for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1u << 20}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextRange(bound), bound);
    }
}

TEST(Rng, RangeOneAlwaysZero)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextRange(1), 0u);
}

TEST(Rng, RangeCoversAllValues)
{
    Rng rng(5);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextRange(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 5000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng rng(123);
    double acc = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        acc += rng.nextDouble();
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, BoolEdgeCases)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
        EXPECT_FALSE(rng.nextBool(-1.0));
        EXPECT_TRUE(rng.nextBool(2.0));
    }
}

TEST(Rng, BoolProbabilityApprox)
{
    Rng rng(31);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.nextBool(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

/** The inverse-CDF formula geometricHalf() must reproduce exactly. */
std::uint32_t
geometricByLog(std::uint32_t m)
{
    double u = m * (1.0 / 4294967296.0);
    if (u <= 0.0)
        u = 1e-12;
    return static_cast<std::uint32_t>(
        std::floor(std::log(u) / std::log1p(-0.5)));
}

TEST(GeometricHalf, MatchesLogAtPowersOfTwoAndNeighbours)
{
    for (unsigned j = 0; j < 32; ++j) {
        const std::uint32_t p = 1u << j;
        for (std::uint32_t m : {p - 1, p, p + 1})
            EXPECT_EQ(geometricHalf(m), geometricByLog(m)) << "m = " << m;
    }
}

TEST(GeometricHalf, MatchesLogAtTheEnds)
{
    EXPECT_EQ(geometricHalf(0), geometricByLog(0));
    EXPECT_EQ(geometricHalf(0xffffffffu), geometricByLog(0xffffffffu));
    EXPECT_EQ(geometricHalf(0xffffffffu), 0u);
}

TEST(GeometricHalf, MatchesLogOverASeededSweep)
{
    Rng rng(29);
    for (int i = 0; i < (1 << 21); ++i) {
        const std::uint32_t m = rng.nextU32();
        ASSERT_EQ(geometricHalf(m), geometricByLog(m)) << "m = " << m;
    }
}

TEST(GeometricHalf, MeanIsOne)
{
    // E[failures before success] = (1-p)/p = 1 at p = 0.5.
    Rng rng(23);
    double acc = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        acc += geometricHalf(rng.nextU32());
    EXPECT_NEAR(acc / n, 1.0, 0.05);
}

TEST(Rng, ForkIsDeterministic)
{
    Rng root(99);
    Rng a = root.fork(5);
    Rng root2(99);
    Rng b = root2.fork(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU32(), b.nextU32());
}

TEST(Rng, ForksWithDifferentSaltsDiverge)
{
    Rng root(99);
    Rng a = root.fork(1);
    Rng b = root.fork(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.nextU32() == b.nextU32())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, NearbySaltsUncorrelated)
{
    // SplitMix mixing should decorrelate salt k and k+1.
    Rng root(7);
    std::vector<double> means;
    for (std::uint64_t salt = 0; salt < 8; ++salt) {
        Rng r = root.fork(salt);
        double acc = 0.0;
        for (int i = 0; i < 2000; ++i)
            acc += r.nextDouble();
        means.push_back(acc / 2000);
    }
    for (double m : means)
        EXPECT_NEAR(m, 0.5, 0.05);
}

/** Chi-square-ish uniformity check across 16 buckets. */
TEST(Rng, RoughUniformity)
{
    Rng rng(2024);
    std::vector<int> buckets(16, 0);
    const int n = 160000;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.nextRange(16)];
    for (int count : buckets)
        EXPECT_NEAR(count, n / 16, n / 16 / 10);
}

TEST(SplitMix64, MatchesReferenceVectors)
{
    // Reference outputs of the canonical splitmix64 (Vigna) seeded
    // with 0: successive next() calls, i.e. splitmix64(k * golden).
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(splitmix64(0x9e3779b97f4a7c15ULL), 0x6e789e6aa1b965f4ULL);
}

TEST(SplitMix64, AvalanchesOnSingleBitFlips)
{
    // Flipping any one input bit should flip roughly half the output
    // bits — the property the old linear a*seed + b*sm mix lacked.
    for (int bit = 0; bit < 64; ++bit) {
        std::uint64_t a = splitmix64(42);
        std::uint64_t b = splitmix64(42ULL ^ (1ULL << bit));
        int flipped = __builtin_popcountll(a ^ b);
        EXPECT_GE(flipped, 16) << "bit " << bit;
        EXPECT_LE(flipped, 48) << "bit " << bit;
    }
}

TEST(StreamSeed, DistinctSeedSmPairsGiveDistinctStreams)
{
    // Regression for the per-SM seed derivation: every (seed, sm) pair
    // in a dense grid must map to a unique stream seed, including the
    // cross-pair aliases a linear mix admits.
    std::set<std::uint64_t> seen;
    for (std::uint64_t seed = 0; seed < 64; ++seed)
        for (std::uint64_t sm = 0; sm < 32; ++sm)
            seen.insert(streamSeed(seed, sm));
    EXPECT_EQ(seen.size(), 64u * 32u);
}

TEST(StreamSeed, NearbySeedsDecorrelated)
{
    // Under the old mix, streams for seed and seed+1 (same SM) sat at
    // a constant additive offset. Require avalanche instead.
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        for (unsigned sm = 0; sm < 4; ++sm) {
            std::uint64_t a = streamSeed(seed, sm);
            std::uint64_t b = streamSeed(seed + 1, sm);
            int flipped = __builtin_popcountll(a ^ b);
            EXPECT_GE(flipped, 16) << "seed " << seed << " sm " << sm;
            std::uint64_t c = streamSeed(seed, sm + 1);
            EXPECT_GE(__builtin_popcountll(a ^ c), 16)
                << "seed " << seed << " sm " << sm;
        }
    }
}

TEST(StreamSeed, FirstDrawsOfDerivedRngsAreDistinct)
{
    // End-to-end: the actual per-SM generators (as Gpu seeds them)
    // must not replay each other's sequences.
    std::set<std::uint64_t> first_draws;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (unsigned sm = 0; sm < 8; ++sm) {
            Rng rng(streamSeed(seed, sm));
            std::uint64_t sig = (static_cast<std::uint64_t>(rng.nextU32())
                                 << 32) |
                                rng.nextU32();
            first_draws.insert(sig);
        }
    }
    EXPECT_EQ(first_draws.size(), 64u);
}

} // namespace
} // namespace wg
