/**
 * @file
 * Unit and property tests for the synthetic program generator.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "workload/generator.hh"
#include "workload/profile.hh"

namespace wg {
namespace {

bool
sameProgram(const Program& a, const Program& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Instruction& x = a.at(i);
        const Instruction& y = b.at(i);
        if (x.unit != y.unit || x.mem != y.mem || x.dest != y.dest ||
            x.srcs != y.srcs || x.isStore != y.isStore)
            return false;
    }
    return true;
}

TEST(Generator, DeterministicForSameSeedAndSalt)
{
    ProgramGenerator a(42), b(42);
    const auto& profile = findBenchmark("hotspot");
    EXPECT_TRUE(sameProgram(a.generate(profile, 7), b.generate(profile, 7)));
}

TEST(Generator, DifferentSaltsGiveDifferentPrograms)
{
    ProgramGenerator gen(42);
    const auto& profile = findBenchmark("hotspot");
    EXPECT_FALSE(
        sameProgram(gen.generate(profile, 1), gen.generate(profile, 2)));
}

TEST(Generator, DifferentSeedsGiveDifferentPrograms)
{
    ProgramGenerator a(1), b(2);
    const auto& profile = findBenchmark("hotspot");
    EXPECT_FALSE(
        sameProgram(a.generate(profile, 3), b.generate(profile, 3)));
}

TEST(Generator, RespectsKernelLength)
{
    ProgramGenerator gen(5);
    BenchmarkProfile p = findBenchmark("srad");
    p.kernelLength = 321;
    EXPECT_EQ(gen.generate(p, 0).size(), 321u);
}

TEST(GeneratorDeath, NonPositiveLengthIsFatal)
{
    ProgramGenerator gen(5);
    BenchmarkProfile p = findBenchmark("srad");
    p.kernelLength = 0;
    EXPECT_EXIT(gen.generate(p, 0), ::testing::ExitedWithCode(1),
                "non-positive kernel length");
}

TEST(Generator, CtaWarpsSharePrograms)
{
    ProgramGenerator gen(11);
    BenchmarkProfile p = findBenchmark("hotspot");
    p.residentWarps = 48;
    p.ctaWarps = 16;
    auto programs = gen.generateSm(p, 0);
    ASSERT_EQ(programs.size(), 48u);
    EXPECT_TRUE(sameProgram(programs[0], programs[15]));
    EXPECT_TRUE(sameProgram(programs[16], programs[31]));
    EXPECT_FALSE(sameProgram(programs[0], programs[16]))
        << "different CTAs run different generated sequences";
}

TEST(Generator, DifferentSmsGetDifferentPrograms)
{
    ProgramGenerator gen(11);
    const auto& p = findBenchmark("hotspot");
    auto sm0 = gen.generateSm(p, 0);
    auto sm1 = gen.generateSm(p, 1);
    EXPECT_FALSE(sameProgram(sm0[0], sm1[0]));
}

TEST(Generator, PureIntegerProfileHasNoFp)
{
    ProgramGenerator gen(3);
    const auto& p = findBenchmark("lavaMD");
    Program prog = gen.generate(p, 0);
    EXPECT_EQ(prog.countOf(UnitClass::Fp), 0u);
}

/** FNV-1a step over the low @p bytes of @p v. */
void
mix(std::uint64_t& h, std::uint64_t v, int bytes)
{
    for (int b = 0; b < bytes; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
}

/**
 * Digest of every SM's programs for all suite profiles at @p seed and
 * 6 SMs: each warp's length, each class count and every field of
 * every instruction, in warp order.
 */
std::uint64_t
suiteDigest(std::uint64_t seed)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string& name : benchmarkNames()) {
        const BenchmarkProfile& profile = findBenchmark(name);
        ProgramGenerator gen(seed);
        for (unsigned s = 0; s < 6; ++s) {
            for (const Program& prog : gen.generateSm(profile, s)) {
                mix(h, prog.size(), 8);
                for (std::size_t c = 0; c < kNumUnitClasses; ++c)
                    mix(h, prog.countOf(static_cast<UnitClass>(c)), 8);
                for (std::size_t i = 0; i < prog.size(); ++i) {
                    const Instruction& x = prog.at(i);
                    mix(h, static_cast<std::uint64_t>(x.unit), 1);
                    mix(h, static_cast<std::uint64_t>(x.mem), 1);
                    mix(h, x.dest, 2);
                    mix(h, x.srcs[0], 2);
                    mix(h, x.srcs[1], 2);
                    mix(h, x.isStore ? 1 : 0, 1);
                }
            }
        }
    }
    return h;
}

TEST(Generator, SuiteProgramsArePinned)
{
    // Every generated instruction feeds every golden; a change here
    // re-pins them all. These values must never be regenerated to make
    // a generator change pass.
    EXPECT_EQ(suiteDigest(1), 0xd8b8f68c5b2b8415ULL);
    EXPECT_EQ(suiteDigest(2), 0x4f530a4dd8fb37e5ULL);
    EXPECT_EQ(suiteDigest(12345), 0xb6b96836463e7d55ULL);
}

/** Property tests over every suite benchmark. */
class GeneratedProgram : public ::testing::TestWithParam<std::string>
{
  protected:
    Program
    make()
    {
        ProgramGenerator gen(1234);
        return gen.generate(findBenchmark(GetParam()), 99);
    }
};

TEST_P(GeneratedProgram, MixTracksProfile)
{
    const auto& p = findBenchmark(GetParam());
    Program prog = make();
    double n = static_cast<double>(prog.size());
    // LDST share is set by construction; tolerance covers burst
    // quantisation. ALU classes split the remainder by profile weight.
    EXPECT_NEAR(prog.countOf(UnitClass::Ldst) / n, p.fracLdst, 0.08)
        << p.name;
    double alu = p.fracInt + p.fracFp + p.fracSfu;
    if (alu > 0) {
        double int_expected =
            (1.0 - prog.countOf(UnitClass::Ldst) / n) * p.fracInt / alu;
        EXPECT_NEAR(prog.countOf(UnitClass::Int) / n, int_expected, 0.08)
            << p.name;
    }
}

TEST_P(GeneratedProgram, RegistersAreInWindow)
{
    Program prog = make();
    for (const Instruction& i : prog.instructions()) {
        if (i.dest != kNoReg) {
            EXPECT_LT(i.dest, 16);
        }
        for (RegId s : i.srcs) {
            if (s != kNoReg) {
                EXPECT_LT(s, 16);
            }
        }
    }
}

TEST_P(GeneratedProgram, StoresNeverWriteRegisters)
{
    Program prog = make();
    for (const Instruction& i : prog.instructions()) {
        if (i.isStore) {
            EXPECT_EQ(i.dest, kNoReg);
        }
    }
}

TEST_P(GeneratedProgram, MemoryBurstsShareMissClass)
{
    // Within a run of consecutive LDST instructions, all entries carry
    // the same hit/miss class (one tile, one locality outcome).
    Program prog = make();
    for (std::size_t i = 1; i < prog.size(); ++i) {
        const Instruction& prev = prog.at(i - 1);
        const Instruction& cur = prog.at(i);
        if (prev.unit == UnitClass::Ldst && cur.unit == UnitClass::Ldst) {
            EXPECT_EQ(prev.mem, cur.mem) << "at " << i;
        }
    }
}

TEST_P(GeneratedProgram, SourcesReferenceEarlierProducers)
{
    // Every source register must have been written earlier in program
    // order (the generator only wires dataflow backwards).
    Program prog = make();
    std::array<bool, 16> written = {};
    for (const Instruction& i : prog.instructions()) {
        for (RegId s : i.srcs) {
            if (s != kNoReg) {
                EXPECT_TRUE(written[s]) << i.toString();
            }
        }
        if (i.dest != kNoReg)
            written[i.dest] = true;
    }
}

TEST_P(GeneratedProgram, MissLoadsAreConsumed)
{
    // loadConsumeProb of miss-load results must be read by a later
    // instruction; check the aggregate rate is at least half of it
    // (conservative: some consumers are overwritten by the rotating
    // register window).
    const auto& p = findBenchmark(GetParam());
    Program prog = make();
    std::size_t miss_loads = 0, consumed = 0;
    for (std::size_t i = 0; i < prog.size(); ++i) {
        const Instruction& load = prog.at(i);
        if (load.unit != UnitClass::Ldst || load.isStore ||
            load.mem != MemClass::Miss)
            continue;
        ++miss_loads;
        for (std::size_t j = i + 1;
             j < std::min(prog.size(), i + 40); ++j) {
            const Instruction& later = prog.at(j);
            if (later.dest == load.dest)
                break; // overwritten before use
            if (later.srcs[0] == load.dest ||
                later.srcs[1] == load.dest) {
                ++consumed;
                break;
            }
        }
    }
    if (miss_loads > 20) {
        EXPECT_GT(static_cast<double>(consumed) / miss_loads,
                  p.loadConsumeProb * 0.5)
            << p.name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, GeneratedProgram,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto& info) { return info.param; });

} // namespace
} // namespace wg
