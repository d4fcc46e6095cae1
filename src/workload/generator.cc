#include "generator.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace wg {

namespace {

/** Number of architectural registers in the synthetic register window. */
constexpr RegId kRegWindow = 16;

/** Pick a unit class from (possibly phase-biased) mix weights. */
UnitClass
sampleClass(Rng& rng, const std::array<double, kNumUnitClasses>& weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    if (total <= 0.0)
        return UnitClass::Int;
    double u = rng.nextDouble() * total;
    for (std::size_t c = 0; c < kNumUnitClasses; ++c) {
        if (u < weights[c])
            return static_cast<UnitClass>(c);
        u -= weights[c];
    }
    return UnitClass::Int;
}

} // namespace

ProgramGenerator::ProgramGenerator(std::uint64_t seed)
    : root_(seed, 0x5851f42d4c957f2dULL)
{
}

/*
 * Kernels are generated as an alternation of *memory bursts* and
 * *compute blocks*, which is how real SIMT kernels behave (load a tile,
 * then compute on it):
 *
 *   - a memory burst is 1..loadBurstMax LDST instructions back to back;
 *     the whole burst shares one hit/miss outcome (a tile either streams
 *     from DRAM or lives in shared memory/L1), sampled with
 *     memMissRatio;
 *   - a compute block of INT/FP/SFU instructions follows, sized so the
 *     overall LDST share matches fracLdst; its first instruction
 *     consumes the burst's last load (with probability
 *     loadConsumeProb), which is what stalls the warp until the tile
 *     arrives.
 *
 * This burst structure is what gives the bimodal idle-period
 * distribution the paper reports: dense sub-idle-detect bubbles inside
 * compute phases, plus long SM-wide droughts when all CTAs sit in a
 * memory burst.
 */
Program
ProgramGenerator::generate(const BenchmarkProfile& profile,
                           std::uint64_t salt)
{
    if (profile.kernelLength <= 0)
        fatal("profile '", profile.name, "': non-positive kernel length");

    Rng rng = root_.fork(salt);
    std::vector<Instruction> instrs;
    instrs.reserve(static_cast<std::size_t>(profile.kernelLength));

    // Recent destinations for dependency synthesis: a ring of the last
    // kRecentCap, of which the newest recent_size are live. The live
    // count grows to kRecentCap, then drops back to kRegWindow.
    constexpr std::size_t kRecentCap = 2 * kRegWindow;
    std::array<RegId, kRecentCap> recent{};
    std::size_t recent_head = 0; // slot of the newest entry
    std::size_t recent_size = 0;
    RegId next_reg = 0;

    auto alloc_dest = [&]() {
        RegId r = next_reg;
        next_reg = static_cast<RegId>((next_reg + 1) % kRegWindow);
        return r;
    };

    auto note_dest = [&](RegId r) {
        recent_head = (recent_head + 1) % kRecentCap;
        recent[recent_head] = r;
        if (++recent_size > kRecentCap)
            recent_size = kRegWindow;
    };

    const std::size_t dep_window =
        static_cast<std::size_t>(std::max(profile.depWindow, 1));
    auto pick_src = [&](bool force) -> RegId {
        if (recent_size == 0)
            return kNoReg;
        if (!force && !rng.nextBool(profile.depProb))
            return kNoReg;
        std::size_t dist = geometricHalf(rng.nextU32());
        std::size_t limit = std::min(recent_size, dep_window);
        if (dist >= limit)
            dist = limit - 1;
        return recent[(recent_head + kRecentCap - dist) % kRecentCap];
    };

    const double frac_ldst = std::max(profile.fracLdst, 1e-6);
    const double compute_per_mem = (1.0 - frac_ldst) / frac_ldst;

    const int len = profile.kernelLength;
    int k = 0;
    while (k < len) {
        // ---- memory burst ----
        int burst_max = std::max(profile.loadBurstMax, 1);
        int burst = 1 + static_cast<int>(rng.nextRange(
                            static_cast<std::uint32_t>(burst_max)));
        bool burst_misses = rng.nextBool(profile.memMissRatio);
        RegId last_load = kNoReg;
        for (int b = 0; b < burst && k < len; ++b, ++k) {
            Instruction instr;
            instr.unit = UnitClass::Ldst;
            instr.mem = burst_misses ? MemClass::Miss : MemClass::Hit;
            if (rng.nextBool(profile.storeFrac)) {
                instr.isStore = true;
                instr.srcs = {pick_src(true), pick_src(false)};
            } else {
                instr.dest = alloc_dest();
                instr.srcs = {pick_src(false), kNoReg};
                last_load = instr.dest;
                note_dest(instr.dest);
            }
            instrs.push_back(instr);
        }

        // ---- compute block ----
        double jitter = 0.5 + rng.nextDouble(); // 0.5x .. 1.5x
        int compute = static_cast<int>(
            static_cast<double>(burst) * compute_per_mem * jitter + 0.5);
        compute = std::max(compute, 1);
        bool consume_pending = last_load != kNoReg &&
                               rng.nextBool(profile.loadConsumeProb);
        for (int c = 0; c < compute && k < len; ++c, ++k) {
            std::array<double, kNumUnitClasses> weights = {
                profile.fracInt, profile.fracFp, profile.fracSfu, 0.0};
            if (profile.phaseLen > 0) {
                bool int_phase = (k / profile.phaseLen) % 2 == 0;
                if (int_phase)
                    weights[0] *= profile.phaseBias;
                else
                    weights[1] *= profile.phaseBias;
            }
            UnitClass uc = sampleClass(rng, weights);
            Instruction instr;
            instr.unit = uc;
            instr.dest = alloc_dest();
            instr.srcs = {pick_src(false),
                          uc == UnitClass::Sfu ? kNoReg
                                               : pick_src(false)};
            if (consume_pending) {
                // The tile arrives: first compute instruction reads the
                // burst's last load.
                instr.srcs[0] = last_load;
                consume_pending = false;
            }
            if (instr.dest == instr.srcs[0] ||
                instr.dest == instr.srcs[1]) {
                // Avoid self-dependence through the rotating window.
                instr.dest = alloc_dest();
            }
            note_dest(instr.dest);
            instrs.push_back(instr);
        }
    }

    return Program(std::move(instrs));
}

std::vector<Program>
ProgramGenerator::generateSm(const BenchmarkProfile& profile,
                             std::uint64_t sm_salt)
{
    std::vector<Program> programs;
    programs.reserve(static_cast<std::size_t>(profile.residentWarps));
    const int cta = std::max(profile.ctaWarps, 1);
    for (int w = 0; w < profile.residentWarps; ++w) {
        // Warps of one CTA share their instruction sequence.
        std::uint64_t salt = sm_salt * 1000003ULL +
                             static_cast<std::uint64_t>(w / cta);
        if (w % cta == 0)
            programs.push_back(generate(profile, salt));
        else
            programs.push_back(programs.back());
    }
    return programs;
}

} // namespace wg
