/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The simulator must be bit-reproducible across runs and platforms, so we
 * carry our own PCG32 implementation instead of relying on libstdc++
 * distribution internals.
 */

#pragma once

#include <bit>
#include <cstdint>

#include "common/fields.hh"

namespace wg {

/**
 * SplitMix64 step: advance @p x by the golden-ratio increment and run
 * the finalizer. Nearby inputs produce statistically unrelated outputs
 * (full avalanche), which is what makes it safe for deriving seed
 * streams from small consecutive indices.
 */
std::uint64_t splitmix64(std::uint64_t x);

/**
 * Derive the seed for sub-stream @p stream of experiment seed @p seed
 * (e.g. the per-SM RNG streams of one GPU run). Both arguments go
 * through SplitMix64 mixing, so distinct (seed, stream) pairs give
 * decorrelated streams even when seeds or stream indices are adjacent
 * small integers — unlike a linear a*seed + b*stream mix, where nearby
 * pairs yield seeds at a constant offset and thus correlated PCG
 * sequences.
 */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Raw PCG32 generator state, exposed for checkpoint/resume. The pair
 * fully determines the future output sequence; restoring it with
 * Rng::fromState() continues the stream bit-identically.
 */
struct RngState {
    std::uint64_t state = 0; ///< PCG LCG accumulator
    std::uint64_t inc = 1;   ///< stream increment (always odd)

    static constexpr auto
    fields()
    {
        using S = RngState;
        return std::tuple{field("state", &S::state),
                          field("inc", &S::inc)};
    }
};

/**
 * PCG32 (pcg_xsh_rr_64_32) generator. Small state, excellent statistical
 * quality, and fully deterministic given (seed, stream).
 */
class Rng
{
  public:
    /** Construct from a seed and an optional stream selector. */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** @return the next raw 32-bit value. */
    std::uint32_t
    nextU32()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ULL + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    /** @return a uniform value in [0, bound). bound must be non-zero. */
    std::uint32_t
    nextRange(std::uint32_t bound)
    {
        // Lemire-style rejection to avoid modulo bias.
        std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            std::uint32_t r = nextU32();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** @return a uniform double in [0, 1). */
    double nextDouble() { return nextU32() * (1.0 / 4294967296.0); }

    /** @return true with probability p (clamped to [0,1]). */
    bool
    nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /** Derive an independent child generator (for per-warp streams). */
    Rng fork(std::uint64_t salt);

    /** Capture the raw generator state for a checkpoint. */
    RngState
    saveState() const
    {
        return RngState{state_, inc_};
    }

    /** Rebuild a generator mid-stream from a captured RngState. */
    static Rng
    fromState(const RngState& s)
    {
        Rng r;
        r.state_ = s.state;
        r.inc_ = s.inc;
        return r;
    }

    /** Overwrite this generator's stream position from a checkpoint. */
    void
    restoreState(const RngState& s)
    {
        state_ = s.state;
        inc_ = s.inc;
    }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

/** geometricHalf()'s log formula, for m = 0 and powers of two. */
std::uint32_t geometricHalfByLog(std::uint32_t m);

/**
 * Geometric draw with p = 0.5 (failures before the first success) by
 * inverse CDF of u = m * 2^-32, for one raw nextU32() value @p m: the
 * same value as floor(log(u) / log1p(-0.5)), with u = 1e-12 for m = 0.
 * For 2^j < m < 2^(j+1), -log2(u) lies inside (31-j, 32-j) and at
 * least 3e-10 from either end, far beyond the formula's ~1e-14
 * rounding error, so the floor is 31 - j. Only m = 0 and exact powers
 * of two, where -log2(u) is an integer, take the log formula.
 */
inline std::uint32_t
geometricHalf(std::uint32_t m)
{
    if ((m & (m - 1)) != 0)
        return 32u - static_cast<std::uint32_t>(std::bit_width(m));
    return geometricHalfByLog(m);
}

} // namespace wg

