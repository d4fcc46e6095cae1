#include "rng.hh"

#include <cmath>

namespace wg {

std::uint64_t
splitmix64(std::uint64_t x)
{
    std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    // Jump the SplitMix64 sequence seeded at `seed` to position
    // `stream` (its state advances by the golden-ratio constant per
    // draw), then mix once more so seed pairs at exactly that offset
    // cannot alias.
    return splitmix64(
        splitmix64(seed + stream * 0x9e3779b97f4a7c15ULL));
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1u) | 1u)
{
    nextU32();
    state_ += seed;
    nextU32();
}

std::uint32_t
geometricHalfByLog(std::uint32_t m)
{
    double u = m * (1.0 / 4294967296.0);
    if (u <= 0.0)
        u = 1e-12;
    return static_cast<std::uint32_t>(
        std::floor(std::log(u) / std::log1p(-0.5)));
}

Rng
Rng::fork(std::uint64_t salt)
{
    // Mix the salt through SplitMix64 so nearby salts give unrelated
    // streams.
    std::uint64_t z = splitmix64(salt);
    std::uint64_t seed = state_ ^ z;
    std::uint64_t stream = inc_ ^ (z * 0xda942042e4dd58b5ULL);
    return Rng(seed, stream);
}

} // namespace wg
