/**
 * @file
 * Deterministic random-number generation for reproducible simulations.
 *
 * Every stochastic model (load generators, workload address streams)
 * takes an explicit Random instance seeded from the experiment config, so
 * a simulation is a pure function of its configuration — mirroring the
 * reproducibility goal of the paper's managed experiment descriptions.
 */

#ifndef FIRESIM_BASE_RANDOM_HH
#define FIRESIM_BASE_RANDOM_HH

#include <cmath>
#include <cstdint>

namespace firesim
{

/** xoshiro256** PRNG: fast, high-quality, fully deterministic. */
class Random
{
  public:
    explicit Random(uint64_t seed = 0x5eed5eedULL) { reseed(seed); }

    /** Re-initialize state from a 64-bit seed via splitmix64. */
    void
    reseed(uint64_t seed)
    {
        for (auto &word : state) {
            seed += 0x9e3779b97f4a7c15ULL;
            uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Uniform 64-bit draw. */
    uint64_t
    next()
    {
        uint64_t result = rotl(state[1] * 5, 7) * 9;
        uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Exponentially distributed double with the given mean (>0). */
    double
    exponential(double mean)
    {
        double u = uniform();
        // Guard the log argument away from zero.
        if (u >= 1.0)
            u = 0x1.fffffffffffffp-1;
        return -mean * std::log(1.0 - u);
    }

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p) { return uniform() < p; }

    /** Copy the raw 256-bit stream state out (state image support). */
    void
    saveState(uint64_t out[4]) const
    {
        for (int i = 0; i < 4; ++i)
            out[i] = state[i];
    }

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state[4] = {};
};

} // namespace firesim

#endif // FIRESIM_BASE_RANDOM_HH
