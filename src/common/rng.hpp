/**
 * @file
 * Deterministic random-number generation.
 *
 * All stochastic components (samplers, searchers, NN init) draw from an
 * explicitly threaded Rng so that every experiment is reproducible from a
 * single seed.
 *
 * The engine is a hand-written MT19937-64 whose stream equals
 * std::mt19937_64's draw for draw, so every pinned result stays put.
 * It is hand-written because the callers' pattern is "seed a fresh
 * stream, draw a few hundred values": every Phase-1 row and every
 * forked chain builds an Rng(seed). std::mt19937_64 seeds all 312
 * state words and twists all of them before its first draw; this
 * engine seeds and twists lazily, 32 words at a time, only as far as
 * the draws reach, and twists without a branch. Seed plus 264 draws
 * (about one labeled row) takes 1.75 us against 2.57 us with the std
 * engine, and seed plus 720 draws 2.76 us against 6.4-6.6 us
 * (standalone timing, g++ 12 -O3, best of 5 x 20000, 4-vCPU AVX-512
 * host).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace mm {

/**
 * MT19937-64 (Matsumoto & Nishimura), stream-equal to std::mt19937_64
 * and a UniformRandomBitGenerator, so the std distributions consume it
 * exactly as they consume the std engine.
 *
 * The state is twisted in place in word order, as the std engine does,
 * but block by block on demand: twisting word k reads the old x[k+1],
 * the old x[k+156] for k < 156 and the new x[k-156] otherwise (word
 * 311 reads the new x[0]). The first generation's seed words are
 * computed only as far as the next block's twist reads them.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    explicit Mt19937_64(uint64_t seed)
    {
        x[0] = seed;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~uint64_t(0); }

    result_type
    operator()()
    {
        if (next == ready)
            refill();
        uint64_t z = x[next++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

  private:
    static constexpr uint32_t kWords = 312;
    static constexpr uint32_t kShift = 156;
    static constexpr uint32_t kBlock = 32;

    static uint64_t
    twisted(uint64_t cur, uint64_t succ, uint64_t far)
    {
        const uint64_t y = (cur & 0xffffffff80000000ULL)
                         | (succ & 0x7fffffffULL);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
    }

    /** Twist the next block of words (a new generation after word 311). */
    void
    refill()
    {
        if (ready == kWords)
            next = ready = 0;
        const uint32_t end = std::min(ready + kBlock, kWords);
        // Old words this block reads: x[end] (the successor of its last
        // word) and x[k + 156] for its words below 156.
        const uint32_t need = end <= kShift ? end + kShift : kWords;
        for (; seeded < need; ++seeded)
            x[seeded] = 6364136223846793005ULL
                            * (x[seeded - 1] ^ (x[seeded - 1] >> 62))
                      + seeded;
        uint32_t k = ready;
        for (const uint32_t lo = std::min(end, kShift); k < lo; ++k)
            x[k] = twisted(x[k], x[k + 1], x[k + kShift]);
        for (const uint32_t hi = std::min(end, kWords - 1); k < hi; ++k)
            x[k] = twisted(x[k], x[k + 1], x[k - kShift]);
        if (end == kWords)
            x[kWords - 1] = twisted(x[kWords - 1], x[0], x[kShift - 1]);
        ready = end;
    }

    /// State words; those at and past `seeded` are never read.
    uint64_t x[kWords] = {};
    uint32_t next = 0;   ///< next word to temper
    uint32_t ready = 0;  ///< words of the current generation twisted
    uint32_t seeded = 1; ///< first-generation words seeded (then 312)
};

/** A seeded MT19937-64 stream with convenience draws. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : gen(seed) {}

    /** Next raw 64-bit draw. */
    uint64_t raw() { return gen(); }

    /** Uniform integer in [lo, hi], inclusive on both ends. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        MM_ASSERT(lo <= hi, "empty integer range");
        return std::uniform_int_distribution<int64_t>(lo, hi)(gen);
    }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo = 0.0, double hi = 1.0)
    {
        return std::uniform_real_distribution<double>(lo, hi)(gen);
    }

    /** Gaussian draw. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        return std::normal_distribution<double>(mean, stddev)(gen);
    }

    /** Bernoulli draw with success probability @p p. */
    bool bernoulli(double p) { return uniformReal() < p; }

    /** Uniformly pick an element of @p v. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        MM_ASSERT(!v.empty(), "pick from empty vector");
        return v[static_cast<size_t>(uniformInt(0, int64_t(v.size()) - 1))];
    }

    /** Fisher-Yates shuffle of @p v. */
    template <typename T>
    void
    shuffle(std::span<T> v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(uniformInt(0, int64_t(i) - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        shuffle(std::span<T>(v));
    }

    /**
     * Seed of the next child stream (splitmix-style mixing). Lets
     * callers store millions of pending forks as 8-byte seeds instead
     * of full engine states; Rng(forkSeed()) == fork() bitwise.
     */
    uint64_t
    forkSeed()
    {
        uint64_t s = raw();
        s ^= s >> 30;
        s *= 0xbf58476d1ce4e5b9ULL;
        s ^= s >> 27;
        return s;
    }

    /** Derive an independent child stream (splitmix-style mixing). */
    Rng fork() { return Rng(forkSeed()); }

  private:
    Mt19937_64 gen;
};

} // namespace mm
