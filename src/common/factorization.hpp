/**
 * @file
 * Integer-factorization machinery for tile-size map spaces.
 *
 * A loop dimension of size `bound` is split across `slots` loop levels
 * (e.g. L1-temporal, spatial, L2-temporal, DRAM-temporal) as an ordered
 * tuple of integer factors. Following Timeloop's imperfect-factor handling,
 * a tuple is legal when the product lies in [bound, bound + max(1,
 * bound/4)]: mildly over-approximate ("padded") factorizations are
 * permitted — the ceil-division semantics of Timeloop's imperfect
 * factors — and the cost model charges for the padded iteration space.
 *
 * FactorizationTable precomputes a dynamic-programming count of legal
 * tuples which supports exactly-uniform sampling and map-space size
 * estimation. Tables are memoized globally (keyed by bound/slots), since
 * dataset generation draws millions of tuples.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace mm {

/** All divisors of @p n in increasing order. */
std::vector<int64_t> divisors(int64_t n);

/** Smallest prime factor of @p n (n >= 2); @p n itself when prime. */
int64_t smallestPrimeFactor(int64_t n);

/**
 * Counting and uniform sampling of ordered factor tuples.
 *
 * Legal tuple: `slots` integers, each in [1, maxFactor], whose product p
 * satisfies bound <= p <= padLimit, where padLimit is bound + max(1,
 * bound/4) (and bound itself when bound == 1).
 */
class FactorizationTable
{
  public:
    /**
     * Build the DP table.
     *
     * @param bound     The loop-dimension size (>= 1).
     * @param slots     Number of loop levels the dimension splits across.
     * @param maxFactor Per-factor upper limit; defaults to the pad limit
     *                  (repair operations move whole factors between
     *                  slots, so a single slot may carry the full padded
     *                  bound).
     */
    FactorizationTable(int64_t bound, int slots, int64_t maxFactor = -1);

    /** Number of legal ordered tuples. */
    int64_t count() const { return total; }

    /** Draw a legal tuple exactly uniformly at random. */
    std::vector<int64_t> sample(Rng &rng) const;

    /** sample() into @p out (size slotCount()); allocation-free. */
    void sampleInto(Rng &rng, std::span<int64_t> out) const;

    /** True iff @p factors is a legal tuple for this table. */
    bool contains(std::span<const int64_t> factors) const;

    /**
     * Deterministically repair an arbitrary positive tuple into a legal
     * one, preserving the input as closely as possible (used by
     * map-space projection). Factors are first clamped into
     * [1, maxFactor]; then the product is pulled into range by scaling
     * the designated @p adjustSlot (outermost level by convention).
     */
    std::vector<int64_t> repair(std::span<const int64_t> factors,
                                int adjustSlot) const;

    /**
     * repair() into @p out (size slotCount()); allocation-free. @p out
     * may alias @p factors.
     */
    void repairInto(std::span<const int64_t> factors, int adjustSlot,
                    std::span<int64_t> out) const;

    int64_t boundValue() const { return bound; }
    int slotCount() const { return slots; }
    int64_t maxFactorValue() const { return maxFactor; }
    int64_t padLimitValue() const { return padLimit; }

  private:
    int64_t bound;
    int slots;
    int64_t maxFactor;
    int64_t padLimit;
    int64_t total;
    /** ways[s][p] = #ordered s-tuples with product exactly p. */
    std::vector<std::vector<int64_t>> ways;
    /** The divisors of p, ascending, for p in [1, padLimit]. */
    std::span<const int32_t>
    divisorsOf(int64_t p) const
    {
        return {divList.data() + divStart[size_t(p)],
                divStart[size_t(p) + 1] - divStart[size_t(p)]};
    }

    /**
     * Divisor lists of all p in [1, padLimit], concatenated in order of
     * p: p's list is divList[divStart[p], divStart[p + 1]).
     */
    std::vector<int32_t> divList;
    std::vector<uint32_t> divStart;
    /** logs[p] = std::log(double(p)) for p in [1, padLimit]. */
    std::vector<double> logs;
    /** cumWays[p - bound] = sum of ways[slots][q] for q in [bound, p]. */
    std::vector<int64_t> cumWays;
};

/**
 * Global memoized access to factorization tables.
 *
 * Thread-safe: lookups serialize on an internal mutex (labeling lanes
 * and batched searchers sample concurrently). The returned reference
 * stays valid for program lifetime. Hot paths do not call this: a
 * MapSpace resolves each dimension's table once, at construction, and
 * sampling, projection, membership and the cost model's lowering all
 * go through MapSpace::factorTableOf without taking the lock.
 */
const FactorizationTable &factorTable(int64_t bound, int slots,
                                      int64_t maxFactor = -1);

} // namespace mm
