/**
 * @file
 * Analytic per-memory-level lower bounds for *partial* mapping
 * assignments (ROADMAP item 3).
 *
 * A partial assignment pins any subset of the (loop dimension, factor
 * slot) grid to concrete values — a prefix of levels (all DRAM factors
 * chosen, inner levels free), a prefix of dimensions (the order a
 * branch-and-bound tree fixes them), or anything in between. The bound
 * answers: over every *valid completion* of the assignment, how few
 * words can each memory level move, how little energy can the mapping
 * burn, and how few cycles can it take?
 *
 * Derivation (per tensor, per level, from data-reuse limits):
 *
 *  - Every word that crosses a level at least once per full-tensor
 *    traversal is charged at least the tensor's reuse-limit footprint:
 *    for residency point P with child footprint f_P and reload factor
 *    rf_P (the product of all temporal trips down to the innermost
 *    P-relevant loop), the telescoping identity
 *
 *        f_P * prod(relevant trips outside P)  >=  full footprint
 *
 *    holds whenever the tensor's projection uses unit coefficients and
 *    each loop dimension at most once (true for all paper workloads;
 *    reuseLimited() reports it per tensor). Since rf_P dominates the
 *    relevant-trip product, every transfer count of the form
 *    f_P * rf_P is at least the *full footprint at the extent floor* of
 *    the partial assignment.
 *  - L1 traffic of the form pes * rf_L1 is at least the product of the
 *    tensor-relevant padded bounds — relevance-only, valid for any
 *    projection.
 *  - Tensors whose projection violates the unit-coefficient structure
 *    fall back to a monotonicity-only bound: footprints evaluated at
 *    the per-slot extent floors (free slots -> 1), still admissible.
 *
 * Cycles take the max of compute at the *maximum reachable* PE count
 * and per-level bandwidth over the word floors; energy sums the word
 * floors through the per-level energies plus MAC and NoC floors.
 * Infeasible assignments (PE budget exceeded, minimal bank demand over
 * capacity, no legal factor completion) report feasible == false and
 * an infinite EDP.
 *
 * Admissibility contract (pinned by tests/test_bound.cpp at 10k+
 * samples): for every valid mapping m and every partial assignment pa
 * consistent with m, bound(pa).edp() <= CostModel::evaluate(m).edp()
 * up to floating-point rounding. The bound is also monotone: fixing
 * more slots never decreases it — which is what makes best-first
 * branch-and-bound certificates valid (src/bound/bb_search.hpp).
 *
 * The whole-problem minimum (nothing fixed) is the trivial case;
 * CostModel::lowerBound() is that case.
 */
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "costmodel/descriptor.hpp"

namespace mm {

/** Lower-bound components of a (possibly partial) assignment. */
struct PartialBound
{
    /** False when the assignment has no valid completion (PE budget,
     * minimal bank demand, or per-dimension factor range violated). */
    bool feasible = true;
    double energyPj = 0.0;
    double cycles = 0.0;
    /** Per-level word-count floors (reads + writes), by MemLevel. */
    std::array<double, kNumMemLevels> words{};

    double
    edp() const
    {
        return feasible ? energyPj * cycles
                        : std::numeric_limits<double>::infinity();
    }
};

/**
 * A partial factorization: any subset of the (dimension, factor slot)
 * grid pinned to concrete values, the rest free. Fixed values must be
 * >= 1; legality against the dimension's factor range is judged by
 * BoundTables::bound (an out-of-range pin makes the assignment
 * infeasible, not invalid to express).
 */
class PartialAssignment
{
  public:
    PartialAssignment() = default;
    explicit PartialAssignment(size_t rank);

    size_t rank() const { return dims; }

    bool
    fixed(size_t d, FactorSlot s) const
    {
        return (slotMask[d] >> int(s)) & 1;
    }

    /** All four slots of dimension @p d fixed. */
    bool dimFixed(size_t d) const { return slotMask[d] == 0xF; }

    /** Total fixed slots across the grid. */
    size_t fixedSlotCount() const;

    /** Value of a fixed slot; 1 for free slots. */
    int64_t factor(size_t d, FactorSlot s) const { return fac[d][int(s)]; }

    void fix(size_t d, FactorSlot s, int64_t value);
    void fixDim(size_t d, const std::array<int64_t, kFactorSlots> &f);

    /**
     * The outermost @p levels factor slots of every dimension of @p m
     * (decision order DRAM, L2, Spatial, L1 — the "prefix of levels"
     * view); 0 fixes nothing, 4 the full factorization.
     */
    static PartialAssignment levelPrefixOf(const Mapping &m, int levels);

    /** All four factors of the first @p dimCount dimensions of @p m
     * (the branch-and-bound "prefix of dimensions" view). */
    static PartialAssignment dimPrefixOf(const Mapping &m, size_t dimCount);

  private:
    size_t dims = 0;
    std::array<uint8_t, kMaxCostRank> slotMask{};
    std::array<std::array<int64_t, kFactorSlots>, kMaxCostRank> fac{};
};

/**
 * The bounds engine for one map space: compiled projection tables plus
 * per-dimension factor catalogs. bound() is allocation-free and cheap
 * (a few hundred flops) — it sits on the branch-and-bound hot path.
 *
 * Not thread-safe across calls to tuples() (lazy catalog build); each
 * searcher instance owns its tables.
 */
class BoundTables
{
  public:
    explicit BoundTables(const MapSpace &space);

    /** The map space is captured by reference: forbid temporaries. */
    explicit BoundTables(MapSpace &&) = delete;

    const MapSpace &space() const { return *mapSpace; }

    /**
     * True when tensor @p t's projection supports the tight reuse-limit
     * form (unit coefficients, each loop dimension used at most once);
     * bound() falls back to a monotonicity-only form otherwise.
     */
    bool reuseLimited(size_t t) const { return strongTensor[t]; }

    /** Lower bound over every valid completion of @p pa. */
    PartialBound bound(const PartialAssignment &pa) const;

    /** bound() of the empty assignment: the whole-problem minimum. */
    PartialBound wholeProblem() const;

    /**
     * Every legal factor tuple of dimension @p d (product within the
     * padding window, factors within range), lexicographic in
     * (L1, Spatial, L2, DRAM) order. Built on first use, cached, and
     * verified against FactorizationTable::count().
     */
    const std::vector<std::array<int64_t, kFactorSlots>> &
    tuples(size_t d) const;

    /**
     * Give each tensor its minimal feasible bank count under @p m's
     * tile extents, leaving surplus banks unallocated. Returns false
     * when some level cannot host the tiles (bank alloc never changes
     * modeled cost, so minimal banks lose nothing).
     */
    bool assignMinimalBanks(Mapping &m) const;

  private:
    int64_t minBanksFor(int lvl, double tileBytes) const;

    const MapSpace *mapSpace;
    CostTables cost;
    std::array<bool, kMaxCostTensors> strongTensor{};
    mutable std::array<std::vector<std::array<int64_t, kFactorSlots>>,
                       kMaxCostRank>
        tupleCache;
};

} // namespace mm
