/**
 * @file
 * Analytical accelerator cost model (the paper's cost function f,
 * standing in for Timeloop [68]; see DESIGN.md for the substitution
 * rationale).
 *
 * The model analyzes the loop nest a mapping induces
 * (DRAM -> L2 -> spatial -> L1 -> MAC) with classic stationarity
 * ("reload factor") reasoning:
 *
 *   reads out of level L for tensor T
 *     = (child-resident footprint of T) x rf(T, temporal loops above the
 *        child's residency point)
 *
 * where rf is the product of trip counts of all loops down to and
 * including the innermost T-relevant loop — the trailing run of
 * T-irrelevant loops contributes stationarity (free reuse). Outputs use
 * the mirrored update/read-modify-write form: reads = updates - first
 * writes. Spatial fan-out affects footprints (multicast unions, computed
 * halo-aware) and PE counts but is not a temporal loop.
 *
 * Energy sums per-level accesses, MACs and NoC deliveries; delay is the
 * max of compute and per-level bandwidth cycles; the optimization
 * objective is EDP (Section 5.1.2). The iteration space is the *padded*
 * bound, so over-approximate factorizations are charged for their
 * padding.
 *
 * Execution is a two-stage pipeline (costmodel/descriptor.hpp):
 *
 *   1. Lowering compiles each Mapping into one lane of a packed,
 *      structure-of-arrays DescriptorBlock — flattened temporal trip
 *      counts with per-loop dimension bitmasks, extents at the four
 *      residency points, and the spatial fan-out — validating map-space
 *      membership with an allocation-free mirror of
 *      MapSpace::validityError.
 *   2. A branch-free kernel evaluates each lane with mask-driven
 *      selects over prefix trip products (no data-dependent branches in
 *      the cost arithmetic) into fixed-size POD results.
 *
 * The batch entry points (evaluateBatch / edpBatch /
 * normalizedEdpBatch) run that pipeline over fixed-size chunks —
 * optionally fanned out over a ParallelContext — and are bitwise
 * identical to the scalar path at any batch size and lane count, because
 * the kernel replays the scalar arithmetic operation for operation;
 * scalar evaluate() itself is a batch of one. Consumers that evaluate
 * streams of mappings (Phase-1 dataset labeling, the baseline
 * searchers) should prefer the batch calls: lowering amortizes the
 * membership walk, and the kernel runs allocation-free.
 */
#pragma once

#include <array>
#include <span>
#include <vector>

#include "costmodel/descriptor.hpp"
#include "mapping/map_space.hpp"

namespace mm {

class ParallelContext;

/**
 * The algorithmic minimum (Appendix A): a conservative, possibly
 * unachievable lower bound used to normalize EDP and the surrogate's
 * output meta-statistics. It is the bounds engine's whole-problem case,
 * BoundTables::wholeProblem() (bound/bounds.hpp): per-tensor per-level
 * data-reuse limits at the empty partial assignment, admissible because
 * it combines per-component optima no single mapping attains at once.
 */
struct LowerBound
{
    double energyPj = 0.0;
    double cycles = 0.0;

    double edp() const { return energyPj * cycles; }
};

/** Read/write word counts of one tensor at one memory level. */
struct TensorLevelAccess
{
    double reads = 0.0;
    double writes = 0.0;

    double total() const { return reads + writes; }
};

/** Full evaluation result; metaStats() is the surrogate's target vector. */
struct CostResult
{
    /** access[t][lvl], lvl indexed by MemLevel. */
    std::vector<std::array<TensorLevelAccess, kNumMemLevels>> access;
    /** Per-level access energy per tensor, same indexing (pJ). */
    std::vector<std::array<double, kNumMemLevels>> energyPj;

    double nocWords = 0.0;
    double paddedMacs = 0.0;
    double actualMacs = 0.0;

    double macEnergyPj = 0.0;
    double nocEnergyPj = 0.0;
    double totalEnergyPj = 0.0;

    double computeCycles = 0.0;
    std::array<double, kNumMemLevels> bandwidthCycles{};
    double cycles = 0.0;

    /** actualMacs / (cycles * peak MACs/cycle), in [0, 1]. */
    double utilization = 0.0;

    /** Energy-delay product in pJ x cycles (1 cycle = 1 ns at 1 GHz). */
    double edp() const { return totalEnergyPj * cycles; }

    /**
     * The paper's rich output representation (Section 4.1.3/5.5):
     * per-tensor per-level energy, then total energy, utilization and
     * cycles. 12 values for CNN-Layer, 15 for MTTKRP.
     */
    std::vector<double> metaStats() const;

    /** metaStats() into a reused vector (no allocation at capacity). */
    void metaStats(std::vector<double> &out) const;

    /** Number of meta-statistics for a T-tensor problem: 3T + 3. */
    static size_t metaStatCount(size_t tensorCount);
};

/** Evaluates mappings of one map space. */
class CostModel
{
  public:
    explicit CostModel(const MapSpace &space);

    /** The map space is captured by reference: forbid temporaries. */
    explicit CostModel(MapSpace &&) = delete;

    const MapSpace &space() const { return *mapSpace; }

    /** Full evaluation; the mapping must be a valid member. */
    CostResult evaluate(const Mapping &m) const;

    /**
     * Full evaluation into a reused result: the access/energy vectors
     * are resized in place, so repeated calls on the same CostResult
     * never touch the allocator after the first.
     */
    void evaluate(const Mapping &m, CostResult &out) const;

    /** Shorthand for evaluate(m).edp(). */
    double edp(const Mapping &m) const;

    /** EDP normalized to the algorithmic minimum (Section 5.2). */
    double normalizedEdp(const Mapping &m) const;

    /**
     * Evaluate a batch of mappings: results[i] = evaluate(mappings[i]),
     * bitwise, for every i. Work proceeds in fixed-size chunks (one
     * descriptor block each); when @p par is non-null the chunks fan
     * out over its lanes, and because every lane writes disjoint
     * results the output is bitwise lane-invariant.
     */
    void evaluateBatch(std::span<const Mapping> mappings,
                       std::span<CostResult> results,
                       ParallelContext *par = nullptr) const;

    /** Pointer-indirected batch: scatter/gather without copying rows. */
    void evaluateBatch(std::span<const Mapping *const> mappings,
                       std::span<CostResult *const> results,
                       ParallelContext *par = nullptr) const;

    /** edp(m) per mapping without materializing full CostResults. */
    void edpBatch(std::span<const Mapping> mappings,
                  std::span<double> out,
                  ParallelContext *par = nullptr) const;

    /** Pointer-indirected edpBatch. */
    void edpBatch(std::span<const Mapping *const> mappings,
                  std::span<double> out,
                  ParallelContext *par = nullptr) const;

    /** normalizedEdp(m) per mapping, batch form. */
    void normalizedEdpBatch(std::span<const Mapping> mappings,
                            std::span<double> out,
                            ParallelContext *par = nullptr) const;

    /** Pointer-indirected normalizedEdpBatch. */
    void normalizedEdpBatch(std::span<const Mapping *const> mappings,
                            std::span<double> out,
                            ParallelContext *par = nullptr) const;

    /** The (possibly unachievable) algorithmic minimum (Appendix A). */
    const LowerBound &lowerBound() const { return bound; }

  private:
    const MapSpace *mapSpace;
    LowerBound bound;
    /** Stage-1/2 compile of the map space (descriptor.hpp). */
    CostTables tables;
};

} // namespace mm
