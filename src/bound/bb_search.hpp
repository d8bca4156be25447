/**
 * @file
 * Best-first branch-and-bound over the mapping space, pruned by the
 * partial-assignment bounds of bound/bounds.hpp.
 *
 * The tree fixes one loop dimension's full factor tuple per level
 * (dimensions ordered by ascending tuple count, so cheap decisions sit
 * near the root), keeps a priority queue ordered by bound, and
 * evaluates complete factorizations through the standard
 * SearchRecorder — each leaf's block of loop orders is one record()
 * call, charged against the step budget and updating the incumbent
 * like any other searcher's cost-function queries.
 *
 * Loop orders are handled at the leaves: only temporal loops with trip
 * count > 1 affect the model, and swapping *adjacent* loops whose
 * dimensions are relevant to exactly the same tensor set is bitwise
 * cost-neutral (both orders see identical prefix trip products). Each
 * leaf therefore enumerates only canonical per-level orders (every
 * adjacent same-class pair ascending by dimension index) — every full
 * permutation costs bitwise the same as its canonical form, so the
 * enumeration loses nothing. When the canonical product still exceeds
 * leafOrders, the surplus is left to the leaf's own lower bound.
 *
 * Expanding a node bounds all its children in one
 * BoundTables::childBounds() call, one double per child. A greedy dive
 * runs first, down the best-bounded child at every depth, to give the
 * queue an incumbent; it keeps each depth's child array. When the
 * best-first loop later expands a node whose choice prefix equals the
 * dive's path (the root always does), it reuses that array instead of
 * recomputing it. The open heap's storage is reserved once per run, at
 * most maxOpen nodes, so it never regrows.
 *
 * Certificates: every mapping in the space lies under an evaluated
 * leaf, a pruned node, a still-open node, or a truncation residual, so
 *
 *   certifiedEdp = min(best evaluated EDP, pruned bounds, open bounds,
 *                      residual bounds)
 *
 * is a valid lower bound on the achievable EDP no matter where the run
 * stopped; exact == true means the incumbent *is* that bound — a
 * certified optimum (tests verify it against brute-force enumeration).
 */
#pragma once

#include <optional>

#include "bound/bounds.hpp"
#include "search/search.hpp"

namespace mm {

/** Tuning knobs of one branch-and-bound run. */
struct BBOptions
{
    /** Nodes taken off the queue before giving up (budget may stop the
     * run earlier; the certificate stays valid either way). */
    int64_t maxNodes = 100000;
    /** Relative optimality gap: subtrees that cannot beat the incumbent
     * by more than this factor are pruned (0 = prove exact optimality). */
    double gap = 0.0;
    /** Most loop-order combinations evaluated per leaf; the surplus
     * falls back to the leaf's bound. */
    int64_t leafOrders = 1024;
    /** Open-queue cap; children beyond it feed the residual bound
     * instead of the queue (bounds memory, keeps certificates valid). */
    int64_t maxOpen = int64_t(1) << 18;
};

/** What a branch-and-bound run established. */
struct BBOutcome
{
    /** Best mapping this run evaluated (meaningful iff bestNormEdp is
     * finite; the space always has members, so a non-trivial node or
     * step budget makes it finite). */
    Mapping best;
    double bestNormEdp = std::numeric_limits<double>::infinity();
    /** Certified lower bound on the EDP of *any* valid mapping. */
    double certifiedEdp = 0.0;
    /** certifiedEdp over the algorithmic lower-bound EDP (the unit of
     * normalized results; >= 1 up to rounding). */
    double certifiedNormEdp = 0.0;
    /** True when best provably attains certifiedEdp (global optimum up
     * to the configured gap). */
    bool exact = false;
    int64_t nodesExpanded = 0;
    int64_t nodesPruned = 0;
    int64_t leavesEvaluated = 0;
};

/**
 * Run branch-and-bound against @p rec's budget/observer/stop contract.
 * Leaf evaluations charge the recorder exactly like any searcher's
 * step() calls; interior bound computations are free (they query no
 * cost function). @p tables must wrap @p model's map space.
 */
BBOutcome branchAndBound(const CostModel &model, const BoundTables &tables,
                         SearchRecorder &rec, const BBOptions &opt);

/**
 * Certificate convenience: an unbudgeted run of up to @p maxNodes
 * nodes. The result's certifiedNormEdp divides any method's normalized
 * EDP into an optimality gap; exact == true upgrades the certificate to
 * a proven optimum (fig5/fig6 report both).
 */
BBOutcome certifyOptimum(const CostModel &model, int64_t maxNodes,
                         double gap = 0.0);

/**
 * Cheap incumbent for seeding other searchers (their seedFrom=BB
 * option): a bound-guided run capped at @p seedNodes nodes, charged to
 * @p rec like the caller's own cost-function queries. Returns nullopt
 * when no leaf was reached within the caps.
 */
std::optional<Mapping> seedIncumbent(const CostModel &model,
                                     SearchRecorder &rec,
                                     int64_t seedNodes);

/** The registry's "BB" method (registered in bb_search.cpp). */
class BBSearcher : public Searcher
{
  public:
    BBSearcher(const CostModel &model, BBOptions opt,
               const TimingModel &timing);

    std::string name() const override { return "BB"; }
    SearchResult run(SearchContext &ctx) override;

  private:
    const CostModel *model;
    BBOptions opt;
    double stepLatency;
};

} // namespace mm
