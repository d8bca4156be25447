#include "bound/bb_search.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.hpp"
#include "search/registry.hpp"

namespace mm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One open subtree: dimensions branchOrder[0..depth) fixed to the
 * tuple indices in its choice slot (BBRun::choices), everything else
 * free. */
struct Node
{
    double bound = 0.0;
    uint64_t seq = 0;
    uint32_t depth = 0;
    uint32_t slot = 0;
};

/** Min-bound first; deeper then older nodes win ties, so the queue
 * plunges toward leaves instead of hovering at one frontier. */
struct WorseThan
{
    bool
    operator()(const Node &a, const Node &b) const
    {
        if (a.bound != b.bound)
            return a.bound > b.bound;
        if (a.depth != b.depth)
            return a.depth < b.depth;
        return a.seq > b.seq;
    }
};

class BBRun
{
  public:
    BBRun(const CostModel &model_, const BoundTables &tables_,
          SearchRecorder &rec_, const BBOptions &opt_)
        : model(&model_), tables(&tables_), rec(&rec_), opt(opt_),
          rank(model_.space().rank()), lbEdp(model_.lowerBound().edp())
    {
        MM_ASSERT(&tables_.space() == &model_.space(),
                  "bound tables wrap a different map space");
        branchOrder.resize(rank);
        for (size_t d = 0; d < rank; ++d)
            branchOrder[d] = d;
        // Cheap decisions near the root: ascending tuple count.
        std::sort(branchOrder.begin(), branchOrder.end(),
                  [&](size_t a, size_t b) {
                      const size_t ca = tables_.tuples(a).size();
                      const size_t cb = tables_.tuples(b).size();
                      return ca != cb ? ca < cb : a < b;
                  });
        diveEdps.resize(rank);
        // One allocation for the open heap: it never holds more than
        // maxOpen nodes, nor more than the root plus every child of
        // maxNodes expansions.
        const int64_t widest =
            int64_t(tables_.tuples(branchOrder.back()).size());
        const int64_t reachable =
            opt.maxNodes > (opt.maxOpen - 1) / widest
                ? opt.maxOpen
                : 1 + opt.maxNodes * widest;
        const size_t capacity =
            size_t(std::max<int64_t>(1, std::min(opt.maxOpen, reachable)));
        std::vector<Node> heap;
        heap.reserve(capacity);
        open = decltype(open)(WorseThan{}, std::move(heap));
        choices.reserve((capacity + 1) * rank);
        // Relevance class per dimension: dims with identical classes
        // are interchangeable under *adjacent* loop swaps.
        classOf.assign(rank, 0);
        const AlgorithmSpec &algo = *model_.space().problem().algo;
        for (size_t d = 0; d < rank; ++d)
            for (size_t t = 0; t < algo.tensorCount(); ++t)
                if (algo.tensors[t].usesDim(int(d)))
                    classOf[d] |= uint32_t(1) << t;
    }

    BBOutcome
    run()
    {
        dive();
        loop();
        return finishOutcome();
    }

  private:
    /** Incumbent in absolute EDP (the recorder may carry a better best
     * from the caller — pruning against it is equally sound). */
    double
    incumbentEdp() const
    {
        return std::min(myBestNorm, rec->bestNormEdp()) * lbEdp;
    }

    const uint32_t *
    choiceOf(const Node &n) const
    {
        return choices.data() + size_t(n.slot) * rank;
    }

    /** A slot for a new node: a released one, or rank more indices. */
    uint32_t
    newSlot()
    {
        if (!freeSlots.empty()) {
            const uint32_t s = freeSlots.back();
            freeSlots.pop_back();
            return s;
        }
        choices.resize(choices.size() + rank);
        return uint32_t(choices.size() / rank - 1);
    }

    PartialAssignment
    assignmentOf(const Node &n) const
    {
        PartialAssignment pa(rank);
        for (uint32_t k = 0; k < n.depth; ++k) {
            const size_t d = branchOrder[k];
            pa.fixDim(d, tables->tuples(d)[choiceOf(n)[k]]);
        }
        return pa;
    }

    /**
     * Greedy bound-guided descent to one complete factorization. Gives
     * the main loop an incumbent to prune against from node one; the
     * best-first queue alone would evaluate nothing until it first
     * reaches depth == rank. Each depth's child bounds stay in
     * diveEdps for the loop's expansion of the same node.
     */
    void
    dive()
    {
        PartialAssignment pa(rank);
        double bestB = kInf;
        for (size_t k = 0; k < rank; ++k) {
            if (rec->exhausted() || nodesExpanded >= opt.maxNodes)
                return;
            ++nodesExpanded;
            const size_t d = branchOrder[k];
            const auto &tup = tables->tuples(d);
            std::vector<double> &edps = diveEdps[k];
            edps.resize(tup.size());
            tables->childBounds(pa, d, tup, edps);
            diveDepth = k + 1;
            bestB = kInf;
            uint32_t bestI = 0;
            for (uint32_t i = 0; i < edps.size(); ++i) {
                if (edps[i] < bestB) {
                    bestB = edps[i];
                    bestI = i;
                }
            }
            if (bestB == kInf)
                return; // no feasible child
            pa.fixDim(d, tup[bestI]);
            divePath[k] = bestI;
        }
        evaluateLeaf(divePath.data(), bestB); // bestB is bound(pa)
    }

    void
    loop()
    {
        const PartialBound rootB = tables->bound(PartialAssignment(rank));
        if (!rootB.feasible)
            return; // empty map space; MapSpace construction forbids it
        Node root;
        root.bound = rootB.edp();
        root.slot = newSlot();
        open.push(root);
        while (!open.empty() && nodesExpanded < opt.maxNodes
               && !rec->exhausted()) {
            const Node n = open.top();
            open.pop();
            // Re-check against the (possibly improved) incumbent.
            if (n.bound * (1.0 + opt.gap) >= incumbentEdp()) {
                ++nodesPruned;
                prunedMin = std::min(prunedMin, n.bound);
            } else if (size_t(n.depth) == rank) {
                ++nodesExpanded;
                evaluateLeaf(choiceOf(n), n.bound);
            } else {
                expand(n);
            }
            freeSlots.push_back(n.slot);
        }
    }

    void
    expand(const Node &n)
    {
        ++nodesExpanded;
        const size_t d = branchOrder[n.depth];
        const auto &tup = tables->tuples(d);
        // A node on the dive's path has its child bounds already.
        const std::vector<double> *edps = &childEdps;
        if (n.depth < diveDepth
            && std::equal(choiceOf(n), choiceOf(n) + n.depth,
                          divePath.begin())) {
            edps = &diveEdps[n.depth];
        } else {
            childEdps.resize(tup.size());
            tables->childBounds(assignmentOf(n), d, tup, childEdps);
        }
        for (uint32_t i = 0; i < tup.size(); ++i) {
            // Infeasible children read +inf: pruned, prunedMin unmoved.
            const double b = (*edps)[i];
            if (b * (1.0 + opt.gap) >= incumbentEdp()) {
                ++nodesPruned;
                prunedMin = std::min(prunedMin, b);
                continue;
            }
            const uint64_t seq = ++seqCounter;
            if (int64_t(open.size()) >= opt.maxOpen) {
                residualMin = std::min(residualMin, b);
                continue;
            }
            Node child;
            child.bound = b;
            child.seq = seq;
            child.depth = n.depth + 1;
            child.slot = newSlot();
            uint32_t *c = choices.data() + size_t(child.slot) * rank;
            std::copy_n(choiceOf(n), n.depth, c);
            c[n.depth] = i;
            open.push(child);
        }
    }

    /**
     * Canonical orders of @p active (generation stops one past @p cap
     * so the caller can detect truncation), each completed into a full
     * permutation by appending the inactive dimensions.
     */
    std::vector<std::vector<int>>
    canonicalOrders(const std::vector<int> &active, int64_t cap) const
    {
        std::vector<std::vector<int>> out;
        std::vector<int> cur;
        std::vector<char> used(active.size(), 0);
        canonicalRec(active, used, cur, cap + 1, out);
        for (auto &ord : out) {
            std::vector<char> inOrd(rank, 0);
            for (int d : ord)
                inOrd[size_t(d)] = 1;
            for (size_t d = 0; d < rank; ++d)
                if (!inOrd[d])
                    ord.push_back(int(d));
        }
        return out;
    }

    void
    canonicalRec(const std::vector<int> &active, std::vector<char> &used,
                 std::vector<int> &cur, int64_t cap,
                 std::vector<std::vector<int>> &out) const
    {
        if (int64_t(out.size()) >= cap)
            return;
        if (cur.size() == active.size()) {
            out.push_back(cur);
            return;
        }
        for (size_t i = 0; i < active.size(); ++i) {
            if (used[i])
                continue;
            // Adjacent same-class loops commute bitwise; keep only the
            // ascending representative of each such pair.
            if (!cur.empty()
                && classOf[size_t(cur.back())] == classOf[size_t(active[i])]
                && active[i] < cur.back())
                continue;
            used[i] = 1;
            cur.push_back(active[i]);
            canonicalRec(active, used, cur, cap, out);
            cur.pop_back();
            used[i] = 0;
        }
    }

    /** Evaluates the leaf that fixes dimension branchOrder[k] to tuple
     * choice[k] for every k; @p bound is its bound EDP. */
    void
    evaluateLeaf(const uint32_t *choice, double bound)
    {
        Mapping base;
        base.spatial.assign(rank, 1);
        for (auto &t : base.tiling)
            t.assign(rank, 1);
        for (size_t k = 0; k < rank; ++k) {
            const size_t d = branchOrder[k];
            const auto &f = tables->tuples(d)[choice[k]];
            base.tiling[size_t(MemLevel::L1)][d] = f[size_t(FactorSlot::L1)];
            base.spatial[d] = f[size_t(FactorSlot::Spatial)];
            base.tiling[size_t(MemLevel::L2)][d] = f[size_t(FactorSlot::L2)];
            base.tiling[size_t(MemLevel::DRAM)][d] =
                f[size_t(FactorSlot::DRAM)];
        }
        if (!tables->assignMinimalBanks(base))
            return; // bound() already proved this cannot happen

        // Canonical per-level orders of the trip > 1 loops (order of
        // trip == 1 loops never reaches the flattened nest).
        std::array<std::vector<std::vector<int>>, kNumMemLevels> orders;
        for (size_t lvl = 0; lvl < kNumMemLevels; ++lvl) {
            std::vector<int> active;
            for (size_t d = 0; d < rank; ++d)
                if (base.tiling[lvl][d] > 1)
                    active.push_back(int(d));
            orders[lvl] = canonicalOrders(active, opt.leafOrders);
        }

        bool truncated = false;
        leafMaps.clear();
        for (size_t i0 = 0; i0 < orders[0].size() && !truncated; ++i0) {
            for (size_t i1 = 0; i1 < orders[1].size() && !truncated; ++i1) {
                for (size_t i2 = 0; i2 < orders[2].size(); ++i2) {
                    if (int64_t(leafMaps.size()) >= opt.leafOrders) {
                        truncated = true;
                        break;
                    }
                    Mapping m = base;
                    m.loopOrder[0] = orders[0][i0];
                    m.loopOrder[1] = orders[1][i1];
                    m.loopOrder[2] = orders[2][i2];
                    leafMaps.push_back(std::move(m));
                }
            }
        }

        leafPtrs.clear();
        for (const Mapping &m : leafMaps)
            leafPtrs.push_back(&m);
        norms.resize(leafMaps.size());
        const size_t used = rec->record(leafPtrs, norms);
        // Orders past leafOrders or past the budget stay unevaluated;
        // the leaf's own bound covers them.
        if (truncated || used < leafMaps.size())
            residualMin = std::min(residualMin, bound);
        leavesEvaluated += int64_t(used);
        for (size_t i = 0; i < used; ++i) {
            if (norms[i] < myBestNorm) {
                myBestNorm = norms[i];
                myBest = leafMaps[i];
            }
        }
    }

    BBOutcome
    finishOutcome()
    {
        BBOutcome out;
        out.nodesExpanded = nodesExpanded;
        out.nodesPruned = nodesPruned;
        out.leavesEvaluated = leavesEvaluated;
        out.bestNormEdp = myBestNorm;
        const double bestEdp =
            std::isfinite(myBestNorm) ? myBestNorm * lbEdp : kInf;
        if (std::isfinite(myBestNorm))
            out.best = myBest;
        // Every mapping sits under an evaluated leaf, a pruned node, a
        // still-open node, or a truncation residual.
        const double openMin = open.empty() ? kInf : open.top().bound;
        out.certifiedEdp =
            std::min(std::min(bestEdp, prunedMin),
                     std::min(openMin, residualMin));
        out.certifiedNormEdp =
            lbEdp > 0.0 ? out.certifiedEdp / lbEdp : out.certifiedEdp;
        out.exact =
            std::isfinite(bestEdp) && out.certifiedEdp == bestEdp;
        return out;
    }

    const CostModel *model;
    const BoundTables *tables;
    SearchRecorder *rec;
    BBOptions opt;
    size_t rank;
    double lbEdp;

    std::vector<size_t> branchOrder;
    std::vector<uint32_t> classOf;
    std::priority_queue<Node, std::vector<Node>, WorseThan> open;
    /** Open nodes' tuple indices, rank per slot: node n fixes dimension
     * branchOrder[k] to tuple choices[n.slot * rank + k] for k < depth.
     * A popped node's slot is reused, so an open node costs 24 bytes
     * plus 4 per dimension, and at most maxOpen + 1 slots exist. */
    std::vector<uint32_t> choices;
    std::vector<uint32_t> freeSlots;
    /** The dive's choices, and its child bounds at depths below
     * diveDepth: diveEdps[k] bounds the children of divePath[0..k). */
    std::array<uint32_t, kMaxCostRank> divePath{};
    std::vector<std::vector<double>> diveEdps;
    size_t diveDepth = 0;
    /** Child bounds of the node being expanded off the dive's path. */
    std::vector<double> childEdps;
    uint64_t seqCounter = 0;

    int64_t nodesExpanded = 0;
    int64_t nodesPruned = 0;
    int64_t leavesEvaluated = 0;
    double prunedMin = kInf;
    double residualMin = kInf;
    double myBestNorm = kInf;
    Mapping myBest;

    // Reused leaf-evaluation scratch.
    std::vector<Mapping> leafMaps;
    std::vector<const Mapping *> leafPtrs;
    std::vector<double> norms;
};

} // namespace

BBOutcome
branchAndBound(const CostModel &model, const BoundTables &tables,
               SearchRecorder &rec, const BBOptions &opt)
{
    BBRun run(model, tables, rec, opt);
    return run.run();
}

BBOutcome
certifyOptimum(const CostModel &model, int64_t maxNodes, double gap)
{
    SearchRecorder rec(model, SearchBudget{},
                       TimingModel::paperCalibrated().randomStepSec);
    BoundTables tables(model.space());
    BBOptions opt;
    opt.maxNodes = maxNodes;
    opt.gap = gap;
    return branchAndBound(model, tables, rec, opt);
}

std::optional<Mapping>
seedIncumbent(const CostModel &model, SearchRecorder &rec,
              int64_t seedNodes)
{
    BoundTables tables(model.space());
    BBOptions opt;
    opt.maxNodes = seedNodes;
    // Seeding wants a good factorization fast, not an order sweep.
    opt.leafOrders = 64;
    BBOutcome out = branchAndBound(model, tables, rec, opt);
    if (!std::isfinite(out.bestNormEdp))
        return std::nullopt;
    return std::move(out.best);
}

BBSearcher::BBSearcher(const CostModel &model_, BBOptions opt_,
                       const TimingModel &timing)
    : model(&model_), opt(opt_), stepLatency(timing.randomStepSec)
{}

SearchResult
BBSearcher::run(SearchContext &ctx)
{
    SearchRecorder rec(*model, ctx, stepLatency);
    BoundTables tables(model->space());
    branchAndBound(*model, tables, rec, opt);
    return rec.finish(name());
}

namespace {
const SearcherRegistrar registrar({
    "BB",
    "best-first branch-and-bound with analytic partial-assignment "
    "bounds; prunes to a certified (optionally exact) optimum",
    /*needsSurrogate=*/false,
    {
        {"maxNodes", "nodes expanded before giving up"},
        {"gap", "relative optimality gap pruning tolerates (0 = exact)"},
        {"leafOrders", "loop-order combinations evaluated per leaf"},
    },
    [](const SearcherBuildContext &ctx, SearcherOptions &opt) {
        BBOptions cfg;
        cfg.maxNodes = opt.getInt("maxNodes", cfg.maxNodes);
        cfg.gap = opt.getDouble("gap", cfg.gap);
        cfg.leafOrders = opt.getInt("leafOrders", cfg.leafOrders);
        if (cfg.maxNodes < 1)
            fatal("searcher 'BB': maxNodes must be >= 1");
        if (cfg.gap < 0.0)
            fatal("searcher 'BB': gap must be >= 0");
        if (cfg.leafOrders < 1)
            fatal("searcher 'BB': leafOrders must be >= 1");
        return std::make_unique<BBSearcher>(ctx.model, cfg, ctx.timing);
    },
});
} // namespace

namespace detail {
extern const int boundSearcherRegistered;
const int boundSearcherRegistered = 1;
} // namespace detail

} // namespace mm
