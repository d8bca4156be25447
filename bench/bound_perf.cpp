/**
 * @file
 * Branch-and-bound certification throughput (ISSUE 9).
 *
 * Runs certifyOptimum on a spread of problems — a map space small
 * enough to solve exactly, plus full-size CNN-Layer and MTTKRP shapes
 * where the node cap cuts the run short — and reports the node
 * expansion rate, prune rate, and time-to-certificate. Writes
 * BENCH_bound.json so the perf trajectory is tracked across PRs.
 *
 * Before anything is timed, BoundTables::childBounds() must match
 * bound() bit for bit on every tuple of every dimension of each
 * problem, over the empty assignment and random partial ones; a
 * mismatch aborts the run. child_bounds_per_s is childBounds()'s
 * throughput over those same calls.
 *
 * Knobs: MM_BB_NODES (node cap, default 2000).
 */
#include <bit>
#include <iostream>

#include "bench/bench_util.hpp"
#include "bound/bb_search.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"

namespace {

using namespace mm;

/** One childBounds() call: a base and the dimension it branches on. */
struct ChildCall
{
    PartialAssignment base;
    size_t dim;
};

/**
 * Per dimension: the empty base plus three random ones, where every
 * other dimension is fully fixed to a random catalog tuple (p = 1/2),
 * partly fixed to one (p = 1/4), or left free.
 */
std::vector<ChildCall>
childCalls(const BoundTables &tables, Rng &rng)
{
    const size_t rank = tables.space().rank();
    std::vector<ChildCall> calls;
    for (size_t d = 0; d < rank; ++d) {
        calls.push_back({PartialAssignment(rank), d});
        for (int b = 0; b < 3; ++b) {
            PartialAssignment pa(rank);
            for (size_t o = 0; o < rank; ++o) {
                const double u = rng.uniformReal();
                if (o == d || u >= 0.75)
                    continue;
                const auto &tup = rng.pick(tables.tuples(o));
                for (int s = 0; s < kFactorSlots; ++s)
                    if (u < 0.5 || rng.bernoulli(0.5))
                        pa.fix(o, FactorSlot(s), tup[size_t(s)]);
            }
            calls.push_back({pa, d});
        }
    }
    return calls;
}

/** Aborts unless every child bound equals bound() bit for bit. */
void
verifyChildBounds(const BoundTables &tables,
                  const std::vector<ChildCall> &calls, const std::string &name)
{
    std::vector<double> edps;
    for (const ChildCall &c : calls) {
        const auto &tup = tables.tuples(c.dim);
        edps.resize(tup.size());
        tables.childBounds(c.base, c.dim, tup, edps);
        for (size_t i = 0; i < tup.size(); ++i) {
            PartialAssignment child = c.base;
            child.fixDim(c.dim, tup[i]);
            MM_ASSERT(std::bit_cast<uint64_t>(edps[i])
                          == std::bit_cast<uint64_t>(
                              tables.bound(child).edp()),
                      strCat("childBounds/bound mismatch on ", name,
                             " dim ", c.dim, " tuple ", i));
        }
    }
}

/** childBounds() children per second over @p calls (>= 0.2 s timed). */
double
childBoundsPerSec(const BoundTables &tables,
                  const std::vector<ChildCall> &calls)
{
    std::vector<double> edps;
    double children = 0.0;
    WallTimer timer;
    do {
        for (const ChildCall &c : calls) {
            const auto &tup = tables.tuples(c.dim);
            edps.resize(tup.size());
            tables.childBounds(c.base, c.dim, tup, edps);
            children += double(tup.size());
        }
    } while (timer.elapsedSec() < 0.2);
    return children / timer.elapsedSec();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mm;
    using namespace mm::bench;

    if (handleBenchArgs(argc, argv))
        return 0;

    BenchEnv env;
    banner("Bound engine: branch-and-bound certification throughput",
           strCat("ISSUE 9; nodes<=", env.bbNodes, " per problem"));

    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    std::vector<Problem> problems = {
        makeProblem(conv1dAlgo(), "conv1d_tiny", {16, 4}),
        cnnProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3),
        mttkrpProblem("MTTKRP_small", 128, 256, 512, 128),
    };

    // Correctness gate: the batched child bounds replay bound() bitwise
    // on every problem before anything is timed.
    std::vector<double> childRates;
    for (const Problem &p : problems) {
        MapSpace space(arch, p);
        BoundTables tables(space);
        Rng rng(11);
        const std::vector<ChildCall> calls = childCalls(tables, rng);
        verifyChildBounds(tables, calls, p.name);
        childRates.push_back(childBoundsPerSec(tables, calls));
    }

    Table table({"problem", "certNormEDP", "bestNormEDP", "exact",
                 "nodes", "pruned", "prune_rate", "leaves", "sec",
                 "child_bounds_per_s"});
    JsonArray perProblem;
    for (size_t pi = 0; pi < problems.size(); ++pi) {
        const Problem &p = problems[pi];
        MapSpace space(arch, p);
        CostModel model(space);

        WallTimer timer;
        const BBOutcome out = certifyOptimum(model, env.bbNodes);
        const double sec = timer.elapsedSec();

        const double visited = double(out.nodesExpanded + out.nodesPruned);
        const double pruneRate =
            visited > 0.0 ? double(out.nodesPruned) / visited : 0.0;
        table.addRow({p.name, fmtDouble(out.certifiedNormEdp, 5),
                      fmtDouble(out.bestNormEdp, 5),
                      out.exact ? "yes" : "no",
                      strCat(out.nodesExpanded), strCat(out.nodesPruned),
                      fmtDouble(pruneRate, 4),
                      strCat(out.leavesEvaluated), fmtDouble(sec, 4),
                      fmtDouble(childRates[pi], 4)});
        std::cerr << "[bound] " << p.name << " certified >= "
                  << fmtDouble(out.certifiedNormEdp, 5) << " in "
                  << fmtDouble(sec, 4) << " s"
                  << (out.exact ? " (exact optimum)" : "") << std::endl;

        JsonObject po;
        po.set("problem", p.name)
            .set("certified_norm_edp", out.certifiedNormEdp)
            .set("best_norm_edp", out.bestNormEdp)
            .set("exact", int64_t(out.exact))
            .set("nodes_expanded", out.nodesExpanded)
            .set("nodes_pruned", out.nodesPruned)
            .set("prune_rate", pruneRate)
            .set("leaves_evaluated", out.leavesEvaluated)
            .set("time_to_certificate_sec", sec)
            .set("child_bounds_per_s", childRates[pi]);
        perProblem.add(po);
    }
    table.print(std::cout);

    JsonObject json = benchJsonHeader("bound", env);
    json.set("bb_nodes", env.bbNodes);
    json.setRaw("problems", perProblem.str());
    writeBenchJson("bound", json);
    return 0;
}
