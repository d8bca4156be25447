/**
 * @file
 * Map the MTTKRP tensor-algebra kernel (Equation 4).
 *
 * Shows that the framework is target-domain independent (the paper's
 * first contribution): the exact same library code that mapped CNN
 * layers maps a sparse-algebra building block, with one surrogate
 * shared by both Table 1 MTTKRP shapes — including the transposed
 * "tall-and-skinny" variant, which the surrogate never saw in training.
 * Compares against the genetic-algorithm baseline at equal query budget.
 */
#include <iostream>

#include "common/env.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/mind_mappings.hpp"
#include "mapping/printer.hpp"
#include "search/registry.hpp"

int
main()
{
    using namespace mm;

    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    MindMappingsOptions opts;
    opts.phase1.data.samples =
        envSize("MM_TRAIN_SAMPLES", Phase1Config::kUnsetSamples);
    opts.phase1.train.epochs =
        int(envInt("MM_EPOCHS", Phase1Config::kUnsetEpochs));
    MindMappings mapper(arch, mttkrpAlgo(), opts);
    std::cout << "Phase 1: preparing the MTTKRP surrogate ..." << std::endl;
    bool cached = mapper.prepare();
    std::cout << (cached ? "  loaded from cache\n" : "  trained\n");

    const int64_t iters = envInt("MM_ITERS", 1000);
    auto budget = SearchBudget::bySteps(iters);
    Table table({"problem", "MM_normEDP", "GA_normEDP", "MM/GA advantage",
                 "MM PEs used"});

    for (const Problem &p : table1Mttkrp()) {
        Rng rng(11);
        SearchResult found = mapper.search(p, budget, rng);

        MapSpace space(arch, p);
        CostModel model(space);
        SearcherBuildContext sctx{model};
        auto ga = SearcherRegistry::instance().make("GA", sctx);
        Rng gaRng(11);
        SearchResult evolved = ga->run(budget, gaRng);

        table.addRow({p.name, fmtDouble(found.bestNormEdp, 5),
                      fmtDouble(evolved.bestNormEdp, 5),
                      fmtDouble(evolved.bestNormEdp / found.bestNormEdp, 4)
                          + "x",
                      strCat(found.best.usedPes(), "/", arch.numPes)});

        std::cout << "\n" << p.name << " ("
                  << join(p.bounds, "x") << "):\n"
                  << renderMappingCompact(space, found.best) << "\n";
    }
    std::cout << "\nnormalized EDP after " << iters
              << " cost-function queries (1.0 = algorithmic minimum):\n";
    table.print(std::cout);
    return 0;
}
