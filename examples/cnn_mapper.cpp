/**
 * @file
 * Map every Table 1 CNN layer with one shared surrogate.
 *
 * Demonstrates the paper's deployment model (Section 4): Phase 1 runs
 * once per algorithm, offline; Phase 2 then maps each new layer shape in
 * ~1000 surrogate steps. Compares Mind Mappings against simulated
 * annealing at the same query budget and prints the best loop nest for
 * the layer that improved the most.
 *
 * First run trains the shared surrogate (~2 minutes); later runs load it
 * from ./mm_cache. Knobs: MM_ITERS, MM_TRAIN_SAMPLES, MM_EPOCHS.
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
    MindMappings mapper(arch, cnnLayerAlgo(), opts);
    std::cout << "Phase 1: preparing the CNN-Layer surrogate ..."
              << std::endl;
    bool cached = mapper.prepare();
    std::cout << (cached ? "  loaded from cache\n" : "  trained\n");

    const int64_t iters = envInt("MM_ITERS", 1000);
    auto budget = SearchBudget::bySteps(iters);
    Table table({"layer", "MM_normEDP", "SA_normEDP", "MM/SA advantage"});

    std::string bestName;
    double bestRatio = 0.0;
    Mapping bestMapping;
    for (const Problem &p : table1Cnn()) {
        Rng rng(7);
        SearchResult found = mapper.search(p, budget, rng);

        MapSpace space(arch, p);
        CostModel model(space);
        // The registry is the same construction path the benches use;
        // any "SA:opt=value,..." spec works here.
        SearcherBuildContext sctx{model};
        auto sa = SearcherRegistry::instance().make("SA", sctx);
        Rng saRng(7);
        SearchResult annealed = sa->run(budget, saRng);

        double ratio = annealed.bestNormEdp / found.bestNormEdp;
        table.addRow({p.name, fmtDouble(found.bestNormEdp, 5),
                      fmtDouble(annealed.bestNormEdp, 5),
                      fmtDouble(ratio, 4) + "x"});
        if (ratio > bestRatio) {
            bestRatio = ratio;
            bestName = p.name;
            bestMapping = found.best;
        }
    }
    std::cout << "\nnormalized EDP after " << iters
              << " cost-function queries (1.0 = algorithmic minimum):\n";
    table.print(std::cout);

    Problem showcase = [&] {
        for (const Problem &p : table1Cnn())
            if (p.name == bestName)
                return p;
        return table1Cnn().front();
    }();
    MapSpace space(arch, showcase);
    std::cout << "\nbest Mind Mappings result on " << bestName << ":\n"
              << renderMapping(space, bestMapping) << std::endl;
    return 0;
}
