/**
 * @file
 * Figure 7b: choosing the surrogate's loss function.
 *
 * Trains three surrogates identical except for the training loss
 * (Huber / MSE / MAE) and compares (a) held-out regression quality and
 * (b) downstream Phase-2 search quality on a CNN problem. The paper's
 * finding to reproduce: Huber is the best of the three — MSE is
 * destabilized by outliers, MAE under-penalizes small errors.
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
    banner("Figure 7b: surrogate loss-function comparison",
           strCat("Fig. 7b + Sec. 5.5; runs=", env.runs));

    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem target =
        cnnProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3);
    MapSpace space(arch, target);
    CostModel model(space);
    MappingCodec codec(space);

    Table table({"loss", "final_test_loss", "heldout_logEDP_MSE",
                 "search_normEDP"});
    auto budget = SearchBudget::bySteps(env.iters);

    for (const std::string lossName : {"huber", "mse", "mae"}) {
        Phase1Config cfg;
        cfg.resolve();
        cfg.data.samples =
            envSize("MM_TRAIN_SAMPLES", cfg.data.samples);
        cfg.train.epochs = int(envInt("MM_EPOCHS", 16));
        cfg.train.loss = lossFromName(lossName);
        Phase1Result result = trainSurrogate(arch, cnnLayerAlgo(), cfg);
        std::cerr << "[fig7b] trained with " << lossName << std::endl;

        // Held-out fidelity against ground-truth log EDP.
        Rng rng(31);
        double mse = 0.0;
        const int n = 400;
        for (int i = 0; i < n; ++i) {
            Mapping m = space.randomValid(rng);
            auto z = result.surrogate.normalizeInput(codec.encode(m));
            double err = std::log(result.surrogate.predictNormEdp(z))
                         - std::log(model.normalizedEdp(m));
            mse += err * err / n;
        }

        // Downstream search quality.
        auto runs =
            runMethod("MM", model, &result.surrogate, budget, env, 7);

        table.addRow(
            {lossName,
             fmtDouble(result.history.back().testLoss, 5),
             fmtDouble(mse, 5), fmtDouble(geomeanFinal(runs), 5)});
    }
    table.print(std::cout);
    std::cout << "\nPaper finding (Fig. 7b): Huber trains the most useful "
                 "surrogate; MSE chases\noutliers, MAE under-penalizes "
                 "small errors.\n";
    return 0;
}
