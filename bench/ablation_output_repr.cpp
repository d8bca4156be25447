/**
 * @file
 * Section 4.1.3 ablation: meta-statistics vs direct-EDP output.
 *
 * The paper reports that predicting the rich meta-statistics vector and
 * deriving EDP from it yields a 32.8x lower mean-square error against
 * ground-truth EDP than a surrogate trained to emit EDP directly. This
 * bench trains both heads on identical data and compares (a) held-out
 * log-EDP MSE and (b) downstream Phase-2 search quality.
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
    banner("Ablation: meta-statistics output vs direct-EDP output",
           strCat("Sec. 4.1.3 (32.8x claim); runs=", env.runs));

    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem target =
        cnnProblem("ResNet_Conv_3", 16, 128, 128, 28, 28, 3, 3);
    MapSpace space(arch, target);
    CostModel model(space);
    MappingCodec codec(space);

    Table table({"output_repr", "outputs", "heldout_logEDP_MSE",
                 "search_normEDP"});
    auto budget = SearchBudget::bySteps(env.iters);
    double mseByMode[2] = {0.0, 0.0};

    int row = 0;
    for (bool meta : {true, false}) {
        Phase1Config cfg;
        cfg.resolve();
        cfg.data.samples = envSize("MM_TRAIN_SAMPLES", cfg.data.samples);
        cfg.train.epochs = int(envInt("MM_EPOCHS", 16));
        cfg.data.metaStatOutputs = meta;
        Phase1Result result = trainSurrogate(arch, cnnLayerAlgo(), cfg);
        std::cerr << "[ablation] trained "
                  << (meta ? "meta-stats" : "direct-EDP") << " head"
                  << std::endl;

        Rng rng(17);
        double mse = 0.0;
        const int n = 400;
        for (int i = 0; i < n; ++i) {
            Mapping m = space.randomValid(rng);
            auto z = result.surrogate.normalizeInput(codec.encode(m));
            double err = std::log(result.surrogate.predictNormEdp(z))
                         - std::log(model.normalizedEdp(m));
            mse += err * err / n;
        }
        mseByMode[row++] = mse;

        auto runs =
            runMethod("MM", model, &result.surrogate, budget, env, 13);
        table.addRow({meta ? "meta-stats (paper)" : "direct EDP",
                      strCat(result.surrogate.outputCount()),
                      fmtDouble(mse, 5),
                      fmtDouble(geomeanFinal(runs), 5)});
    }
    table.print(std::cout);

    Table summary({"metric", "value", "paper"});
    summary.addRow({"direct/meta EDP-MSE ratio",
                    fmtDouble(mseByMode[1] / mseByMode[0], 4),
                    "32.8x (meta better)"});
    std::cout << "\n";
    summary.print(std::cout);
    return 0;
}
