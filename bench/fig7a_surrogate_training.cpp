/**
 * @file
 * Figure 7a: surrogate training and test loss over epochs.
 *
 * Trains the CNN-Layer surrogate from scratch (cache bypassed) and
 * prints the per-epoch Huber loss on the train and held-out splits.
 * The paper's observations to reproduce: the test curve tracks the
 * train curve (no overfitting) and the loss flattens well before the
 * final epoch (paper: ~60 of 100 epochs; scaled here).
 */
#include <algorithm>
#include <iostream>
#include <thread>

#include "bench/bench_util.hpp"

int
main()
{
    using namespace mm;
    using namespace mm::bench;

    BenchEnv env;
    MindMappingsOptions opts = benchOptions(env);
    banner("Figure 7a: surrogate train/test loss per epoch",
           strCat("Fig. 7a + Sec. 5.5; samples=", opts.phase1.data.samples,
                  " epochs=", opts.phase1.train.epochs));

    Table table({"epoch", "lr", "train_loss", "test_loss"});
    Phase1Result result = trainSurrogate(
        AcceleratorSpec::paperDefault(), cnnLayerAlgo(), opts.phase1,
        [&](const EpochReport &r) {
            table.addRow({strCat(r.epoch), fmtDouble(r.lr, 4),
                          fmtDouble(r.trainLoss, 5),
                          fmtDouble(r.testLoss, 5)});
            std::cerr << "[fig7a] epoch " << r.epoch << " train "
                      << fmtDouble(r.trainLoss, 4) << " test "
                      << fmtDouble(r.testLoss, 4) << std::endl;
        });
    table.print(std::cout);

    const auto &hist = result.history;
    double first = hist.front().trainLoss;
    double last = hist.back().trainLoss;
    double mid = hist[hist.size() * 6 / 10].trainLoss;
    Table summary({"observation", "value", "paper"});
    summary.addRow({"train-loss reduction (first/last)",
                    fmtDouble(first / last, 4), ">1 (converges)"});
    summary.addRow(
        {"test/train gap at end",
         fmtDouble(hist.back().testLoss / hist.back().trainLoss, 4),
         "~1 (no overfit)"});
    summary.addRow({"loss at 60% epochs vs final", fmtDouble(mid / last, 4),
                    "~1 (converged by ~60%)"});
    summary.addRow({"dataset generation time (s)",
                    fmtDouble(result.datasetSec, 4), "-"});
    summary.addRow({"training time (s)", fmtDouble(result.trainSec, 4),
                    "-"});
    std::cout << "\n";
    summary.print(std::cout);

    // Training lanes as Phase1Config::threads resolves them, and the
    // training rows under the dataset's split rule (the last
    // floor(samples * testFraction) rows are the test split).
    const DatasetConfig &data = opts.phase1.data;
    size_t lanes = size_t(std::max(0, opts.phase1.threads));
    if (lanes == 0)
        lanes = std::max(1u, std::thread::hardware_concurrency());
    const size_t trainRows =
        data.samples - size_t(double(data.samples) * data.testFraction);

    JsonObject json = benchJsonHeader("fig7a_surrogate_training", env);
    json.set("samples", int64_t(data.samples))
        .set("epochs", int64_t(hist.size()))
        .set("lanes", int64_t(lanes))
        .set("dataset_sec", result.datasetSec)
        .set("train_sec", result.trainSec)
        .set("train_rows_per_s",
             double(trainRows) * double(hist.size()) / result.trainSec)
        .set("sec_per_epoch", result.trainSec / double(hist.size()))
        .set("final_train_loss", last)
        .set("final_test_loss", hist.back().testLoss);
    writeBenchJson("fig7a_surrogate_training", json);
    return 0;
}
