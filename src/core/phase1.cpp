#include "core/phase1.hpp"

#include <iostream>

#include "common/clock.hpp"
#include "common/string_util.hpp"
#include "core/shard_store.hpp"
#include "costmodel/cost_model.hpp"

namespace mm {

void
Phase1Config::resolve()
{
    if (resolved)
        return;
    resolved = true;
    switch (preset) {
      case SurrogatePreset::Fast:
        if (hidden.empty() && !linear)
            hidden = {64, 128, 128, 64};
        if (train.epochs == kUnsetEpochs)
            train.epochs = 24;
        if (data.samples == kUnsetSamples)
            data.samples = 150000;
        train.batchSize = 128;
        train.schedule = {1e-2, 0.25, 8};
        break;
      case SurrogatePreset::Paper:
        if (hidden.empty() && !linear)
            hidden = {64, 256, 1024, 2048, 2048, 1024, 256, 64};
        if (train.epochs == kUnsetEpochs)
            train.epochs = 100;
        train.batchSize = 128;
        train.schedule = {1e-2, 0.1, 25};
        if (data.samples == kUnsetSamples)
            data.samples = 10'000'000;
        break;
    }
    train.momentum = 0.9;
}

std::string
Phase1Config::fingerprint(const AcceleratorSpec &arch,
                          const AlgorithmSpec &algo) const
{
    Phase1Config r = *this;
    r.resolve();
    // fmt=6: doubles are written exactly, and the test split, elite
    // candidates and Huber delta joined the key — fmt=5 keys could name
    // a surrogate trained on a different config. (fmt=5: tightened
    // lower bounds moved every label.)
    // streamDir/shardSize are deliberately absent: where the shards
    // live does not change the rows, so both share one entry.
    return strCat("fmt=6|", datasetIdentity(arch, algo, r.data),
                  "|lin=", r.linear, "|h=", join(r.hidden, "-"),
                  "|e=", r.train.epochs, "|b=", r.train.batchSize,
                  "|loss=", lossName(r.train.loss),
                  "|huber=", exactDouble(r.train.huberDelta),
                  "|lr=", exactDouble(r.train.schedule.initial),
                  "|win=", r.train.shuffleWindow, "|seed=", r.seed);
}

std::vector<LayerSpec>
surrogateTopology(const std::vector<size_t> &hidden, size_t outputDim)
{
    // An empty hidden list yields a purely linear surrogate — the
    // "simpler differentiable model" the paper defers to future work
    // (Section 4.1); see bench/ablation_surrogate_capacity.
    std::vector<LayerSpec> specs;
    for (size_t width : hidden)
        specs.push_back({width, Activation::ReLU});
    specs.push_back({outputDim, Activation::Identity});
    return specs;
}

Phase1Result
trainSurrogate(const AcceleratorSpec &arch, const AlgorithmSpec &algo,
               Phase1Config cfg,
               const std::function<void(const EpochReport &)> &onEpoch)
{
    cfg.resolve();
    // One pool serves dataset labeling and training.
    ParallelContext par(cfg.threads <= 0 ? 0 : size_t(cfg.threads));
    size_t tensors = cfg.data.metaStatOutputs ? algo.tensorCount() : 0;

    WallTimer dataTimer;
    StreamedDataset sd = generateDatasetStreamed(arch, algo, cfg.data, &par);
    double datasetSec = dataTimer.elapsedSec();

    Rng rng(cfg.seed);
    Mlp net(sd.featureCount,
            surrogateTopology(cfg.linear ? std::vector<size_t>{} : cfg.hidden,
                              sd.outputCount),
            rng);

    WallTimer trainTimer;
    RegressionTrainer trainer(net, cfg.train, &par);
    std::unique_ptr<ShardedDatasetReader> reader = sd.open();
    // A global shuffle (the bitwise-exact default) random-reads the
    // whole dataset every epoch; once an on-disk store outgrows the
    // reader's cache the read amplification is ruinous. Keep the
    // default for exactness at small scale, but say so loudly — at
    // paper scale the windowed shuffle is the intended mode.
    if (cfg.train.shuffleWindow == 0
        && sd.shardCount > 2 * reader->cacheShards()) {
        std::cerr << "[phase1] WARNING: streaming " << sd.shardCount
                  << " shards with a global shuffle re-reads shards "
                     "heavily; set TrainConfig::shuffleWindow "
                     "(MM_SHUFFLE_WINDOW) to a few multiples of "
                     "shardSize for out-of-core-friendly I/O"
                  << std::endl;
    }
    ShardBatchSource trainSrc(*reader, 0, sd.trainRows);
    ShardBatchSource testSrc(*reader, sd.trainRows, sd.testRows);
    auto history = trainer.fit(trainSrc, sd.testRows > 0 ? &testSrc : nullptr,
                               rng, onEpoch);
    double trainSec = trainTimer.elapsedSec();

    return Phase1Result{Surrogate(std::move(net),
                                  FeatureTransform{sd.featureLogPrefix},
                                  std::move(sd.inputNorm),
                                  std::move(sd.outputNorm), tensors),
                        std::move(history), datasetSec, trainSec, sd.reused};
}

} // namespace mm
