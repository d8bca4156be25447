#include "core/phase1.hpp"

#include <iostream>

#include "common/clock.hpp"
#include "common/env.hpp"
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
    std::string probs;
    for (const Problem &p : r.data.problems)
        probs += join(p.bounds, "x") + ";";
    // fmt=5: the bounds engine tightened computeLowerBound, which moves
    // every normalized-EDP label and meta-stat normalization —
    // fmt=4-era datasets and surrogates are stale. (fmt=4: checksummed
    // envelope + windowed shuffle.)
    // streamDir/shardSize are deliberately absent: the streamed path is
    // bitwise identical to the in-RAM path, so both share one entry.
    return strCat("fmt=5|", algo.name, "|", arch.name, "|lin=", r.linear,
                  "|h=", join(r.hidden, "-"),
                  "|n=", r.data.samples, "|p=", r.data.problemCount,
                  "|probs=", probs, "|meta=", r.data.metaStatOutputs, "|elite=",
                  r.data.eliteFraction,
                  "|e=", r.train.epochs, "|b=", r.train.batchSize,
                  "|loss=", lossName(r.train.loss), "|lr=",
                  r.train.schedule.initial, "|win=", r.train.shuffleWindow,
                  "|seed=", r.seed, "|dseed=", r.data.seed);
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
    // One pool serves dataset labeling and the training GEMMs.
    ParallelContext par(cfg.threads <= 0 ? 0 : size_t(cfg.threads));
    size_t tensors = cfg.data.metaStatOutputs ? algo.tensorCount() : 0;

    if (!cfg.data.streamDir.empty()) {
        // Out-of-core Phase 1: labeled rows live in checksummed shards
        // on disk and mini-batches stream back through a bounded LRU.
        // Same seeds, same arithmetic, same batch order — the result
        // is bitwise identical to the in-RAM branch below.
        WallTimer dataTimer;
        StreamedDataset sd =
            generateDatasetStreamed(arch, algo, cfg.data, &par);
        double datasetSec = dataTimer.elapsedSec();

        Rng rng(cfg.seed);
        Mlp net(sd.featureCount,
                surrogateTopology(cfg.linear ? std::vector<size_t>{}
                                             : cfg.hidden,
                                  sd.outputCount),
                rng);

        WallTimer trainTimer;
        RegressionTrainer trainer(net, cfg.train, &par);
        ShardedDatasetReader reader(sd.dir);
        // A global shuffle (the bitwise-exact default) random-reads
        // the whole store every epoch; once the dataset outgrows the
        // reader's LRU the read amplification is ruinous. Keep the
        // default for exactness at small scale, but say so loudly —
        // at paper scale the windowed shuffle is the intended mode.
        if (cfg.train.shuffleWindow == 0
            && sd.shardCount > 2 * envSize("MM_SHARD_CACHE", 8)) {
            std::cerr
                << "[phase1] WARNING: streaming " << sd.shardCount
                << " shards with a global shuffle re-reads shards "
                   "heavily; set TrainConfig::shuffleWindow "
                   "(MM_SHUFFLE_WINDOW) to a few multiples of "
                   "shardSize for out-of-core-friendly I/O"
                << std::endl;
        }
        ShardBatchSource trainSrc(reader, 0, sd.trainRows);
        ShardBatchSource testSrc(reader, sd.trainRows, sd.testRows);
        auto history = trainer.fit(
            trainSrc, sd.testRows > 0 ? &testSrc : nullptr, rng, onEpoch);
        double trainSec = trainTimer.elapsedSec();

        return Phase1Result{Surrogate(std::move(net),
                                      FeatureTransform{sd.featureLogPrefix},
                                      std::move(sd.inputNorm),
                                      std::move(sd.outputNorm), tensors),
                            std::move(history), datasetSec, trainSec,
                            sd.reused};
    }

    WallTimer dataTimer;
    SurrogateDataset ds = generateDataset(arch, algo, cfg.data, &par);
    double datasetSec = dataTimer.elapsedSec();

    Rng rng(cfg.seed);
    Mlp net(ds.featureCount,
            surrogateTopology(cfg.linear ? std::vector<size_t>{}
                                         : cfg.hidden,
                              ds.outputCount),
            rng);

    WallTimer trainTimer;
    RegressionTrainer trainer(net, cfg.train, &par);
    auto history =
        trainer.fit(ds.xTrain, ds.yTrain, ds.xTest, ds.yTest, rng, onEpoch);
    double trainSec = trainTimer.elapsedSec();

    Phase1Result result{Surrogate(std::move(net),
                                  FeatureTransform{ds.featureLogPrefix},
                                  std::move(ds.inputNorm),
                                  std::move(ds.outputNorm), tensors),
                        std::move(history), datasetSec, trainSec};
    return result;
}

} // namespace mm
