/**
 * @file
 * Phase 1: train the differentiable surrogate (Section 4.1, 5.5).
 *
 * Two presets are provided:
 *  - `Paper`: the paper's exact recipe — 9-layer MLP
 *    [64,256,1024,2048,2048,1024,256,64] + output head, 100 epochs,
 *    SGD momentum 0.9, lr 1e-2 decayed x0.1 every 25 epochs, batch 128,
 *    Huber loss, 10 M samples.
 *  - `Fast`: a narrower network and smaller dataset with the same
 *    structure, sized so the full pipeline runs on one CPU core in
 *    seconds-to-minutes (see DESIGN.md "Substitutions"). All reproduced
 *    claims are relative, so they survive this scaling; every knob is
 *    overridable to run at paper scale.
 */
#pragma once

#include "core/dataset.hpp"
#include "core/surrogate.hpp"
#include "nn/trainer.hpp"

namespace mm {

/** Training-scale presets. */
enum class SurrogatePreset { Fast, Paper };

/** Full Phase-1 configuration (resolve() fills preset defaults). */
struct Phase1Config
{
    /** data.samples / train.epochs value meaning "the preset's". */
    static constexpr size_t kUnsetSamples = 0;
    static constexpr int kUnsetEpochs = 0;

    /** Starts with samples and epochs unset; resolve() keeps any other
     * value as given. */
    Phase1Config()
    {
        data.samples = kUnsetSamples;
        train.epochs = kUnsetEpochs;
    }

    SurrogatePreset preset = SurrogatePreset::Fast;
    DatasetConfig data;
    TrainConfig train;
    /** Hidden-layer widths; empty selects the preset topology. */
    std::vector<size_t> hidden;
    /**
     * Train a purely linear surrogate instead of an MLP — the "simpler
     * differentiable model" question the paper leaves open
     * (Section 4.1). Still differentiable, so Phase 2 works unchanged.
     */
    bool linear = false;
    /**
     * Execution lanes shared by dataset labeling, batch gathers and
     * the row-split training step (0 = hardware concurrency). Results
     * are bitwise identical at any value, so this is excluded from the
     * cache fingerprint.
     */
    int threads = 1;
    uint64_t seed = 1;
    bool resolved = false;

    /** Fill unset fields from the preset; idempotent. */
    void resolve();

    /** Stable identity string for caching. */
    std::string fingerprint(const AcceleratorSpec &arch,
                            const AlgorithmSpec &algo) const;
};

/** Phase-1 output: the surrogate plus its training curve. */
struct Phase1Result
{
    Surrogate surrogate;
    std::vector<EpochReport> history;
    double datasetSec = 0.0;
    double trainSec = 0.0;
    /** On-disk datasets only: a committed store was reused as-is, so
     * datasetSec timed a manifest validation, not generation. */
    bool datasetReused = false;
};

/** Build the MLP layer specs for the given hidden widths and head. */
std::vector<LayerSpec> surrogateTopology(const std::vector<size_t> &hidden,
                                         size_t outputDim);

/**
 * Run Phase 1 end to end: generate the dataset (resident, or on disk
 * when cfg.data.streamDir is set), train on it through a
 * ShardBatchSource, wrap the result as a Surrogate. The result is
 * bitwise the same wherever the shards live and at any lane count.
 */
Phase1Result trainSurrogate(const AcceleratorSpec &arch,
                            const AlgorithmSpec &algo, Phase1Config cfg,
                            const std::function<void(const EpochReport &)>
                                &onEpoch = {});

} // namespace mm
