/**
 * @file
 * Figure 7c: sensitivity to training-set size.
 *
 * Trains surrogates on a geometric sweep of dataset sizes (the paper
 * sweeps 1M/2M/5M/10M; we sweep a scaled-down ladder, overridable via
 * MM_SIZES) and compares downstream Phase-2 search quality. The
 * paper's finding to reproduce: quality saturates beyond a moderate
 * dataset size, and even the smallest set is not catastrophic.
 *
 * Streamed mode: set MM_STREAM_DIR to run every Phase 1 out-of-core
 * (one shard subdirectory per size). This is the path that reaches the
 * paper's 1M–10M sizes on a laptop: peak RSS stays O(shard) instead of
 * O(samples) — e.g. `MM_SIZES=1000000 MM_STREAM_DIR=/tmp/mm_stream
 * MM_SHUFFLE_WINDOW=262144 ./fig7c_dataset_size` labels and trains on
 * 1M samples that a resident run would have to hold in memory as
 * dense shards. The peak_rss_mb_cum
 * column makes the difference measurable (run one size per invocation
 * for exact attribution — the OS metric is a process-lifetime
 * high-water mark); the dataset bytes are reported so the two can be
 * compared directly.
 */
#include <iostream>

#include "bench/bench_util.hpp"

int
main()
{
    using namespace mm;
    using namespace mm::bench;

    BenchEnv env;
    banner("Figure 7c: search quality vs surrogate training-set size",
           strCat("Fig. 7c + Sec. 5.5; runs=", env.runs,
                  env.streamDir.empty() ? "" : "; streamed Phase 1"));

    std::vector<size_t> sizes =
        envSizeList("MM_SIZES", {3000, 10000, 30000, 60000});

    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem target =
        cnnProblem("Inception_Conv_2", 32, 192, 192, 56, 56, 3, 3);
    MapSpace space(arch, target);
    CostModel model(space);

    // ru_maxrss is a process-lifetime high-water mark: it never goes
    // back down, so per-size attribution is only exact for the first
    // (or a single) size — hence the _cum suffix. RSS comparisons
    // between resident and streamed mode should use one size per run.
    //
    // Wall-clock columns: gen_s is labeling + shard I/O of the store
    // actually trained on (the streamed path commits shards on a
    // double-buffered writer thread), train_s the epochs.
    Table table({"train_samples", "dataset_mb", "final_test_loss",
                 "search_normEDP", "gen_s", "train_s", "peak_rss_mb_cum"});
    auto budget = SearchBudget::bySteps(env.iters);
    const size_t prefetch = envSize("MM_PREFETCH_SHARDS", 0);
    JsonArray points;

    for (size_t samples : sizes) {
        Phase1Config cfg;
        cfg.resolve();
        cfg.data.samples = samples;
        cfg.data.shardSize = envSize("MM_SHARD_ROWS", cfg.data.shardSize);
        cfg.train.shuffleWindow = envSize("MM_SHUFFLE_WINDOW", 0);
        if (!env.streamDir.empty())
            cfg.data.streamDir = strCat(env.streamDir, "/size-", samples);
        cfg.threads = env.trainThreads;

        Phase1Result result = trainSurrogate(arch, cnnLayerAlgo(), cfg);

        std::cerr << "[fig7c] trained on " << samples << " samples ("
                  << (cfg.data.streamDir.empty() ? "resident" : "streamed")
                  << ", gen " << fmtDouble(result.datasetSec, 3)
                  << " s, peak RSS " << fmtDouble(peakRssMb(), 4)
                  << " MB)" << std::endl;

        auto runs =
            runMethod("MM", model, &result.surrogate, budget, env, 11);
        // Bytes a resident run holds for (X, Y).
        double datasetMb =
            double(samples)
            * double(result.surrogate.featureCount()
                     + result.surrogate.outputCount())
            * sizeof(float) / (1024.0 * 1024.0);
        double rssMb = peakRssMb();
        table.addRow({strCat(samples), fmtDouble(datasetMb, 4),
                      fmtDouble(result.history.back().testLoss, 5),
                      fmtDouble(geomeanFinal(runs), 5),
                      fmtDouble(result.datasetSec, 4),
                      fmtDouble(result.trainSec, 4),
                      fmtDouble(rssMb, 4)});
        JsonObject point;
        point.set("train_samples", int64_t(samples))
            .set("dataset_mb", datasetMb)
            .set("streamed", env.streamDir.empty() ? 0 : 1)
            .set("final_test_loss", result.history.back().testLoss)
            .set("search_normEDP", geomeanFinal(runs))
            .set("gen_wall_s", result.datasetSec)
            .set("train_wall_s", result.trainSec)
            .set("peak_rss_mb_cum", rssMb);
        points.add(point);
    }
    table.print(std::cout);
    std::cout << "\nPaper finding (Fig. 7c): beyond a moderate dataset "
                 "size, search quality\nsaturates; small datasets degrade "
                 "gracefully rather than catastrophically.\n";

    JsonObject out = benchJsonHeader("fig7c", env);
    out.set("stream_dir", env.streamDir)
        .set("prefetch_shards", int64_t(prefetch))
        .set("shard_cache", int64_t(defaultShardCacheShards()));
    out.setRaw("points", points.str());
    writeBenchJson("fig7c", out);
    return 0;
}
