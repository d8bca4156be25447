#include "core/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/string_util.hpp"
#include "core/feature_transform.hpp"
#include "core/shard_store.hpp"
#include "costmodel/cost_model.hpp"

namespace mm {

namespace {

/** Everything needed to sample and label mappings of one problem. */
struct ProblemContext
{
    Problem problem;
    MapSpace space;
    CostModel model;
    MappingCodec codec;

    ProblemContext(const AcceleratorSpec &arch, Problem p)
        : problem(std::move(p)), space(arch, problem), model(space),
          codec(space)
    {}
};

/** Reused per-sample scratch of the elite best-of-k draw. */
struct EliteScratch
{
    std::vector<Mapping> candidates;
    std::vector<const Mapping *> mapPtrs;
    std::vector<double> edps;
};

thread_local EliteScratch tlsElite;

thread_local std::vector<double> tlsStats;

thread_local std::vector<double> tlsFeatures;

/**
 * The labeling core: the problem pool plus the blocked
 * sample/evaluate/write pipeline. Each sample is labeled from a seed
 * forked in global sample order, which is what makes the rows
 * independent of the lane count, the block size and the shard size.
 *
 * Labeling one block runs in three phases:
 *   A. sampleRow() per row (parallel): replay the per-sample RNG
 *      stream — context pick, base draw, optional elite best-of-k —
 *      and encode the features.
 *   B. One CostModel::evaluateBatch per distinct problem context over
 *      the block's rows for that context (pointer-gathered, row
 *      order), instead of one scalar evaluate per row.
 *   C. writeTargets() per row (parallel): meta-stats, lower-bound
 *      normalization, log conditioning.
 * Per-sample evaluation is deterministic and batch results are bitwise
 * identical to scalar evaluation, so the pipeline produces the exact
 * bytes of a per-sample label() loop.
 */
struct DatasetBuilder
{
    std::vector<std::unique_ptr<ProblemContext>> pool;
    FeatureTransform transform{0};
    size_t features = 0;
    size_t outputs = 0;
    size_t tensors = 0;
    const DatasetConfig &cfg;

    DatasetBuilder(const AcceleratorSpec &arch, const AlgorithmSpec &algo,
                   const DatasetConfig &cfg_, Rng &rng)
        : cfg(cfg_)
    {
        MM_ASSERT(cfg.samples >= 10, "dataset too small");
        MM_ASSERT(cfg.testFraction >= 0.0 && cfg.testFraction < 1.0,
                  "bad test fraction");
        MM_ASSERT(cfg.eliteFraction >= 0.0 && cfg.eliteFraction <= 1.0,
                  "elite fraction out of range");
        MM_ASSERT(cfg.labelBlock >= 1, "labelBlock must be >= 1");
        if (!cfg.problems.empty()) {
            for (const Problem &p : cfg.problems) {
                MM_ASSERT(p.algo == &algo, "problem/algorithm mismatch");
                pool.push_back(std::make_unique<ProblemContext>(arch, p));
            }
        } else {
            for (size_t i = 0; i < cfg.problemCount; ++i)
                pool.push_back(std::make_unique<ProblemContext>(
                    arch, sampleRepresentativeProblem(algo, rng)));
        }
        features = pool.front()->codec.featureCount();
        tensors = algo.tensorCount();
        outputs = cfg.metaStatOutputs ? CostResult::metaStatCount(tensors)
                                      : 1;
        transform = FeatureTransform{pool.front()->codec.orderOffset()};
    }

    /** Reused cross-phase storage of one labeling block. */
    struct LabelScratch
    {
        std::vector<Mapping> maps;
        std::vector<uint32_t> ctxOf;
        std::vector<CostResult> results;
        std::vector<const Mapping *> mapPtrs;
        std::vector<CostResult *> resPtrs;
    };

    /** Phase A: replay one sample's forked RNG stream — context pick,
     * base draw, elite best-of-k — and encode its features.
     * Thread-safe: the pool's entry points are all const. */
    void
    sampleRow(uint64_t seed, std::span<float> xRow, Mapping &m,
              uint32_t &ctxIdx) const
    {
        Rng srng(seed);
        ctxIdx = uint32_t(srng.uniformInt(0, int64_t(pool.size()) - 1));
        const ProblemContext &ctx = *pool[ctxIdx];
        ctx.space.randomValidInto(srng, m);
        if (cfg.eliteFraction > 0.0 && srng.bernoulli(cfg.eliteFraction)) {
            // Best-of-k draw: biases coverage toward the low-EDP tail.
            // Candidates are drawn up front (evaluation consumes no
            // RNG, so the stream matches the historical interleaved
            // loop), scored in one edpBatch, and reduced by the same
            // strict-< running argmin the sequential comparisons ran.
            EliteScratch &es = tlsElite;
            es.candidates.resize(
                size_t(std::max(cfg.eliteCandidates - 1, 0)));
            for (Mapping &cand : es.candidates)
                ctx.space.randomValidInto(srng, cand);
            es.mapPtrs.clear();
            es.mapPtrs.push_back(&m);
            for (const Mapping &cand : es.candidates)
                es.mapPtrs.push_back(&cand);
            es.edps.resize(es.mapPtrs.size());
            ctx.model.edpBatch(
                std::span<const Mapping *const>(es.mapPtrs),
                std::span<double>(es.edps));
            size_t best = 0;
            for (size_t c = 1; c < es.edps.size(); ++c)
                if (es.edps[c] < es.edps[best])
                    best = c;
            if (best > 0)
                std::swap(m, es.candidates[best - 1]);
        }
        std::vector<double> &feat = tlsFeatures;
        feat.resize(features);
        ctx.codec.encodeInto(m, feat);
        transform.apply(feat);
        for (size_t c = 0; c < features; ++c)
            xRow[c] = float(feat[c]);
    }

    /** Phase C: one row's targets from its evaluated result. */
    void
    writeTargets(uint32_t ctxIdx, const CostResult &res,
                 std::span<float> yRow) const
    {
        const LowerBound &lb = pool[ctxIdx]->model.lowerBound();
        if (cfg.metaStatOutputs) {
            std::vector<double> &stats = tlsStats;
            res.metaStats(stats);
            normalizeMetaStatsByBound(stats, tensors, lb.energyPj,
                                      lb.cycles);
            logTransformOutputs(stats);
            for (size_t c = 0; c < outputs; ++c)
                yRow[c] = float(stats[c]);
        } else {
            yRow[0] = float(std::log(res.edp() / lb.edp()));
        }
    }

    /** Label rows [rowBase, rowBase + seeds.size()) of @p x / @p y. */
    void
    labelBlock(std::span<const uint64_t> seeds, Matrix &x, Matrix &y,
               size_t rowBase, ParallelContext *par,
               LabelScratch &scratch) const
    {
        const size_t n = seeds.size();
        scratch.maps.resize(n);
        scratch.ctxOf.resize(n);
        scratch.results.resize(n);

        auto sample = [&](size_t i) {
            sampleRow(seeds[i], x.row(rowBase + i), scratch.maps[i],
                      scratch.ctxOf[i]);
        };
        if (par != nullptr)
            par->parallelFor(n, sample);
        else
            for (size_t i = 0; i < n; ++i)
                sample(i);

        // One batch per problem context, rows gathered in order.
        for (uint32_t c = 0; c < uint32_t(pool.size()); ++c) {
            scratch.mapPtrs.clear();
            scratch.resPtrs.clear();
            for (size_t i = 0; i < n; ++i) {
                if (scratch.ctxOf[i] == c) {
                    scratch.mapPtrs.push_back(&scratch.maps[i]);
                    scratch.resPtrs.push_back(&scratch.results[i]);
                }
            }
            if (scratch.mapPtrs.empty())
                continue;
            pool[c]->model.evaluateBatch(
                std::span<const Mapping *const>(scratch.mapPtrs),
                std::span<CostResult *const>(scratch.resPtrs), par);
        }

        auto targets = [&](size_t i) {
            writeTargets(scratch.ctxOf[i], scratch.results[i],
                         y.row(rowBase + i));
        };
        if (par != nullptr)
            par->parallelFor(n, targets);
        else
            for (size_t i = 0; i < n; ++i)
                targets(i);
    }
};

/** Train/test split sizes for @p cfg. */
void
splitRows(const DatasetConfig &cfg, size_t &trainRows, size_t &testRows)
{
    testRows = size_t(double(cfg.samples) * cfg.testFraction);
    trainRows = cfg.samples - testRows;
    MM_ASSERT(trainRows > 0, "empty training split");
}

/** Hash of the rows @p cfg generates, stamped on every shard and the
 * manifest: shards from a different config never validate, so stale
 * stream directories are regenerated instead of silently reused. */
uint64_t
datasetConfigHash(const AcceleratorSpec &arch, const AlgorithmSpec &algo,
                  const DatasetConfig &cfg)
{
    return fnv1a64(strCat("ds|", datasetIdentity(arch, algo, cfg),
                          "|shard=", cfg.shardSize));
}

} // namespace

void
normalizeMetaStatsByBound(std::vector<double> &stats, size_t tensorCount,
                          double lbEnergyPj, double lbCycles)
{
    const size_t energyTerms = tensorCount * size_t(kNumMemLevels);
    MM_ASSERT(stats.size() == energyTerms + 3, "meta-stat arity mismatch");
    for (size_t i = 0; i < energyTerms; ++i)
        stats[i] /= lbEnergyPj;
    stats[energyTerms] /= lbEnergyPj;     // total energy
    /* stats[energyTerms + 1] : utilization stays unnormalized */
    stats[energyTerms + 2] /= lbCycles;   // total cycles
}

std::string
datasetIdentity(const AcceleratorSpec &arch, const AlgorithmSpec &algo,
                const DatasetConfig &cfg)
{
    std::string probs;
    for (const Problem &p : cfg.problems)
        probs += join(p.bounds, "x") + ";";
    return strCat(arch.name, "|", algo.name, "|n=", cfg.samples,
                  "|tf=", exactDouble(cfg.testFraction),
                  "|pc=", cfg.problemCount, "|probs=", probs,
                  "|meta=", cfg.metaStatOutputs,
                  "|elite=", exactDouble(cfg.eliteFraction),
                  "|ec=", cfg.eliteCandidates, "|seed=", cfg.seed);
}

std::unique_ptr<ShardedDatasetReader>
StreamedDataset::open() const
{
    if (!dir.empty())
        return std::make_unique<ShardedDatasetReader>(dir);
    ShardManifest m;
    m.layout.rows = trainRows + testRows;
    m.layout.features = featureCount;
    m.layout.outputs = outputCount;
    m.layout.shardSize = shardSize;
    m.layout.shardCount = shardCount;
    m.layout.trainRows = trainRows;
    m.layout.testRows = testRows;
    m.layout.featureLogPrefix = featureLogPrefix;
    m.inputNorm = inputNorm;
    m.outputNorm = outputNorm;
    return std::make_unique<ShardedDatasetReader>(std::move(m), shards);
}

StreamedDataset
generateDatasetStreamed(const AcceleratorSpec &arch,
                        const AlgorithmSpec &algo, const DatasetConfig &cfg,
                        ParallelContext *par)
{
    MM_ASSERT(cfg.shardSize > 0, "shard size must be positive");
    const bool resident = cfg.streamDir.empty();

    size_t trainRows = 0, testRows = 0;
    splitRows(cfg, trainRows, testRows);
    const uint64_t configHash = datasetConfigHash(arch, algo, cfg);

    auto asResult = [&](const ShardManifest &m, bool reused) {
        StreamedDataset sd;
        sd.dir = cfg.streamDir;
        sd.inputNorm = m.inputNorm;
        sd.outputNorm = m.outputNorm;
        sd.featureCount = size_t(m.layout.features);
        sd.outputCount = size_t(m.layout.outputs);
        sd.featureLogPrefix = size_t(m.layout.featureLogPrefix);
        sd.trainRows = size_t(m.layout.trainRows);
        sd.testRows = size_t(m.layout.testRows);
        sd.shardSize = size_t(m.layout.shardSize);
        sd.shardCount = size_t(m.layout.shardCount);
        sd.reused = reused;
        return sd;
    };

    // Reuse-on-restart fast path: a committed store for this exact
    // config is the dataset (generation is deterministic). Every shard
    // must still be present AND claim this config in its header (a
    // cheap peek, no checksum pass) — a store with deleted or foreign
    // shards falls through and regenerates just the bad ones.
    if (auto m = resident ? std::nullopt
                          : ShardedDatasetReader::tryReadManifest(
                                cfg.streamDir)) {
        bool complete = m->layout.configHash == configHash;
        for (size_t s = 0; complete && s < size_t(m->layout.shardCount);
             ++s)
            complete = peekShardConfigHash(cfg.streamDir, s) == configHash;
        if (complete)
            return asResult(*m, true);
        // Different config or incomplete store: drop the manifest
        // FIRST (it is the commit point — leaving it while shards are
        // rewritten would let a crashed regeneration masquerade as a
        // committed store for the old config), then fall through and
        // regenerate; shards that don't validate against this config
        // hash are rewritten, valid ones are kept.
        std::error_code ec;
        std::filesystem::remove(manifestPath(cfg.streamDir), ec);
    }

    Rng rng(cfg.seed);
    DatasetBuilder builder(arch, algo, cfg, rng);
    // Snapshot the RNG right after builder construction: shard s's
    // sample seeds are forkSeed() draws [s*shardSize, ...) from this
    // state, so a corrupt shard can be re-derived later — O(1) memory,
    // a forkSeed replay per skipped row — without keeping every seed.
    const Rng rngAfterBuild = rng;

    ShardLayout layout;
    layout.rows = cfg.samples;
    layout.features = builder.features;
    layout.outputs = builder.outputs;
    layout.shardSize = cfg.shardSize;
    layout.shardCount = (cfg.samples + cfg.shardSize - 1) / cfg.shardSize;
    layout.trainRows = trainRows;
    layout.testRows = testRows;
    layout.featureLogPrefix = builder.transform.logPrefix;
    layout.configHash = configHash;
    const size_t shardCount = size_t(layout.shardCount);
    std::optional<ShardStoreWriter> writer;
    if (!resident)
        writer.emplace(cfg.streamDir, layout);

    using DecodedShard = ShardedDatasetReader::DecodedShard;
    DatasetBuilder::LabelScratch labelScratch;
    auto labelShard = [&](std::span<const uint64_t> seeds,
                          DecodedShard &out) {
        out.x.ensureShape(seeds.size(), builder.features);
        out.y.ensureShape(seeds.size(), builder.outputs);
        for (size_t start = 0; start < seeds.size();
             start += cfg.labelBlock) {
            const size_t len = std::min(cfg.labelBlock, seeds.size() - start);
            builder.labelBlock(seeds.subspan(start, len), out.x, out.y,
                               start, par, labelScratch);
        }
    };

    // Label one shard's worth of samples at a time, forking seeds in
    // global sample order. A resident shard is kept as labeled. An
    // on-disk shard is a restart point: an async commit writes shard N
    // while the lanes label shard N+1 into the other of two buffers, so
    // serializing and checksumming ride under the cost-model
    // evaluations and peak memory is two shards. At most one commit is
    // in flight and each is joined before the next starts, so shards
    // land in order (a crash loses at most the in-flight shard, which a
    // rerun relabels) and a commit's typed error rethrows at get().
    // The future is declared after writer and the buffers: its
    // destructor blocks, so an unwinding exception waits for the
    // in-flight commit before they die.
    std::vector<ShardedDatasetReader::ShardPtr> shards(resident ? shardCount
                                                                : 0);
    std::shared_ptr<DecodedShard> writeBuf[2];
    std::vector<uint64_t> seeds;
    std::future<void> commit;
    size_t cur = 0;
    for (size_t s = 0; s < shardCount; ++s) {
        const size_t count = size_t(layout.shardRows(s));
        if (writer && writer->shardValid(s)) {
            // Resume: the shard is already on disk; keep the RNG
            // stream aligned with the samples it covers.
            for (size_t i = 0; i < count; ++i)
                rng.forkSeed();
            continue;
        }
        seeds.clear();
        for (size_t i = 0; i < count; ++i)
            seeds.push_back(rng.forkSeed());
        if (resident) {
            auto shard = std::make_shared<DecodedShard>();
            labelShard(seeds, *shard);
            shards[s] = std::move(shard);
            continue;
        }
        // Buffer cur's last commit was joined before the pending one
        // started, so it is free to relabel.
        std::shared_ptr<DecodedShard> &buf = writeBuf[cur];
        if (!buf)
            buf = std::make_shared<DecodedShard>();
        labelShard(seeds, *buf);
        if (commit.valid())
            commit.get();
        commit = std::async(std::launch::async,
                            [&w = *writer, s, b = buf.get()] {
                                w.writeShard(s, b->x, b->y);
                            });
        cur ^= 1;
    }
    if (commit.valid())
        commit.get();

    // Verified (and self-healing) read-back of on-disk shard @p s:
    // transient I/O faults retry with backoff; provably-bad bytes (short
    // read, checksum mismatch — e.g. an injected bit flip) are
    // quarantined and the shard is relabeled from the post-build RNG
    // snapshot and rewritten in place, capped so persistent corruption
    // (a dying disk) still surfaces as a typed error. Relabeling is
    // deterministic, so the rewritten bytes equal the lost ones.
    const RetryPolicy readBackPolicy = RetryPolicy::fromEnv();
    auto readShardHealed = [&](size_t s) {
        auto shard = std::make_shared<DecodedShard>();
        for (int heals = 0;; ++heals) {
            try {
                retryTransient(readBackPolicy, [&] {
                    ShardReadError err;
                    if (!readShardFile(cfg.streamDir, s, layout, shard->x,
                                       shard->y, &err))
                        throwShardReadError(cfg.streamDir, s, err);
                });
                return shard;
            } catch (const CorruptionError &e) {
                if (e.kind() == CorruptionError::Kind::BadHeader
                    || heals >= 2)
                    throw;
                quarantineShard(cfg.streamDir, s);
            }
            Rng replay = rngAfterBuild;
            for (size_t i = 0; i < s * cfg.shardSize; ++i)
                replay.forkSeed();
            seeds.clear();
            for (size_t i = 0; i < size_t(layout.shardRows(s)); ++i)
                seeds.push_back(replay.forkSeed());
            labelShard(seeds, *shard);
            writer->writeShard(s, shard->x, shard->y);
        }
    };

    // One streaming-moments pass over the training rows, in row order.
    // On disk, every shard — train or test — goes through the verified
    // read-back first: the manifest must never commit a store with a
    // corrupt shard anywhere.
    StreamingNormalizerFit xFit(builder.features);
    StreamingNormalizerFit yFit(builder.outputs);
    for (size_t s = 0; s < shardCount; ++s) {
        const ShardedDatasetReader::ShardPtr shard =
            resident ? shards[s] : readShardHealed(s);
        const size_t shardBegin = s * cfg.shardSize;
        for (size_t r = 0; r < shard->x.rows() && shardBegin + r < trainRows;
             ++r) {
            xFit.pushRow(shard->x.row(r));
            yFit.pushRow(shard->y.row(r));
        }
    }

    ShardManifest manifest;
    manifest.layout = layout;
    manifest.inputNorm = xFit.finish();
    manifest.outputNorm = yFit.finish();
    if (writer)
        writer->commit(manifest.inputNorm, manifest.outputNorm);
    StreamedDataset sd = asResult(manifest, false);
    sd.shards = std::move(shards);
    return sd;
}

} // namespace mm
