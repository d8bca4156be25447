/**
 * @file
 * phase1_outofcore: cold, streamed Phase 1 for CNN-Layer.
 *
 * One job is the one-time cost a user amortises: label a dataset into
 * checksummed shards (25 % of samples elite best-of-8, so the cost
 * model is in the loop), train the Fast MLP over the shard store with a
 * windowed shuffle, then store the surrogate in the disk cache and load
 * it back. 13 shards exceed the reader's 8-shard decoded cache, so both
 * shard writes and evicting reads matter. Search, bound and serve stay
 * idle. Quality is the surrogate's EDP error on held-out mappings of the
 * Table-1 CNN problems, labeled by the cost model in set-up.
 */
#include <bit>
#include <cmath>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "common/parallel_context.hpp"
#include "common/string_util.hpp"
#include "core/cache.hpp"
#include "core/phase1.hpp"
#include "core/shard_store.hpp"
#include "costmodel/cost_model.hpp"

namespace mmbench {

using namespace mm;

namespace {

struct Phase1Scale
{
    size_t shardRows;
    size_t shards;
    int epochs;
    /** Held-out mappings per CNN target problem (set-up). */
    int heldOutPerProblem;
    /** Passes run at least; their surrogates are scored for quality. */
    int minRounds;
};

Phase1Scale
scaleFor(const Options &opt)
{
    if (opt.smoke)
        return {256, 13, 1, 64, 1};
    return {1024, 13, 3, 4096, 6};
}

constexpr double kEliteFraction = 0.25;
constexpr int kEliteCandidates = 8;
/** Shuffle window in shards (the out-of-core-friendly mode). */
constexpr size_t kWindowShards = 4;
/** Held-out rows per prediction batch; the first batch is also the
 * probe the reloaded surrogate must predict bitwise alike. */
constexpr size_t kBatchRows = 64;

/** Cost-model labels of the CNN target problems, scored by every pass. */
struct HeldOut
{
    std::vector<std::vector<double>> features; ///< raw codec features
    std::vector<double> normEdp;               ///< true normalized EDP
};

HeldOut
buildHeldOut(const AcceleratorSpec &arch, const std::vector<Problem> &probs,
             int perProblem, uint64_t seed)
{
    HeldOut h;
    Rng rng(seed);
    for (const Problem &p : probs) {
        MapSpace space(arch, p);
        CostModel model(space);
        MappingCodec codec(space);
        std::vector<Mapping> maps;
        for (int i = 0; i < perProblem; ++i)
            maps.push_back(space.randomValid(rng));
        std::vector<double> edp(maps.size());
        model.normalizedEdpBatch(maps, edp);
        for (size_t i = 0; i < maps.size(); ++i) {
            h.features.push_back(codec.encode(maps[i]));
            h.normEdp.push_back(edp[i]);
        }
    }
    return h;
}

/** Held-out rows [begin, begin + n) in @p s's normalized input space. */
Matrix
heldOutRows(const HeldOut &h, const Surrogate &s, size_t begin, size_t n)
{
    Matrix z(n, s.featureCount());
    for (size_t r = 0; r < n; ++r) {
        std::vector<double> zr = s.normalizeInput(h.features[begin + r]);
        for (size_t c = 0; c < zr.size(); ++c)
            z(r, c) = float(zr[c]);
    }
    return z;
}

/** A BatchSource that times (and traces) the gathers it forwards. */
class TimedSource final : public BatchSource
{
  public:
    TimedSource(BatchSource &inner, Tracer &tr) : src(inner), tracer(tr) {}

    size_t rows() const override { return src.rows(); }
    size_t xCols() const override { return src.xCols(); }
    size_t yCols() const override { return src.yCols(); }

    void
    gather(const std::vector<size_t> &idx, size_t begin, size_t n,
           Matrix &bx, Matrix &by, ParallelContext *par) override
    {
        auto span = tracer.span("shard_store.gather");
        const double t0 = nowSec();
        src.gather(idx, begin, n, bx, by, par);
        sec += nowSec() - t0;
        bytes += double(n * (src.xCols() + src.yCols()) * sizeof(float));
    }

    double sec = 0.0;
    double bytes = 0.0;

  private:
    BatchSource &src;
    Tracer &tracer;
};

double
directoryBytes(const std::string &dir)
{
    double total = 0.0;
    for (const auto &e : std::filesystem::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            total += double(e.file_size());
    return total;
}

/** Multiply-adds of one row through @p net's dense layers. */
double
macsPerRow(const Mlp &net)
{
    double macs = 0.0;
    for (size_t i = 0; i < net.layerCount(); ++i)
        macs += double(net.layer(i).inDim() * net.layer(i).outDim());
    return macs;
}

/** Layer timings and counts summed over passes; byte sizes are one
 * pass's. */
struct LayerTotals
{
    double datasetSec = 0.0, rows = 0.0, shardBytes = 0.0;
    double fitSec = 0.0, gatherSec = 0.0, gatherBytes = 0.0;
    double trainRows = 0.0, trainFlops = 0.0;
    double storeSec = 0.0, loadSec = 0.0, entryBytes = 0.0;
    double quarantined = 0.0, prefetched = 0.0, prefetchDropped = 0.0;
};

} // namespace

void
runPhase1OutOfCore(const Options &opt, Tracer &tr, Report &rep)
{
    const Phase1Scale sc = scaleFor(opt);
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    const std::vector<Problem> targets = table1Cnn();
    const size_t samples = sc.shardRows * sc.shards;

    LayerTotals lt;
    double testLoss = 0.0;
    std::optional<Surrogate> last;
    const double start = nowSec();
    for (int pass = 0;; ++pass) {
        const double passStart = nowSec();
        pinToQuickestCpus(opt.lanes);
        ParallelContext par(opt.lanes);
        // Set-up, before every pass so that setup_s is a median over the
        // whole run: the held-out scoring set.
        HeldOut heldOut;
        {
            auto span = tr.span("setup.heldout");
            takePeakRssMb();
            const double t0 = nowSec();
            heldOut = buildHeldOut(arch, targets, sc.heldOutPerProblem,
                                   deriveSeed(opt.seed, 0x4E1D));
            rep.setupSec.push_back(nowSec() - t0);
            rep.setupRssMb.push_back(takePeakRssMb());
        }
        rep.costEvals += double(heldOut.normEdp.size());

        const std::string passDir =
            strCat(opt.workDir, "/pass-", pass);
        DatasetConfig dc;
        dc.samples = samples;
        dc.eliteFraction = kEliteFraction;
        dc.eliteCandidates = kEliteCandidates;
        dc.seed = deriveSeed(opt.seed, 0xDA7A, uint64_t(pass));
        dc.streamDir = passDir + "/stream";
        dc.shardSize = sc.shardRows;
        TrainConfig tc;
        tc.epochs = sc.epochs;
        tc.batchSize = 128;
        tc.schedule = {1e-2, 0.25, 8};
        tc.momentum = 0.9;
        tc.shuffleWindow = kWindowShards * sc.shardRows;

        // The pass's parts, each timed from the end of the one before.
        std::map<std::string, std::vector<double>> &parts =
            rep.partSec["pass"];
        double partStart = nowSec();
        auto endPart = [&](const std::string &part) {
            const double now = nowSec();
            parts[part].push_back(now - partStart);
            partStart = now;
        };
        auto job = tr.span("job.phase1");

        double ts = nowSec();
        StreamedDataset sd = [&] {
            auto s = tr.span("dataset.generate");
            return generateDatasetStreamed(arch, cnnLayerAlgo(), dc, &par);
        }();
        lt.datasetSec += nowSec() - ts;
        endPart("dataset");
        lt.rows += double(samples);
        lt.shardBytes = directoryBytes(dc.streamDir);

        Rng rng(deriveSeed(opt.seed, 0x7EA1, uint64_t(pass)));
        Mlp net(sd.featureCount,
                surrogateTopology({64, 128, 128, 64}, sd.outputCount), rng);
        RegressionTrainer trainer(net, tc, &par);
        ShardedDatasetReader reader(sd.dir);
        ShardBatchSource trainShards(reader, 0, sd.trainRows);
        ShardBatchSource testShards(reader, sd.trainRows, sd.testRows);
        TimedSource trainSrc(trainShards, tr), testSrc(testShards, tr);
        std::vector<EpochReport> history;
        ts = nowSec();
        {
            auto fit = tr.span("nn.fit");
            std::optional<Tracer::Span> epoch(tr.span("nn.epoch"));
            history = trainer.fit(
                trainSrc, &testSrc, rng, [&](const EpochReport &e) {
                    epoch.reset();
                    endPart(strCat("epoch", e.epoch));
                    if (e.epoch + 1 < sc.epochs)
                        epoch.emplace(tr.span("nn.epoch"));
                });
        }
        lt.fitSec += nowSec() - ts;
        lt.gatherSec += trainSrc.sec + testSrc.sec;
        lt.gatherBytes += trainSrc.bytes + testSrc.bytes;
        lt.trainRows += double(sd.trainRows) * sc.epochs;
        // Forward + both backward GEMMs per training row, forward only
        // per test row.
        lt.trainFlops += macsPerRow(net) * sc.epochs
                         * (6.0 * double(sd.trainRows)
                            + 2.0 * double(sd.testRows));
        lt.quarantined += double(reader.quarantinedShards());
        lt.prefetched += double(reader.prefetchedShards());
        lt.prefetchDropped += double(reader.droppedPrefetches());

        Surrogate trained(std::move(net),
                          FeatureTransform{sd.featureLogPrefix},
                          std::move(sd.inputNorm), std::move(sd.outputNorm),
                          cnnLayerAlgo().tensorCount());
        SurrogateCache cache(passDir + "/cache", 0);
        const std::string key = strCat("phase1_outofcore-", opt.seed, "-",
                                       pass);
        ts = nowSec();
        {
            auto s = tr.span("cache.store");
            cache.store(key, trained);
        }
        lt.storeSec += nowSec() - ts;
        ts = nowSec();
        std::optional<Surrogate> loaded = [&] {
            auto s = tr.span("cache.load");
            return cache.load(key);
        }();
        lt.loadSec += nowSec() - ts;
        job.end();
        endPart("cache");
        rep.runRssMb.push_back(takePeakRssMb());
        lt.entryBytes = directoryBytes(passDir + "/cache");

        // Correctness gate of the pass.
        auto check = tr.span("check.phase1");
        std::string why;
        if (reader.quarantinedShards() != 0)
            why = strCat("pass ", pass, ": ", reader.quarantinedShards(),
                         " shards quarantined");
        const Matrix probe = heldOutRows(heldOut, trained, 0, kBatchRows);
        const std::vector<double> preds = trained.predictNormEdpBatch(probe);
        if (!loaded.has_value()) {
            why = strCat("pass ", pass, ": cache reload missed");
        } else {
            const std::vector<double> again =
                loaded->predictNormEdpBatch(probe);
            for (size_t i = 0; i < preds.size(); ++i)
                if (std::bit_cast<uint64_t>(preds[i])
                    != std::bit_cast<uint64_t>(again[i]))
                    why = strCat("pass ", pass, ": reloaded surrogate "
                                 "predicts row ", i, " differently");
        }
        rep.op(why.empty(), why);
        rep.costEvals += double(samples)
                         * (1.0 + kEliteFraction * kEliteCandidates);

        if (pass < sc.minRounds) {
            // How far the surrogate's EDP lies from the cost model's on
            // the target problems, as a factor >= 1.
            const size_t rows = heldOut.normEdp.size();
            for (size_t b = 0; b < rows; b += kBatchRows) {
                const std::vector<double> p = trained.predictNormEdpBatch(
                    heldOutRows(heldOut, trained, b,
                                std::min(kBatchRows, rows - b)));
                for (size_t i = 0; i < p.size(); ++i)
                    rep.quality.push_back(std::exp(
                        std::abs(std::log(p[i] / heldOut.normEdp[b + i]))));
            }
            testLoss += history.back().testLoss / sc.minRounds;
        }
        check.end();
        std::filesystem::remove_all(passDir);
        last.emplace(std::move(trained));
        if (roundsDone(opt, pass + 1, sc.minRounds, nowSec() - start,
                       nowSec() - passStart))
            break;
    }
    rep.jobsFromPartLatencies();
    rep.endSec = nowSec();
    if (!tr.enabled())
        return;
    runProbes(opt, targets, *last, true, rep);

    rep.set("dataset.rows_per_s", lt.rows / lt.datasetSec, "1/s");
    rep.set("dataset.evals_per_row", 1.0 + kEliteFraction * kEliteCandidates,
            "count");
    rep.set("dataset.rows", lt.rows, "count");
    rep.set("shard_store.bytes", lt.shardBytes, "B");
    rep.set("shard_store.gather_mb_per_s", lt.gatherBytes / lt.gatherSec / 1e6,
            "MB/s");
    rep.set("shard_store.gather_share_pct", 100.0 * lt.gatherSec / lt.fitSec,
            "%");
    rep.set("shard_store.quarantined", lt.quarantined, "count");
    rep.set("shard_store.prefetched", lt.prefetched, "count");
    rep.set("shard_store.prefetch_dropped", lt.prefetchDropped, "count");
    rep.set("nn.train_rows_per_s", lt.trainRows / lt.fitSec, "1/s");
    rep.set("nn.train_gflops",
            lt.trainFlops / (lt.fitSec - lt.gatherSec) / 1e9, "GFLOP/s");
    rep.set("nn.test_loss", testLoss, "huber");
    const double cachedBytes =
        lt.entryBytes * double(rep.partSec["pass"]["cache"].size());
    rep.set("cache.store_mb_per_s", cachedBytes / lt.storeSec / 1e6, "MB/s");
    rep.set("cache.load_mb_per_s", cachedBytes / lt.loadSec / 1e6, "MB/s");
    rep.set("cache.entry_bytes", lt.entryBytes, "B");
}

} // namespace mmbench
