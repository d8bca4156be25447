/**
 * @file
 * Durability suite for the out-of-core Phase-1 storage layer
 * (core/shard_store.hpp) and the sharded surrogate cache
 * (core/cache.hpp): on-disk format round-trips, corruption rejection,
 * on-disk ≡ resident bitwise equivalence, crash recovery, and
 * concurrent cache access.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/error.hpp"
#include "common/mapped_file.hpp"
#include "common/parallel_context.hpp"
#include "core/cache.hpp"
#include "core/phase1.hpp"
#include "core/shard_store.hpp"
#include "dataset_test_util.hpp"
#include "workload/algorithm.hpp"

using namespace mm;
namespace fs = std::filesystem;

namespace {

/** Fresh scratch directory, removed on destruction. */
struct TempDir
{
    std::string path;

    explicit TempDir(const std::string &tag)
    {
        static std::atomic<uint64_t> counter{0};
        path = (fs::temp_directory_path()
                / ("mm_storage_" + tag + "_"
                   + std::to_string(::getpid()) + "_"
                   + std::to_string(counter.fetch_add(1))))
                   .string();
        fs::remove_all(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** Deterministic random dataset written as a shard store. */
ShardLayout
writeRandomStore(const std::string &dir, size_t rows, size_t features,
                 size_t outputs, size_t shardSize, Matrix &xAll,
                 Matrix &yAll)
{
    ShardLayout layout;
    layout.rows = rows;
    layout.features = features;
    layout.outputs = outputs;
    layout.shardSize = shardSize;
    layout.shardCount = (rows + shardSize - 1) / shardSize;
    layout.testRows = rows / 10;
    layout.trainRows = rows - layout.testRows;
    layout.featureLogPrefix = 2;
    layout.configHash = fnv1a64("test-store");

    Rng rng(rows * 31 + shardSize);
    xAll.resize(rows, features);
    yAll.resize(rows, outputs);
    for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < features; ++c)
            xAll(r, c) = float(rng.gaussian());
        for (size_t c = 0; c < outputs; ++c)
            yAll(r, c) = float(rng.gaussian());
    }

    ShardStoreWriter writer(dir, layout);
    Matrix sx, sy;
    for (size_t s = 0; s < layout.shardCount; ++s) {
        size_t count = size_t(layout.shardRows(s));
        sx.ensureShape(count, features);
        sy.ensureShape(count, outputs);
        for (size_t r = 0; r < count; ++r) {
            size_t g = s * shardSize + r;
            std::copy(xAll.row(g).begin(), xAll.row(g).end(),
                      sx.row(r).begin());
            std::copy(yAll.row(g).begin(), yAll.row(g).end(),
                      sy.row(r).begin());
        }
        writer.writeShard(s, sx, sy);
    }
    writer.commit(
        Normalizer::fromMoments(std::vector<double>(features, 0.0),
                                std::vector<double>(features, 1.0)),
        Normalizer::fromMoments(std::vector<double>(outputs, 0.0),
                                std::vector<double>(outputs, 1.0)));
    return layout;
}

/** Flip one byte in the middle of @p file. */
void
flipByte(const std::string &file, std::streamoff offset)
{
    std::fstream f(file,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(bool(f)) << file;
    f.seekg(0, std::ios::end);
    std::streamoff size = f.tellg();
    ASSERT_GT(size, offset);
    f.seekg(offset);
    char b = 0;
    f.read(&b, 1);
    b = char(b ^ 0x40);
    f.seekp(offset);
    f.write(&b, 1);
}

/** Truncate @p file to @p keep bytes. */
void
truncateFile(const std::string &file, uintmax_t keep)
{
    fs::resize_file(file, keep);
}

/** A tiny but structurally valid surrogate for cache tests. */
Surrogate
tinySurrogate(uint64_t seed, size_t featureDim)
{
    Rng rng(seed);
    Mlp net(featureDim,
            {{8, Activation::ReLU}, {1, Activation::Identity}}, rng);
    std::vector<double> zeros(featureDim, 0.0), ones(featureDim, 1.0);
    Normalizer inNorm = Normalizer::fromMoments(zeros, ones);
    Normalizer outNorm = Normalizer::fromMoments({0.0}, {1.0});
    return Surrogate(std::move(net), FeatureTransform{2}, std::move(inNorm),
                     std::move(outNorm), 0);
}

} // namespace

// ---------------------------------------------------------------------------
// Shard format: round trips
// ---------------------------------------------------------------------------

TEST(ShardStore, RoundTripAcrossShardSizes)
{
    // Includes samples % shardSize != 0 (partial final shard) and
    // shardSize == 1 (one row per file).
    for (auto [rows, shardSize] :
         {std::pair<size_t, size_t>{30, 7}, {64, 16}, {10, 1}, {130, 64},
          {33, 100}}) {
        TempDir dir("roundtrip");
        Matrix xAll, yAll;
        writeRandomStore(dir.path, rows, 5, 3, shardSize, xAll, yAll);

        ShardedDatasetReader reader(dir.path, 2);
        EXPECT_EQ(reader.layout().rows, rows);
        EXPECT_EQ(reader.layout().shardCount,
                  (rows + shardSize - 1) / shardSize);

        Matrix x, y;
        reader.materialize(0, rows, x, y);
        EXPECT_EQ(maxAbsDiff(x, xAll), 0.0)
            << "rows=" << rows << " shardSize=" << shardSize;
        EXPECT_EQ(maxAbsDiff(y, yAll), 0.0);

        // Random access via the LRU agrees with sequential reads.
        Rng rng(99);
        for (int i = 0; i < 50; ++i) {
            size_t r = size_t(rng.uniformInt(0, int64_t(rows) - 1));
            const ShardedDatasetReader::ShardPtr shard =
                reader.pinShard(r / shardSize);
            auto xr = shard->x.row(r % shardSize);
            auto yr = shard->y.row(r % shardSize);
            ASSERT_EQ(xr.size(), 5u);
            for (size_t c = 0; c < xr.size(); ++c)
                EXPECT_EQ(xr[c], xAll(r, c));
            for (size_t c = 0; c < yr.size(); ++c)
                EXPECT_EQ(yr[c], yAll(r, c));
        }
    }
}

TEST(ShardStore, ManifestSurvivesReopen)
{
    TempDir dir("manifest");
    Matrix xAll, yAll;
    ShardLayout written =
        writeRandomStore(dir.path, 50, 4, 2, 16, xAll, yAll);

    auto m = ShardedDatasetReader::tryReadManifest(dir.path);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->layout.rows, written.rows);
    EXPECT_EQ(m->layout.trainRows, written.trainRows);
    EXPECT_EQ(m->layout.configHash, written.configHash);
    EXPECT_EQ(m->inputNorm.dim(), 4u);
    EXPECT_EQ(m->outputNorm.dim(), 2u);
}

// ---------------------------------------------------------------------------
// Shard format: corruption rejection (never UB, never garbage).
// Formerly death tests: corruption now surfaces as typed exceptions
// (common/error.hpp) so callers can quarantine and heal instead of
// dying — these assert the exact type, its triage payload, and the
// quarantine side effect.
// ---------------------------------------------------------------------------

TEST(ShardStoreTypedErrors, TruncatedShardThrowsShortRead)
{
    TempDir dir("truncated");
    Matrix xAll, yAll;
    writeRandomStore(dir.path, 40, 5, 3, 16, xAll, yAll);

    std::string victim = shardPath(dir.path, 1);
    truncateFile(victim, fs::file_size(victim) / 2);

    ShardedDatasetReader reader(dir.path, 2);
    Matrix x, y;
    try {
        reader.readShard(1, x, y);
        FAIL() << "truncated shard read did not throw";
    } catch (const CorruptionError &e) {
        EXPECT_EQ(e.kind(), CorruptionError::Kind::ShortRead);
        EXPECT_EQ(e.path(), victim);
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
    }
    // Provably-bad bytes are moved aside so a restart regenerates them.
    EXPECT_FALSE(fs::exists(victim));
    EXPECT_TRUE(fs::exists(victim + ".quarantine"));
    EXPECT_EQ(reader.quarantinedShards(), 1u);
}

TEST(ShardStoreTypedErrors, FlippedPayloadByteThrowsChecksumMismatch)
{
    TempDir dir("flipped");
    Matrix xAll, yAll;
    writeRandomStore(dir.path, 40, 5, 3, 16, xAll, yAll);

    // Flip a byte deep in the payload (well past header + body header).
    std::string victim = shardPath(dir.path, 0);
    flipByte(victim, std::streamoff(fs::file_size(victim) / 2));

    ShardedDatasetReader reader(dir.path, 2);
    Matrix x, y;
    try {
        reader.readShard(0, x, y);
        FAIL() << "flipped shard read did not throw";
    } catch (const CorruptionError &e) {
        EXPECT_EQ(e.kind(), CorruptionError::Kind::ChecksumMismatch);
        EXPECT_NE(e.expectedChecksum(), e.actualChecksum());
        EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                  std::string::npos);
    }
    EXPECT_TRUE(fs::exists(victim + ".quarantine"));
}

TEST(ShardStoreTypedErrors, WrongVersionHeaderThrowsWithoutQuarantine)
{
    TempDir dir("version");
    Matrix xAll, yAll;
    writeRandomStore(dir.path, 40, 5, 3, 16, xAll, yAll);

    // Byte 4 is the low byte of the little-endian version field.
    std::string victim = shardPath(dir.path, 0);
    flipByte(victim, 4);

    ShardedDatasetReader reader(dir.path, 2);
    Matrix x, y;
    try {
        reader.readShard(0, x, y);
        FAIL() << "wrong-version shard read did not throw";
    } catch (const CorruptionError &e) {
        EXPECT_EQ(e.kind(), CorruptionError::Kind::BadHeader);
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
    // A bad header may be a foreign or future-version file: never
    // destroyed, never quarantined.
    EXPECT_TRUE(fs::exists(victim));
    EXPECT_FALSE(fs::exists(victim + ".quarantine"));
    EXPECT_EQ(reader.quarantinedShards(), 0u);
}

TEST(ShardStoreTypedErrors, MissingMiddleShardThrowsIoError)
{
    TempDir dir("missing");
    Matrix xAll, yAll;
    writeRandomStore(dir.path, 60, 5, 3, 16, xAll, yAll);

    fs::remove(shardPath(dir.path, 2));
    try {
        ShardedDatasetReader reader(dir.path, 2);
        FAIL() << "reader opened a store with a missing shard";
    } catch (const IoError &e) {
        EXPECT_EQ(e.errnoValue(), ENOENT);
        EXPECT_EQ(e.path(), shardPath(dir.path, 2));
        EXPECT_FALSE(e.transient());
    }
}

TEST(ShardStore, UncommittedStoreIsNotAManifest)
{
    // A crash before commit() leaves shards but no manifest: the
    // reader must refuse, and tryReadManifest reports "partial run".
    TempDir dir("partial");
    ShardLayout layout;
    layout.rows = 20;
    layout.features = 3;
    layout.outputs = 2;
    layout.shardSize = 10;
    layout.shardCount = 2;
    layout.trainRows = 18;
    layout.testRows = 2;
    layout.configHash = 1;
    ShardStoreWriter writer(dir.path, layout);
    Matrix x(10, 3), y(10, 2);
    writer.writeShard(0, x, y);
    // no commit()
    EXPECT_FALSE(
        ShardedDatasetReader::tryReadManifest(dir.path).has_value());
}

TEST(ChecksummedBlob, RejectsCorruptSizeFieldWithoutAllocating)
{
    // A flipped high byte of the u64 size field must produce a
    // diagnostic, not a ~256 GiB allocation or an out-of-bounds view.
    std::ostringstream os(std::ios::binary);
    writeChecksummedBlob(os, 0xAB12CD34u, 1, "payload");
    std::string bytes = os.str();
    bytes[12] = '\x40'; // size field occupies offsets 8..15
    BlobReadError err;
    EXPECT_FALSE(readChecksummedBlobView(std::span<const char>(bytes),
                                         0xAB12CD34u, 1, &err)
                     .has_value());
    EXPECT_EQ(err.kind, BlobReadError::Kind::ShortRead);
    EXPECT_NE(err.message.find("body declares"), std::string::npos);
}

TEST(ShardStoreTypedErrors, CorruptShardSizeFieldThrowsShortRead)
{
    TempDir dir("badsize");
    Matrix xAll, yAll;
    writeRandomStore(dir.path, 40, 5, 3, 16, xAll, yAll);
    // A flipped high byte of the size field declares far more body
    // than the file holds — indistinguishable from truncation, and
    // must never turn into a giant allocation.
    std::string victim = shardPath(dir.path, 0);
    flipByte(victim, 12); // high-ish byte of body size

    ShardedDatasetReader reader(dir.path, 2);
    Matrix x, y;
    try {
        reader.readShard(0, x, y);
        FAIL() << "corrupt-size shard read did not throw";
    } catch (const CorruptionError &e) {
        EXPECT_EQ(e.kind(), CorruptionError::Kind::ShortRead);
        EXPECT_NE(std::string(e.what()).find("body declares"),
                  std::string::npos);
    }
    EXPECT_TRUE(fs::exists(victim + ".quarantine"));
}

TEST(ChecksummedBlob, RejectsTrailingBytes)
{
    std::ostringstream os(std::ios::binary);
    writeChecksummedBlob(os, 0xAB12CD34u, 1, "payload");
    os.write("junk", 4);
    const std::string bytes = os.str();
    BlobReadError err;
    EXPECT_FALSE(readChecksummedBlobView(std::span<const char>(bytes),
                                         0xAB12CD34u, 1, &err)
                     .has_value());
    EXPECT_EQ(err.kind, BlobReadError::Kind::BadHeader);
    EXPECT_NE(err.message.find("trailing"), std::string::npos);
}

// ---------------------------------------------------------------------------
// On-disk ≡ resident equivalence
// ---------------------------------------------------------------------------

TEST(StreamedDatasetEquivalence, BitwiseIdenticalToInRamAtAnyLaneCount)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    DatasetConfig cfg;
    cfg.samples = 600;
    cfg.problemCount = 3;
    cfg.eliteFraction = 0.2;
    cfg.seed = 17;
    cfg.shardSize = 128; // 600 % 128 != 0: partial final shard
    StreamedDataset ram = generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    DatasetSplits ramSplit = normalizedSplits(ram);

    for (size_t lanes : {1u, 4u, 8u}) {
        TempDir dir("equiv");
        DatasetConfig scfg = cfg;
        scfg.streamDir = dir.path;
        ParallelContext ctx(lanes);
        StreamedDataset sd =
            generateDatasetStreamed(arch, conv1dAlgo(), scfg, &ctx);
        EXPECT_FALSE(sd.reused);
        ASSERT_EQ(sd.trainRows, ramSplit.xTrain.rows());
        ASSERT_EQ(sd.testRows, ramSplit.xTest.rows());
        EXPECT_EQ(sd.featureLogPrefix, ram.featureLogPrefix);

        // Fitted normalizers must match to the last bit.
        for (size_t c = 0; c < sd.featureCount; ++c) {
            EXPECT_EQ(sd.inputNorm.mean(c), ram.inputNorm.mean(c))
                << "lanes=" << lanes << " col=" << c;
            EXPECT_EQ(sd.inputNorm.std(c), ram.inputNorm.std(c));
        }
        for (size_t c = 0; c < sd.outputCount; ++c) {
            EXPECT_EQ(sd.outputNorm.mean(c), ram.outputNorm.mean(c));
            EXPECT_EQ(sd.outputNorm.std(c), ram.outputNorm.std(c));
        }

        // Materialized + normalized splits must match bitwise.
        ShardedDatasetReader reader(sd.dir);
        Matrix x, y;
        reader.materialize(0, sd.trainRows, x, y);
        sd.inputNorm.applyInPlace(x);
        sd.outputNorm.applyInPlace(y);
        EXPECT_EQ(maxAbsDiff(x, ramSplit.xTrain), 0.0) << "lanes=" << lanes;
        EXPECT_EQ(maxAbsDiff(y, ramSplit.yTrain), 0.0) << "lanes=" << lanes;

        reader.materialize(sd.trainRows, sd.testRows, x, y);
        sd.inputNorm.applyInPlace(x);
        sd.outputNorm.applyInPlace(y);
        EXPECT_EQ(maxAbsDiff(x, ramSplit.xTest), 0.0) << "lanes=" << lanes;
        EXPECT_EQ(maxAbsDiff(y, ramSplit.yTest), 0.0) << "lanes=" << lanes;
    }
}

TEST(StreamedDatasetEquivalence, EndToEndPhase1MatchesInRam)
{
    // The full streamed pipeline (shards -> streaming normalizer fit ->
    // ShardBatchSource mini-batches) must train the exact surrogate the
    // in-RAM path trains, at any lane count.
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Phase1Config cfg;
    cfg.hidden = {16, 16};
    cfg.train.epochs = 3;
    cfg.data.samples = 400;
    cfg.data.problemCount = 3;
    cfg.data.seed = 5;
    cfg.seed = 9;
    cfg.data.shardSize = 96;

    Phase1Result ram = trainSurrogate(arch, conv1dAlgo(), cfg);

    std::vector<double> z(ram.surrogate.featureCount(), 0.25);
    double ramPred = ram.surrogate.predictNormEdp(z);

    for (int threads : {1, 4}) {
        TempDir dir("e2e");
        Phase1Config scfg = cfg;
        scfg.data.streamDir = dir.path;
        scfg.threads = threads;
        Phase1Result streamed = trainSurrogate(arch, conv1dAlgo(), scfg);

        ASSERT_EQ(streamed.history.size(), ram.history.size());
        for (size_t e = 0; e < ram.history.size(); ++e) {
            EXPECT_EQ(streamed.history[e].trainLoss,
                      ram.history[e].trainLoss)
                << "threads=" << threads << " epoch=" << e;
            EXPECT_EQ(streamed.history[e].testLoss,
                      ram.history[e].testLoss);
        }
        EXPECT_EQ(streamed.surrogate.predictNormEdp(z), ramPred)
            << "threads=" << threads;
    }
}

TEST(StreamedDatasetEquivalence, WindowedShuffleIsPathInvariant)
{
    // The windowed shuffle changes batch composition (by design) but
    // must do so identically for the in-RAM and streamed paths.
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Phase1Config cfg;
    cfg.hidden = {16};
    cfg.train.epochs = 2;
    cfg.train.shuffleWindow = 100;
    cfg.data.samples = 300;
    cfg.data.problemCount = 2;
    cfg.data.shardSize = 50; // window spans exactly two shards

    Phase1Result ram = trainSurrogate(arch, conv1dAlgo(), cfg);

    TempDir dir("window");
    Phase1Config scfg = cfg;
    scfg.data.streamDir = dir.path;
    Phase1Result streamed = trainSurrogate(arch, conv1dAlgo(), scfg);

    std::vector<double> z(ram.surrogate.featureCount(), -0.5);
    EXPECT_EQ(streamed.surrogate.predictNormEdp(z),
              ram.surrogate.predictNormEdp(z));
    EXPECT_EQ(streamed.history.back().trainLoss,
              ram.history.back().trainLoss);
}

// ---------------------------------------------------------------------------
// Crash recovery / restartability
// ---------------------------------------------------------------------------

TEST(StreamedDatasetRecovery, CommittedStoreIsReusedWithoutRelabeling)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    TempDir dir("reuse");
    DatasetConfig cfg;
    cfg.samples = 200;
    cfg.problemCount = 2;
    cfg.shardSize = 64;
    cfg.streamDir = dir.path;

    StreamedDataset first = generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    EXPECT_FALSE(first.reused);
    auto mtime = fs::last_write_time(shardPath(dir.path, 0));

    StreamedDataset second =
        generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    EXPECT_TRUE(second.reused);
    EXPECT_EQ(fs::last_write_time(shardPath(dir.path, 0)), mtime);
    EXPECT_EQ(second.inputNorm.mean(0), first.inputNorm.mean(0));
}

TEST(StreamedDatasetRecovery, ResumesAfterCrashMidGeneration)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    TempDir dir("resume");
    DatasetConfig cfg;
    cfg.samples = 300;
    cfg.problemCount = 2;
    cfg.shardSize = 64;
    cfg.streamDir = dir.path;

    StreamedDataset full = generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    ShardedDatasetReader committed(full.dir);
    Matrix xa, ya;
    committed.materialize(0, cfg.samples, xa, ya);

    // Simulate a crash: manifest gone, one shard gone, one torn.
    fs::remove(manifestPath(dir.path));
    fs::remove(shardPath(dir.path, 1));
    truncateFile(shardPath(dir.path, 3),
                 fs::file_size(shardPath(dir.path, 3)) - 5);
    auto shard2Time = fs::last_write_time(shardPath(dir.path, 2));

    StreamedDataset resumed =
        generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    EXPECT_FALSE(resumed.reused);
    // Intact shards were skipped, not relabeled.
    EXPECT_EQ(fs::last_write_time(shardPath(dir.path, 2)), shard2Time);

    // And the recovered dataset is byte-identical to the original.
    ShardedDatasetReader reader(resumed.dir);
    Matrix xb, yb;
    reader.materialize(0, cfg.samples, xb, yb);
    EXPECT_EQ(maxAbsDiff(xa, xb), 0.0);
    EXPECT_EQ(maxAbsDiff(ya, yb), 0.0);
    EXPECT_EQ(resumed.inputNorm.mean(0), full.inputNorm.mean(0));
}

TEST(StreamedDatasetRecovery, ManifestWithDeletedShardIsRebuilt)
{
    // A committed manifest whose shard files were (partially) deleted
    // must not be trusted: only the missing shards are regenerated.
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    TempDir dir("hollow");
    DatasetConfig cfg;
    cfg.samples = 200;
    cfg.problemCount = 2;
    cfg.shardSize = 64;
    cfg.streamDir = dir.path;

    StreamedDataset full = generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    ShardedDatasetReader committed(full.dir);
    Matrix xa, ya;
    committed.materialize(0, cfg.samples, xa, ya);

    fs::remove(shardPath(dir.path, 1));
    StreamedDataset rebuilt =
        generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    EXPECT_FALSE(rebuilt.reused);

    ShardedDatasetReader reader(rebuilt.dir);
    Matrix xb, yb;
    reader.materialize(0, cfg.samples, xb, yb);
    EXPECT_EQ(maxAbsDiff(xa, xb), 0.0);
    EXPECT_EQ(maxAbsDiff(ya, yb), 0.0);
}

TEST(StreamedDatasetRecovery, CrashedRegenerationForNewConfigSelfHeals)
{
    // Config A committed; a regeneration for config B crashes after
    // rewriting one shard. The directory must not masquerade as a
    // committed store for A: rerunning A regenerates the foreign shard
    // and converges back to A's exact bytes.
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    TempDir dirA("mixed_a"), dirB("mixed_b");
    DatasetConfig cfgA;
    cfgA.samples = 200;
    cfgA.problemCount = 2;
    cfgA.shardSize = 64;
    cfgA.streamDir = dirA.path;
    DatasetConfig cfgB = cfgA;
    cfgB.seed = 777;
    cfgB.streamDir = dirB.path;

    StreamedDataset a = generateDatasetStreamed(arch, conv1dAlgo(), cfgA);
    generateDatasetStreamed(arch, conv1dAlgo(), cfgB);
    ShardedDatasetReader committed(a.dir);
    Matrix xa, ya;
    committed.materialize(0, cfgA.samples, xa, ya);

    // Emulate the crashed B run inside A's directory: B's shard 0
    // lands, A's manifest still present.
    fs::copy_file(shardPath(dirB.path, 0), shardPath(dirA.path, 0),
                  fs::copy_options::overwrite_existing);

    StreamedDataset healed =
        generateDatasetStreamed(arch, conv1dAlgo(), cfgA);
    EXPECT_FALSE(healed.reused);
    ShardedDatasetReader reader(healed.dir);
    Matrix xb, yb;
    reader.materialize(0, cfgA.samples, xb, yb);
    EXPECT_EQ(maxAbsDiff(xa, xb), 0.0);
    EXPECT_EQ(maxAbsDiff(ya, yb), 0.0);
}

TEST(StreamedDatasetRecovery, StaleConfigIsRegenerated)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    TempDir dir("stale");
    DatasetConfig cfg;
    cfg.samples = 150;
    cfg.problemCount = 2;
    cfg.shardSize = 64;
    cfg.streamDir = dir.path;
    StreamedDataset first = generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    EXPECT_FALSE(first.reused);

    cfg.seed = 999; // different dataset identity, same directory
    StreamedDataset second =
        generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    EXPECT_FALSE(second.reused);

    // The store now answers for the new config.
    auto m = ShardedDatasetReader::tryReadManifest(dir.path);
    ASSERT_TRUE(m.has_value());
    DatasetConfig residentCfg = cfg;
    residentCfg.streamDir.clear();
    StreamedDataset ram =
        generateDatasetStreamed(arch, conv1dAlgo(), residentCfg);
    EXPECT_EQ(m->inputNorm.mean(0), ram.inputNorm.mean(0));
}

// ---------------------------------------------------------------------------
// Surrogate cache: tearing, eviction, concurrency
// ---------------------------------------------------------------------------

TEST(ShardedCache, TruncatedEntryIsAMissAndIsRemoved)
{
    TempDir dir("cache_trunc");
    SurrogateCache cache(dir.path, 0);
    Surrogate s = tinySurrogate(1, 6);
    cache.store("key", s);
    ASSERT_TRUE(cache.load("key").has_value());

    // Tear the entry the way a crashed writer without atomic rename
    // would have: keep a prefix only.
    ASSERT_EQ(cache.entryCount(), 1u);
    fs::path entry;
    for (const auto &e : fs::recursive_directory_iterator(dir.path))
        if (e.is_regular_file())
            entry = e.path();
    truncateFile(entry.string(), fs::file_size(entry) / 2);

    EXPECT_FALSE(cache.load("key").has_value());
    // The poisoned file was dropped so it cannot flap.
    EXPECT_EQ(cache.entryCount(), 0u);
}

TEST(ShardedCache, FlippedByteIsAMiss)
{
    TempDir dir("cache_flip");
    SurrogateCache cache(dir.path, 0);
    cache.store("key", tinySurrogate(2, 6));
    fs::path entry;
    for (const auto &e : fs::recursive_directory_iterator(dir.path))
        if (e.is_regular_file())
            entry = e.path();
    flipByte(entry.string(), std::streamoff(fs::file_size(entry) / 2));
    EXPECT_FALSE(cache.load("key").has_value());
}

TEST(ShardedCache, HashPrefixLayoutAndEviction)
{
    TempDir dir("cache_evict");
    SurrogateCache cache(dir.path, 2); // explicit cap, env-independent
    Surrogate s = tinySurrogate(3, 6);

    cache.store("a", s);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.store("b", s);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Touch "a" so "b" is the LRU entry when "c" lands.
    ASSERT_TRUE(cache.load("a").has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.store("c", s);

    EXPECT_EQ(cache.entryCount(), 2u);
    EXPECT_TRUE(cache.load("a").has_value());
    EXPECT_FALSE(cache.load("b").has_value());
    EXPECT_TRUE(cache.load("c").has_value());

    // Entries live in two-hex-char shard subdirectories.
    bool sawShardDir = false;
    for (const auto &e : fs::directory_iterator(dir.path))
        if (e.is_directory() && e.path().filename().string().size() == 2)
            sawShardDir = true;
    EXPECT_TRUE(sawShardDir);
}

TEST(ShardedCache, ConcurrentStoreLoadEvictNeverYieldsTornEntries)
{
    TempDir dir("cache_race");
    constexpr int kThreads = 8;
    constexpr int kIters = 40;
    constexpr size_t kKeys = 4;

    // Per-key feature dims so a loaded entry proves which store won —
    // and that it was complete.
    std::vector<size_t> dims = {4, 6, 8, 10};
    std::vector<Surrogate> fixtures;
    for (size_t k = 0; k < kKeys; ++k)
        fixtures.push_back(tinySurrogate(100 + k, dims[k]));

    std::atomic<int> loads{0}, hits{0}, failures{0};
    auto worker = [&](int tid) {
        SurrogateCache cache(dir.path, 3); // cap < keys: eviction races
        Rng rng(uint64_t(tid) * 7919 + 1);
        for (int i = 0; i < kIters; ++i) {
            size_t k = size_t(rng.uniformInt(0, int64_t(kKeys) - 1));
            std::string key = "fp-" + std::to_string(k);
            if (rng.bernoulli(0.5)) {
                cache.store(key, fixtures[k]);
            } else {
                loads.fetch_add(1);
                auto loaded = cache.load(key);
                if (!loaded.has_value())
                    continue; // miss/evicted: legal
                hits.fetch_add(1);
                // Every successful load must be fully formed: right
                // shape for its key and a finite prediction.
                if (loaded->featureCount() != dims[k]
                    || loaded->outputCount() != 1) {
                    failures.fetch_add(1);
                    continue;
                }
                std::vector<double> z(dims[k], 0.1);
                if (!std::isfinite(loaded->predictNormEdp(z)))
                    failures.fetch_add(1);
            }
        }
    };

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(worker, t);
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(failures.load(), 0)
        << "torn or mismatched entries observed under concurrency";
    EXPECT_GT(loads.load(), 0);
}

TEST(ShardedCache, MissOnEmptyAndDisabled)
{
    TempDir dir("cache_misc");
    SurrogateCache cache(dir.path, 0);
    EXPECT_FALSE(cache.load("absent").has_value());

    setenv("MM_NO_CACHE", "1", 1);
    EXPECT_TRUE(SurrogateCache::disabled());
    EXPECT_FALSE(cache.load("absent").has_value());
    cache.store("absent", tinySurrogate(7, 4));
    setenv("MM_NO_CACHE", "0", 1);
    EXPECT_FALSE(cache.load("absent").has_value()); // store was a no-op
}

// ---------------------------------------------------------------------------
// Warm loads (mmap + fallback)
// ---------------------------------------------------------------------------

TEST(MappedFileIO, MapAndFallbackSeeTheSameBytes)
{
    TempDir dir("mmap");
    fs::create_directories(dir.path);
    const std::string path = dir.path + "/blob.bin";
    std::string payload("mapped-bytes\0with\x01junk", 22);
    {
        std::ofstream os(path, std::ios::binary);
        os.write(payload.data(), std::streamsize(payload.size()));
    }

    auto mapped = MappedFile::open(path);
    ASSERT_TRUE(mapped.has_value());
    EXPECT_TRUE(mapped->isMapped());
    ASSERT_EQ(mapped->bytes().size(), payload.size());
    EXPECT_EQ(std::string(mapped->bytes().data(), mapped->bytes().size()),
              payload);

    setenv("MM_NO_MMAP", "1", 1);
    auto copied = MappedFile::open(path);
    setenv("MM_NO_MMAP", "0", 1);
    ASSERT_TRUE(copied.has_value());
    EXPECT_FALSE(copied->isMapped());
    ASSERT_EQ(copied->bytes().size(), payload.size());
    EXPECT_EQ(std::string(copied->bytes().data(), copied->bytes().size()),
              payload);

    EXPECT_FALSE(MappedFile::open(dir.path + "/absent").has_value());
}

TEST(MappedFileIO, SurrogateWarmLoadMatchesSaved)
{
    Surrogate s = tinySurrogate(21, 6);
    std::ostringstream os(std::ios::binary);
    s.save(os);
    const std::string bytes = os.str();

    auto warm =
        Surrogate::tryLoad(std::span<const char>(bytes.data(), bytes.size()));
    ASSERT_TRUE(warm.has_value());

    std::vector<double> z(6, 0.3);
    EXPECT_EQ(warm->predictNormEdp(z), s.predictNormEdp(z));

    // Corruption is still rejected through the view path.
    std::string torn = bytes.substr(0, bytes.size() / 2);
    EXPECT_FALSE(
        Surrogate::tryLoad(std::span<const char>(torn.data(), torn.size()))
            .has_value());
    std::string flipped = bytes;
    flipped[flipped.size() / 2] =
        char(flipped[flipped.size() / 2] ^ 0x20);
    EXPECT_FALSE(Surrogate::tryLoad(
                     std::span<const char>(flipped.data(), flipped.size()))
                     .has_value());
}

TEST(MappedFileIO, ShardReadsWorkWithMmapDisabled)
{
    // The portable fallback must decode the exact same shards.
    TempDir dir("nommap");
    Matrix xAll, yAll;
    writeRandomStore(dir.path, 50, 5, 3, 16, xAll, yAll);

    setenv("MM_NO_MMAP", "1", 1);
    ShardedDatasetReader reader(dir.path, 2);
    Matrix x, y;
    reader.materialize(0, 50, x, y);
    setenv("MM_NO_MMAP", "0", 1);
    EXPECT_EQ(maxAbsDiff(x, xAll), 0.0);
    EXPECT_EQ(maxAbsDiff(y, yAll), 0.0);
}

// ---------------------------------------------------------------------------
// Concurrent shard cache + parallel gather
// ---------------------------------------------------------------------------

TEST(ConcurrentShardCache, MultiThreadGatherStressSeesOnlyCorrectRows)
{
    // Many threads hammer one reader through a deliberately tiny cache
    // (constant eviction) — every gathered row must still be exactly
    // the row that was written, and pinned shards must stay alive
    // across evictions (ASan/TSan cover the lifetime claims).
    TempDir dir("gather_stress");
    constexpr size_t kRows = 600, kF = 5, kO = 3, kShard = 32;
    Matrix xAll, yAll;
    writeRandomStore(dir.path, kRows, kF, kO, kShard, xAll, yAll);

    ShardedDatasetReader reader(dir.path, 3);
    constexpr int kThreads = 8;
    std::atomic<int> mismatches{0};
    auto worker = [&](int tid) {
        ShardBatchSource source(reader, 0, kRows);
        Rng rng(uint64_t(tid) * 131 + 7);
        std::vector<size_t> idx(kRows);
        for (size_t i = 0; i < kRows; ++i)
            idx[i] = i;
        Matrix bx, by;
        for (int iter = 0; iter < 30; ++iter) {
            rng.shuffle(idx);
            const size_t n = 96;
            source.gather(idx, 0, n, bx, by, nullptr);
            for (size_t r = 0; r < n; ++r) {
                for (size_t c = 0; c < kF; ++c)
                    if (bx(r, c) != xAll(idx[r], c))
                        mismatches.fetch_add(1);
                for (size_t c = 0; c < kO; ++c)
                    if (by(r, c) != yAll(idx[r], c))
                        mismatches.fetch_add(1);
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(worker, t);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentShardCache, ParallelGatherMatchesSerialBitwise)
{
    TempDir dir("gather_par");
    constexpr size_t kRows = 500, kF = 7, kO = 2, kShard = 64;
    Matrix xAll, yAll;
    writeRandomStore(dir.path, kRows, kF, kO, kShard, xAll, yAll);

    ShardedDatasetReader reader(dir.path, 2);
    ShardBatchSource source(reader, 0, kRows);
    Rng rng(404);
    std::vector<size_t> idx(kRows);
    for (size_t i = 0; i < kRows; ++i)
        idx[i] = i;
    rng.shuffle(idx);

    Matrix sx, sy;
    source.gather(idx, 3, 256, sx, sy, nullptr);
    for (size_t lanes : {2u, 4u, 8u}) {
        ParallelContext ctx(lanes);
        Matrix px, py;
        source.gather(idx, 3, 256, px, py, &ctx);
        EXPECT_EQ(maxAbsDiff(px, sx), 0.0) << "lanes=" << lanes;
        EXPECT_EQ(maxAbsDiff(py, sy), 0.0) << "lanes=" << lanes;
    }
}

TEST(StreamedDatasetEquivalence, ParallelGatherKeepsPhase1Bitwise)
{
    // The acceptance bar of the concurrent out-of-core path: with a
    // tiny (always-evicting) shard cache and parallel gathers, the
    // streamed pipeline still trains the exact surrogate the in-RAM
    // path trains, at 1/4/8 lanes.
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Phase1Config cfg;
    cfg.hidden = {16, 16};
    cfg.train.epochs = 3;
    cfg.data.samples = 400;
    cfg.data.problemCount = 3;
    cfg.data.seed = 5;
    cfg.seed = 9;
    cfg.data.shardSize = 64; // 7 shards vs a 2-shard cache

    Phase1Result ram = trainSurrogate(arch, conv1dAlgo(), cfg);
    std::vector<double> z(ram.surrogate.featureCount(), 0.25);
    double ramPred = ram.surrogate.predictNormEdp(z);

    setenv("MM_SHARD_CACHE", "2", 1);
    for (int threads : {1, 4, 8}) {
        TempDir dir("gather_e2e");
        Phase1Config scfg = cfg;
        scfg.data.streamDir = dir.path;
        scfg.threads = threads;
        Phase1Result streamed = trainSurrogate(arch, conv1dAlgo(), scfg);

        ASSERT_EQ(streamed.history.size(), ram.history.size());
        for (size_t e = 0; e < ram.history.size(); ++e) {
            EXPECT_EQ(streamed.history[e].trainLoss,
                      ram.history[e].trainLoss)
                << "threads=" << threads << " epoch=" << e;
            EXPECT_EQ(streamed.history[e].testLoss,
                      ram.history[e].testLoss);
        }
        EXPECT_EQ(streamed.surrogate.predictNormEdp(z), ramPred)
            << "threads=" << threads;
    }
    unsetenv("MM_SHARD_CACHE");
}

// ---------------------------------------------------------------------------
// Double-buffered generation
// ---------------------------------------------------------------------------

namespace {

/** Raw bytes of @p path. */
std::string
slurpFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

} // namespace

TEST(OverlappedGeneration, CrashResumeWithWriterThreadIsByteIdentical)
{
    // Crash emulation against the overlapped writer: kill the manifest
    // and both a committed and the "in-flight" (= newest) shard, then
    // resume — the store must converge to the original bytes with the
    // untouched shards never rewritten.
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    TempDir dir("overlap_resume");
    DatasetConfig cfg;
    cfg.samples = 300;
    cfg.problemCount = 2;
    cfg.shardSize = 64;
    cfg.streamDir = dir.path;

    StreamedDataset full = generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    const size_t lastShard = full.shardCount - 1;
    std::vector<std::string> before;
    for (size_t s = 0; s < full.shardCount; ++s)
        before.push_back(slurpFile(shardPath(dir.path, s)));

    fs::remove(manifestPath(dir.path));
    fs::remove(shardPath(dir.path, 1));
    fs::remove(shardPath(dir.path, lastShard)); // the mid-commit victim
    auto shard0Time = fs::last_write_time(shardPath(dir.path, 0));

    StreamedDataset resumed = generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    EXPECT_FALSE(resumed.reused);
    EXPECT_EQ(fs::last_write_time(shardPath(dir.path, 0)), shard0Time);
    for (size_t s = 0; s < full.shardCount; ++s)
        EXPECT_EQ(slurpFile(shardPath(dir.path, s)), before[s])
            << "shard " << s;
    EXPECT_EQ(resumed.inputNorm.mean(0), full.inputNorm.mean(0));
    EXPECT_EQ(resumed.outputNorm.std(0), full.outputNorm.std(0));
}
