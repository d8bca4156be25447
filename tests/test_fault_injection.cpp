/**
 * @file
 * Chaos suite for the fault-tolerance layer: the typed error taxonomy
 * (common/error.hpp), retry/backoff (common/retry.hpp), deterministic
 * fault injection (common/fault_injection.hpp), storage self-healing
 * (shard quarantine-and-regenerate) and failure-isolated orchestration
 * (runMany). Every fault here is injected from a seeded plan, so the
 * suite is reproducible — set MM_FAULT_SEED to vary the fault schedule
 * (the CI chaos job runs three fixed seeds).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/mapped_file.hpp"
#include "common/parallel_context.hpp"
#include "common/retry.hpp"
#include "core/cache.hpp"
#include "core/dataset.hpp"
#include "core/feature_transform.hpp"
#include "core/normalizer.hpp"
#include "core/shard_store.hpp"
#include "core/surrogate.hpp"
#include "nn/mlp.hpp"
#include "search/orchestrator.hpp"
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
                / ("mm_fault_" + tag + "_" + std::to_string(::getpid())
                   + "_" + std::to_string(counter.fetch_add(1))))
                   .string();
        fs::remove_all(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/**
 * Scoped fault plan: installs on construction, disarms on destruction
 * — a test that throws can never leak its faults into the next one.
 */
struct ScopedFaults
{
    explicit ScopedFaults(const FaultPlan &plan)
    {
        FaultInjector::instance().configure(plan);
    }

    explicit ScopedFaults(const std::string &spec, uint64_t seed = 1)
        : ScopedFaults(parseFaultPlan(spec, seed))
    {}

    ~ScopedFaults() { FaultInjector::instance().disarm(); }
};

/** Scoped env var, restored (unset) on destruction. */
struct ScopedEnv
{
    std::string name;

    ScopedEnv(const std::string &n, const std::string &value) : name(n)
    {
        ::setenv(name.c_str(), value.c_str(), 1);
    }

    ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

/** Small streamed-dataset config over @p dir. */
DatasetConfig
chaosDatasetConfig(const std::string &dir)
{
    DatasetConfig cfg;
    cfg.samples = 160;
    cfg.problemCount = 2;
    cfg.shardSize = 40; // 4 shards
    cfg.streamDir = dir;
    return cfg;
}

/** Raw store bytes + fitted normalizer moments, for byte-level diffs. */
struct StoreImage
{
    Matrix x, y;
    std::vector<double> mean, std;
};

StoreImage
imageOf(const StreamedDataset &sd)
{
    StoreImage img;
    ShardedDatasetReader reader(sd.dir);
    reader.materialize(0, sd.trainRows + sd.testRows, img.x, img.y);
    for (size_t c = 0; c < sd.featureCount; ++c) {
        img.mean.push_back(sd.inputNorm.mean(c));
        img.std.push_back(sd.inputNorm.std(c));
    }
    for (size_t c = 0; c < sd.outputCount; ++c) {
        img.mean.push_back(sd.outputNorm.mean(c));
        img.std.push_back(sd.outputNorm.std(c));
    }
    return img;
}

void
expectIdentical(const StoreImage &a, const StoreImage &b,
                const std::string &label)
{
    EXPECT_EQ(maxAbsDiff(a.x, b.x), 0.0) << label;
    EXPECT_EQ(maxAbsDiff(a.y, b.y), 0.0) << label;
    ASSERT_EQ(a.mean.size(), b.mean.size()) << label;
    for (size_t i = 0; i < a.mean.size(); ++i) {
        EXPECT_EQ(a.mean[i], b.mean[i]) << label << " moment " << i;
        EXPECT_EQ(a.std[i], b.std[i]) << label << " moment " << i;
    }
}

/** Leftover tmp files would mean a torn commit escaped cleanup. */
size_t
tmpFileCount(const std::string &dir)
{
    size_t n = 0;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->path().filename().string().find(".tmp.")
            != std::string::npos)
            ++n;
    }
    return n;
}

/** Deterministic throwaway searcher; repetition @p failIdx throws. */
class FlakySearcher : public Searcher
{
  public:
    FlakySearcher(int idx, int failIdx) : idx(idx), failIdx(failIdx) {}

    std::string name() const override { return "Flaky"; }

    SearchResult
    run(SearchContext &) override
    {
        if (idx == failIdx)
            throw IoError("/dev/flaky", "read", EIO,
                          "injected repetition failure");
        SearchResult r;
        r.method = name();
        r.bestNormEdp = 1.0 + 0.25 * double(idx);
        r.steps = 10;
        return r;
    }

  private:
    int idx;
    int failIdx;
};

} // namespace

// ---------------------------------------------------------------------------
// Fault-plan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanParsing, ParsesTheFullGrammar)
{
    FaultPlan plan = parseFaultPlan(
        "write:p=0.25,read:p=0.5,enospc:after=200MB,flip:shard=3,"
        "flip:shard=7,flip:shard=3",
        42);
    EXPECT_DOUBLE_EQ(plan.writeP, 0.25);
    EXPECT_DOUBLE_EQ(plan.readP, 0.5);
    EXPECT_EQ(plan.enospcAfterBytes, uint64_t(200) << 20);
    ASSERT_EQ(plan.flipShards.size(), 2u); // dedup: each shard once
    EXPECT_EQ(plan.flipShards[0], 3u);
    EXPECT_EQ(plan.flipShards[1], 7u);
    EXPECT_EQ(plan.seed, 42u);
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(parseFaultPlan("").empty());
}

TEST(FaultPlanParsing, ParsesByteSizeSuffixes)
{
    EXPECT_EQ(parseByteSize("4096", "t"), 4096u);
    EXPECT_EQ(parseByteSize("4096B", "t"), 4096u);
    EXPECT_EQ(parseByteSize("4KB", "t"), uint64_t(4) << 10);
    EXPECT_EQ(parseByteSize("200MB", "t"), uint64_t(200) << 20);
    EXPECT_EQ(parseByteSize("3GB", "t"), uint64_t(3) << 30);
    EXPECT_EQ(parseByteSize("2gb", "t"), uint64_t(2) << 30);
}

TEST(FaultPlanParsing, RejectsMalformedSpecsWithTheClauseNamed)
{
    for (const char *bad :
         {"write:p=1.5", "write:p=x", "bogus:p=0.1", "write", "write:p",
          "enospc:after=12XB", "flip:shard=abc"}) {
        try {
            parseFaultPlan(bad);
            FAIL() << "accepted '" << bad << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("MM_FAULTS"),
                      std::string::npos)
                << bad;
        }
    }
}

TEST(FaultPlanParsing, ShardIndexOfPathMatchesShardFilesOnly)
{
    EXPECT_EQ(shardIndexOfPath("/a/b/shard-000003.mms"), 3u);
    EXPECT_EQ(shardIndexOfPath("shard-123456.mms"), 123456u);
    EXPECT_FALSE(shardIndexOfPath("/a/b/manifest.mms").has_value());
    EXPECT_FALSE(shardIndexOfPath("/a/b/shard-00000x.mms").has_value());
    EXPECT_FALSE(
        shardIndexOfPath("/a/b/shard-000003.mms.quarantine").has_value());
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

TEST(ErrorTaxonomy, IoErrorCarriesPathSyscallAndErrno)
{
    IoError e("/data/shard-000001.mms", "open", ENOENT, "missing shard");
    EXPECT_EQ(e.path(), "/data/shard-000001.mms");
    EXPECT_EQ(e.sysCall(), "open");
    EXPECT_EQ(e.errnoValue(), ENOENT);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("/data/shard-000001.mms"), std::string::npos);
    EXPECT_NE(msg.find("open"), std::string::npos);
    EXPECT_NE(msg.find(errnoText(ENOENT)), std::string::npos);
    EXPECT_NE(msg.find("missing shard"), std::string::npos);
}

TEST(ErrorTaxonomy, TransientClassificationFollowsTheErrno)
{
    for (int e : {EINTR, EAGAIN, EIO, EBUSY, ETIMEDOUT})
        EXPECT_TRUE(IoError("p", "write", e).transient()) << e;
    for (int e : {ENOENT, EACCES, ENOSPC, EISDIR, 0})
        EXPECT_FALSE(IoError("p", "write", e).transient()) << e;
}

TEST(ErrorTaxonomy, CorruptionErrorCarriesKindAndChecksums)
{
    CorruptionError e("/s/shard-000002.mms",
                      CorruptionError::Kind::ChecksumMismatch,
                      "checksum mismatch", 0xdeadu, 0xbeefu);
    EXPECT_EQ(e.kind(), CorruptionError::Kind::ChecksumMismatch);
    EXPECT_EQ(e.expectedChecksum(), 0xdeadu);
    EXPECT_EQ(e.actualChecksum(), 0xbeefu);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checksum"), std::string::npos);
    EXPECT_NE(msg.find("/s/shard-000002.mms"), std::string::npos);

    CorruptionError s("/s/x", CorruptionError::Kind::ShortRead, "cut off");
    EXPECT_NE(std::string(s.what()).find("short read"), std::string::npos);
}

TEST(ErrorTaxonomy, ResourceErrorNamesTheResource)
{
    ResourceError e("disk space", "cannot commit shard", ENOSPC);
    EXPECT_EQ(e.resource(), "disk space");
    EXPECT_EQ(e.errnoValue(), ENOSPC);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("disk space"), std::string::npos);
    EXPECT_NE(msg.find(errnoText(ENOSPC)), std::string::npos);
}

TEST(ErrorTaxonomy, AllTypesRemainCatchableAsFatalError)
{
    EXPECT_THROW(throw IoError("p", "open", EIO), FatalError);
    EXPECT_THROW(
        throw CorruptionError("p", CorruptionError::Kind::ShortRead, "x"),
        FatalError);
    EXPECT_THROW(throw ResourceError("disk space", "x", ENOSPC),
                 FatalError);
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, RetriesTransientFailuresUntilSuccess)
{
    RetryPolicy policy{5, 0.0, 0.0};
    int calls = 0;
    int result = retryTransient(policy, [&] {
        if (++calls < 4)
            throw IoError("p", "write", EIO, "flaky");
        return 7;
    });
    EXPECT_EQ(result, 7);
    EXPECT_EQ(calls, 4);
}

TEST(RetryPolicyTest, DoesNotRetryNonTransientOrNonIoFailures)
{
    RetryPolicy policy{5, 0.0, 0.0};
    int calls = 0;
    EXPECT_THROW(retryTransient(policy,
                                [&]() -> int {
                                    ++calls;
                                    throw IoError("p", "open", ENOENT);
                                }),
                 IoError);
    EXPECT_EQ(calls, 1);

    calls = 0;
    EXPECT_THROW(
        retryTransient(policy,
                       [&]() -> int {
                           ++calls;
                           throw ResourceError("disk space", "full",
                                               ENOSPC);
                       }),
        ResourceError);
    EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, ExhaustedRetriesRethrowTheLastError)
{
    RetryPolicy policy{2, 0.0, 0.0};
    int calls = 0;
    EXPECT_THROW(retryTransient(policy,
                                [&]() -> int {
                                    ++calls;
                                    throw IoError("p", "write", EIO);
                                }),
                 IoError);
    EXPECT_EQ(calls, 3); // 1 attempt + 2 retries
}

TEST(RetryPolicyTest, EnvKnobsSelectThePolicy)
{
    ScopedEnv retries("MM_IO_RETRIES", "7");
    ScopedEnv backoff("MM_IO_BACKOFF_MS", "0");
    RetryPolicy policy = RetryPolicy::fromEnv();
    EXPECT_EQ(policy.retries, 7);
    EXPECT_DOUBLE_EQ(policy.backoffMs, 0.0);
}

// ---------------------------------------------------------------------------
// Injector mechanics
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, SeededPlansReplayTheSameFaultSchedule)
{
    auto schedule = [](uint64_t seed) {
        ScopedFaults faults(parseFaultPlan("write:p=0.5", seed));
        std::string bits;
        for (int i = 0; i < 64; ++i)
            bits += FaultInjector::instance().onWrite("f", 1) ? '1' : '0';
        return bits;
    };
    EXPECT_EQ(schedule(7), schedule(7));
    EXPECT_NE(schedule(7), schedule(8));
}

TEST(FaultInjectorTest, EnospcBudgetIsSticky)
{
    ScopedFaults faults("enospc:after=1KB");
    auto &inj = FaultInjector::instance();
    EXPECT_EQ(inj.onWrite("a", 512), 0);
    EXPECT_EQ(inj.onWrite("b", 512), 0);
    EXPECT_EQ(inj.onWrite("c", 1), ENOSPC);
    // Sticky: even a tiny later write still fails.
    EXPECT_EQ(inj.onWrite("d", 1), ENOSPC);
}

TEST(FaultInjectorTest, FlipFiresOncePerListedShard)
{
    ScopedFaults faults("flip:shard=2");
    auto &inj = FaultInjector::instance();
    EXPECT_FALSE(inj.shouldFlipCommittedByte("/d/shard-000001.mms"));
    EXPECT_TRUE(inj.shouldFlipCommittedByte("/d/shard-000002.mms"));
    EXPECT_FALSE(inj.shouldFlipCommittedByte("/d/shard-000002.mms"));
    EXPECT_EQ(inj.injectedFlips(), 1u);
}

TEST(FaultInjectorTest, DisarmedInjectorInjectsNothing)
{
    FaultInjector::instance().disarm();
    EXPECT_FALSE(FaultInjector::armed());
    EXPECT_EQ(FaultInjector::instance().onWrite("x", 1 << 20), 0);
    EXPECT_EQ(FaultInjector::instance().onRead("x"), 0);
}

// ---------------------------------------------------------------------------
// Storage under injected faults
// ---------------------------------------------------------------------------

TEST(ChaosStore, TransientWriteFaultsAndBitFlipYieldByteIdenticalStore)
{
    // The acceptance criterion: with transient write failures and one
    // shard bit-flip injected, generateDatasetStreamed completes and
    // its output is byte-identical to the fault-free run — at 1, 4 and
    // 8 lanes. MM_FAULT_SEED varies the schedule in CI.
    ScopedEnv retries("MM_IO_RETRIES", "10");
    ScopedEnv backoff("MM_IO_BACKOFF_MS", "0");
    const uint64_t seed = envSize("MM_FAULT_SEED", 1);
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();

    TempDir clean("clean");
    StreamedDataset baseline = generateDatasetStreamed(
        arch, conv1dAlgo(), chaosDatasetConfig(clean.path));
    StoreImage want = imageOf(baseline);

    for (size_t lanes : {size_t(1), size_t(4), size_t(8)}) {
        TempDir dir("chaos");
        ScopedFaults faults(
            parseFaultPlan("write:p=0.3,flip:shard=1", seed));
        ParallelContext ctx(lanes);
        StreamedDataset sd = generateDatasetStreamed(
            arch, conv1dAlgo(), chaosDatasetConfig(dir.path), &ctx);
        const uint64_t injected =
            FaultInjector::instance().injectedWriteFaults()
            + FaultInjector::instance().injectedFlips();
        FaultInjector::instance().disarm(); // imageOf reads fault-free

        EXPECT_GT(injected, 0u)
            << "plan injected nothing — the chaos run tested nothing";
        expectIdentical(imageOf(sd), want,
                        "lanes=" + std::to_string(lanes));
        EXPECT_EQ(tmpFileCount(dir.path), 0u);
        // The flipped shard was quarantined and regenerated in place.
        EXPECT_TRUE(fs::exists(shardPath(dir.path, 1)));
    }
}

TEST(ChaosStore, EnospcSurfacesAsResourceErrorWithIntactCommittedState)
{
    ScopedEnv backoff("MM_IO_BACKOFF_MS", "0");
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    TempDir dir("enospc");
    DatasetConfig cfg = chaosDatasetConfig(dir.path);

    {
        // Budget for roughly one shard: the store fills mid-run. The
        // failure must cross the hop from the async shard commit back
        // to the generator as a typed ResourceError with its payload
        // intact — not std::terminate, not a flattened message.
        ScopedFaults faults("enospc:after=10KB");
        try {
            generateDatasetStreamed(arch, conv1dAlgo(), cfg);
            FAIL() << "a full disk did not fail the streamed run";
        } catch (const ResourceError &e) {
            EXPECT_EQ(e.errnoValue(), ENOSPC);
            EXPECT_EQ(e.resource(), "disk space");
        }
    }

    // Whatever committed before the disk filled is intact and torn-
    // write free; the failed commit left no tmp litter.
    EXPECT_EQ(tmpFileCount(dir.path), 0u);
    EXPECT_FALSE(fs::exists(manifestPath(dir.path)));
    size_t committed = 0;
    for (size_t s = 0; s < 4; ++s)
        committed += fs::exists(shardPath(dir.path, s));
    EXPECT_LT(committed, 4u);

    // With space back, the same config resumes and completes cleanly.
    StreamedDataset recovered =
        generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    TempDir clean("enospc_clean");
    StreamedDataset baseline = generateDatasetStreamed(
        arch, conv1dAlgo(), chaosDatasetConfig(clean.path));
    expectIdentical(imageOf(recovered), imageOf(baseline), "recovered");
}

TEST(ChaosStore, PersistentWriteFailureExhaustsRetriesAsTypedIoError)
{
    ScopedEnv retries("MM_IO_RETRIES", "2");
    ScopedEnv backoff("MM_IO_BACKOFF_MS", "0");
    ScopedFaults faults("write:p=1");
    TempDir dir("wfail");

    ShardLayout layout;
    layout.rows = 8;
    layout.features = 3;
    layout.outputs = 2;
    layout.shardSize = 8;
    layout.shardCount = 1;
    layout.trainRows = 8;
    layout.testRows = 0;
    layout.configHash = 1;
    ShardStoreWriter writer(dir.path, layout);
    Matrix x(8, 3), y(8, 2);
    try {
        writer.writeShard(0, x, y);
        FAIL() << "p=1 write plan did not fail the commit";
    } catch (const IoError &e) {
        EXPECT_EQ(e.errnoValue(), EIO);
        EXPECT_TRUE(e.transient());
    }
    EXPECT_FALSE(fs::exists(shardPath(dir.path, 0)));
    EXPECT_EQ(tmpFileCount(dir.path), 0u);
}

TEST(ChaosStore, InjectedReadFaultsAreRetriedTransparently)
{
    ScopedEnv retries("MM_IO_RETRIES", "20");
    ScopedEnv backoff("MM_IO_BACKOFF_MS", "0");
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    TempDir dir("readflake");
    StreamedDataset sd = generateDatasetStreamed(
        arch, conv1dAlgo(), chaosDatasetConfig(dir.path));
    StoreImage want = imageOf(sd);

    ScopedFaults faults("read:p=0.4");
    StoreImage got = imageOf(sd); // every shard read through the flake
    EXPECT_GT(FaultInjector::instance().injectedReadFaults(), 0u);
    expectIdentical(got, want, "read retry");
}

TEST(ChaosStore, MappedFileReportsTheInjectedErrno)
{
    TempDir dir("mf");
    fs::create_directories(dir.path);
    const std::string path = dir.path + "/f";
    { std::ofstream(path) << "bytes"; }

    ScopedFaults faults("read:p=1");
    int err = 0;
    EXPECT_FALSE(MappedFile::open(path, &err).has_value());
    EXPECT_EQ(err, EIO);
    FaultInjector::instance().disarm();
    err = -1;
    EXPECT_TRUE(MappedFile::open(path, &err).has_value());
    EXPECT_EQ(err, 0);
    EXPECT_FALSE(MappedFile::open(dir.path + "/absent", &err).has_value());
    EXPECT_EQ(err, ENOENT);
}

TEST(ChaosStore, GatherTimeCorruptionQuarantinesAndHealsViaTheCallback)
{
    // Post-commit bit rot discovered at gather time: the reader
    // quarantines the shard and the installed healer (the dataset
    // crash-resume machinery in production) regenerates it; the gather
    // then returns the true bytes.
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    TempDir dir("rot");
    DatasetConfig cfg = chaosDatasetConfig(dir.path);
    StreamedDataset sd = generateDatasetStreamed(arch, conv1dAlgo(), cfg);
    StoreImage want = imageOf(sd);

    const std::string victim = shardPath(dir.path, 2);
    {
        std::fstream f(victim,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(bool(f));
        f.seekg(0, std::ios::end);
        std::streamoff size = f.tellg();
        f.seekg(size / 2);
        char b = 0;
        f.read(&b, 1);
        b = char(b ^ 0x40);
        f.seekp(size / 2);
        f.write(&b, 1);
    }

    ShardedDatasetReader reader(dir.path, 2);
    reader.setShardHealer([&](size_t s) {
        // Re-label just this shard through the resume machinery: with
        // the manifest intact and one shard missing (quarantined),
        // generateDatasetStreamed regenerates exactly that shard.
        std::error_code ec;
        fs::remove(manifestPath(dir.path), ec);
        generateDatasetStreamed(arch, conv1dAlgo(), cfg);
        (void)s;
    });

    Matrix x, y;
    reader.materialize(0, cfg.samples, x, y); // walks through shard 2
    EXPECT_EQ(reader.quarantinedShards(), 1u);
    EXPECT_TRUE(fs::exists(victim + ".quarantine"));
    EXPECT_EQ(maxAbsDiff(x, want.x), 0.0);
    EXPECT_EQ(maxAbsDiff(y, want.y), 0.0);
}

// ---------------------------------------------------------------------------
// Cache degradation
// ---------------------------------------------------------------------------

namespace {

/** A tiny surrogate to feed the cache-degradation tests. */
Surrogate
tinySurrogate(uint64_t seed)
{
    Rng rng(seed);
    Mlp net(4, {{8, Activation::ReLU}, {1, Activation::Identity}}, rng);
    std::vector<double> zeros(4, 0.0), ones(4, 1.0);
    return Surrogate(std::move(net), FeatureTransform{2},
                     Normalizer::fromMoments(zeros, ones),
                     Normalizer::fromMoments({0.0}, {1.0}), 0);
}

} // namespace

TEST(CacheDegradation, EnospcDegradesToBypassInsteadOfThrowing)
{
    TempDir dir("cache");
    SurrogateCache cache(dir.path);
    Surrogate surrogate = tinySurrogate(3);

    {
        ScopedFaults faults("enospc:after=0");
        EXPECT_NO_THROW(cache.store("fp", surrogate));
        EXPECT_TRUE(cache.bypassed());
        // Degraded: stores are silent no-ops now.
        EXPECT_NO_THROW(cache.store("fp2", surrogate));
        EXPECT_EQ(cache.entryCount(), 0u);
    }

    cache.resetBypass();
    EXPECT_FALSE(cache.bypassed());
    cache.store("fp", surrogate);
    EXPECT_EQ(cache.entryCount(), 1u);
    EXPECT_TRUE(cache.load("fp").has_value());
}

TEST(CacheDegradation, BypassLatchIsPerInstanceNotProcessWide)
{
    // Regression: the ENOSPC latch used to be a process-wide static —
    // one full cache directory silently bypassed *every* cache instance
    // in the process, which is wrong for a multi-tenant server with
    // per-pool directories. A degraded instance must leave siblings
    // (and later instances over other directories) fully operational.
    TempDir full("cache_full");
    TempDir healthy("cache_ok");
    SurrogateCache sick(full.path);
    SurrogateCache sibling(healthy.path);
    Surrogate surrogate = tinySurrogate(5);

    {
        ScopedFaults faults("enospc:after=0");
        sick.store("fp", surrogate);
        EXPECT_TRUE(sick.bypassed());
    }
    // The sibling never saw ENOSPC: it must not have been poisoned and
    // must still persist entries while the sick instance stays latched.
    EXPECT_FALSE(sibling.bypassed());
    sibling.store("fp", surrogate);
    EXPECT_EQ(sibling.entryCount(), 1u);
    EXPECT_TRUE(sibling.load("fp").has_value());
    EXPECT_TRUE(sick.bypassed());
    EXPECT_EQ(sick.entryCount(), 0u);

    // A brand-new instance over the degraded directory starts re-armed:
    // warn-once semantics are per instance, not per path.
    SurrogateCache fresh(full.path);
    EXPECT_FALSE(fresh.bypassed());
    fresh.store("fp", surrogate);
    EXPECT_EQ(fresh.entryCount(), 1u);
}

// ---------------------------------------------------------------------------
// Orchestration isolation
// ---------------------------------------------------------------------------

TEST(RunManyIsolation, OneThrowingRepetitionDoesNotKillTheFleet)
{
    for (int threads : {1, 4}) {
        std::atomic<int> built{0};
        SearcherFactory factory = [&]() -> std::unique_ptr<Searcher> {
            return std::make_unique<FlakySearcher>(built.fetch_add(1), 1);
        };
        MultiRunOptions opts;
        opts.runs = 4;
        opts.threads = threads;
        MultiRunResult res =
            runMany(factory, SearchBudget::bySteps(10), opts);

        ASSERT_EQ(res.runs.size(), 4u);
        EXPECT_EQ(res.failedRuns, 1);
        int failures = 0;
        for (const SearchResult &r : res.runs) {
            if (r.failed()) {
                ++failures;
                EXPECT_NE(r.error.find("I/O error"), std::string::npos);
                EXPECT_NE(r.error.find("/dev/flaky"), std::string::npos);
            }
        }
        EXPECT_EQ(failures, 1);
        // Aggregates cover exactly the three survivors.
        EXPECT_EQ(res.method, "Flaky");
        EXPECT_TRUE(std::isfinite(res.bestNormEdp));
        EXPECT_TRUE(std::isfinite(res.medianNormEdp));
        EXPECT_FALSE(res.bestRun().failed());
        EXPECT_DOUBLE_EQ(res.bestRun().bestNormEdp, res.bestNormEdp);
    }
}

TEST(RunManyIsolation, AllRepetitionsFailingRaisesWithTheFirstError)
{
    SearcherFactory factory = []() -> std::unique_ptr<Searcher> {
        return std::make_unique<FlakySearcher>(1, 1); // always throws
    };
    MultiRunOptions opts;
    opts.runs = 3;
    try {
        runMany(factory, SearchBudget::bySteps(10), opts);
        FAIL() << "a fleet with zero survivors returned";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("repetitions failed"),
                  std::string::npos);
    }
}
