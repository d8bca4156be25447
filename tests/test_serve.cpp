/**
 * @file
 * Serve-frontend tests: the wire protocol (JSON parsing, bit-exact
 * hexfloat travel, request validation, mapping round-trips), the
 * single-flight surrogate pool, and the server lifecycle — including
 * the headline guarantee that a served search is bitwise identical to
 * the same spec/seed run offline while a second tenant disconnects
 * mid-run, plus admission control, disconnect cancellation and the
 * failure-isolation path.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/rng.hpp"
#include "core/cache.hpp"
#include "core/phase1.hpp"
#include "counting_allocator.hpp"
#include "mapping/map_space.hpp"
#include "search/orchestrator.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/surrogate_pool.hpp"

namespace mm::serve {
namespace {

namespace fs = std::filesystem;

/** Self-cleaning scratch directory (one per use, collision-free). */
struct TempDir
{
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<int> counter{0};
        path = (fs::temp_directory_path()
                / ("mm_serve_" + tag + "_" + std::to_string(::getpid())
                   + "_" + std::to_string(counter.fetch_add(1))))
                   .string();
        fs::create_directories(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    std::string path;
};

uint64_t
bits(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** Poll @p cond (relaxed metrics reads) until true or ~@p ms elapse. */
template <typename Cond>
bool
eventually(Cond &&cond, int ms = 15000)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (cond())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cond();
}

/** A request that keeps a worker busy until it is cancelled. */
ServeRequest
longRandomRequest(const std::string &id)
{
    ServeRequest req;
    req.id = id;
    req.arch = "tiny";
    req.algo = "conv1d";
    req.problemName = "long";
    req.bounds = {256, 5};
    req.method = "Random";
    req.steps = 2'000'000'000;
    req.seed = 7;
    req.progressEvery = 2000;
    return req;
}

// ---------------------------------------------------------------------------
// JSON layer
// ---------------------------------------------------------------------------

TEST(ServeJson, ParsesNestedDocuments)
{
    std::optional<JsonValue> doc = parseJson(
        R"({"a":1,"b":[true,null,"x\n"],"c":-2.5,"d":{"e":"f"}})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->getInt("a", -1), 1);
    const JsonValue *b = doc->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].isBool() && b->array[0].boolean());
    EXPECT_TRUE(b->array[1].isNull());
    EXPECT_EQ(b->array[2].str(), "x\n");
    EXPECT_EQ(doc->getDouble("c", 0.0), -2.5);
    const JsonValue *d = doc->find("d");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->getStr("e", ""), "f");
}

TEST(ServeJson, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\":", &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseJson("{} trailing", &err).has_value());
    EXPECT_FALSE(parseJson("", &err).has_value());
}

TEST(ServeJson, RejectsPathologicalNesting)
{
    // Regression: '[[[[…' with ~100k open brackets used to recurse once
    // per bracket and overflow the stack; the depth cap must turn it
    // into an ordinary parse error.
    std::string err;
    EXPECT_FALSE(parseJson(std::string(100'000, '['), &err).has_value());
    EXPECT_FALSE(err.empty());

    // A well-formed document deeper than the cap is rejected too...
    std::string deep = std::string(65, '[') + std::string(65, ']');
    EXPECT_FALSE(parseJson(deep).has_value());
    // ...while nesting at the cap still parses.
    std::string atCap = std::string(64, '[') + std::string(64, ']');
    EXPECT_TRUE(parseJson(atCap).has_value());
}

TEST(ServeJson, HexfloatRoundTripIsBitExact)
{
    const double values[] = {0.0,
                             -0.0,
                             0.1,
                             1.0 / 3.0,
                             1e-300,
                             5e-324, // smallest denormal
                             123456.789,
                             std::numeric_limits<double>::infinity()};
    for (double v : values) {
        // Travel exactly as the protocol does: embedded in a document.
        std::string doc = "{\"v\":" + jsonHexDouble(v) + "}";
        std::optional<JsonValue> parsed = parseJson(doc);
        ASSERT_TRUE(parsed.has_value()) << doc;
        std::optional<double> back =
            parseHexDouble(parsed->getStr("v", ""));
        ASSERT_TRUE(back.has_value()) << doc;
        EXPECT_EQ(bits(*back), bits(v)) << doc;
    }
}

/** A one-run result line as mm_serve sends it, for @p problem's space. */
std::string
resultLine(const Problem &problem, uint64_t seed, Mapping *best)
{
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    MapSpace space(arch, problem);
    CostModel model(space);
    Rng rng(seed);
    SearchResult run;
    run.method = "SA";
    run.steps = 1000;
    run.best = space.randomValid(rng);
    run.bestNormEdp = model.normalizedEdp(run.best);
    run.virtualSec = 1000 * 0.0123;
    MultiRunResult r;
    r.method = run.method;
    r.bestNormEdp = r.medianNormEdp = run.bestNormEdp;
    r.runs.push_back(run);
    *best = run.best;
    return makeResult("c1-42", r, false);
}

TEST(ServeJson, ParsedResultIsCompact)
{
    static_assert(sizeof(JsonValue) <= 24);
    // Regression: a node used to be 112 bytes (a string, two vectors
    // and three scalars each), and a parsed ~450-byte CNN result line
    // kept ~11.7 KB of heap; clients that keep replies grew by that
    // much per request. The heap a parsed reply owns must stay near its
    // wire size. The top-level node lives wherever the caller keeps
    // it, so the slots are allocated before counting.
    for (const Problem &problem :
         {table1Cnn().front(), table1Mttkrp().front()}) {
        Mapping best;
        const std::string line = resultLine(problem, 5, &best);
        constexpr int kDocs = 64;
        std::vector<std::optional<JsonValue>> docs(kDocs);
        const int64_t before = test::liveHeapBytes;
        for (auto &doc : docs)
            doc = parseJson(line);
        const double perDoc = double(test::liveHeapBytes - before) / kDocs;
        std::printf("[ compact  ] %s: %zu-byte line -> %.0f heap bytes\n",
                    problem.name.c_str(), line.size(), perDoc);
        EXPECT_LE(perDoc, 3.5 * 1024)
            << problem.name << ": " << line.size() << "-byte line";

        // Still the same reply, read through the compact layout.
        const JsonValue *runs = docs.back()->find("runs");
        ASSERT_NE(runs, nullptr);
        ASSERT_EQ(runs->array.size(), 1u);
        EXPECT_TRUE(mappingFromJson(*runs->array.front().find("best"))
                    == best);

        for (auto &doc : docs)
            doc.reset();
        EXPECT_EQ(test::liveHeapBytes, before) << "parsed replies leaked";
    }
}

TEST(ServeJson, CompactValuesCopyMoveAndReadSafely)
{
    Mapping best;
    const std::string line = resultLine(table1Cnn().front(), 9, &best);
    const int64_t before = test::liveHeapBytes;
    {
        // Copies are deep: they outlive their source.
        std::optional<JsonValue> original = parseJson(line);
        ASSERT_TRUE(original.has_value());
        JsonValue copy = *original;
        JsonValue assigned = *parseJson(R"({"old":[1,2,"three"]})");
        assigned = copy;
        original.reset();
        for (const JsonValue *v : {&copy, &assigned}) {
            EXPECT_EQ(v->getStr("type", ""), "result");
            EXPECT_EQ(v->getStr("id", ""), "c1-42");
            EXPECT_EQ(v->getInt("failedRuns", -1), 0);
            EXPECT_EQ(v->find("old"), nullptr);
            const JsonValue &run = v->find("runs")->array[0];
            EXPECT_EQ(run.getInt("steps", -1), 1000);
            EXPECT_TRUE(*mappingFromJson(*run.find("best")) == best);
        }

        // Moves hand the block over and leave the source Null.
        JsonValue moved = std::move(copy);
        EXPECT_TRUE(copy.isNull());
        EXPECT_TRUE(copy.array.empty());
        EXPECT_EQ(copy.find("type"), nullptr);
        EXPECT_EQ(moved.getStr("type", ""), "result");
        assigned = std::move(moved);
        EXPECT_TRUE(moved.isNull());
        EXPECT_EQ(assigned.getStr("id", ""), "c1-42");
    }
    EXPECT_EQ(test::liveHeapBytes, before) << "copies or moves leaked";

    // Reads of the wrong kind are defined and empty, never UB: a
    // hostile reply may put any kind where a client expects another.
    std::optional<JsonValue> doc =
        parseJson(R"({"i":7,"s":"text","a":[1],"o":{"k":1},"n":null,)"
                  R"("b":true,"d":0.5,"e":[],"es":""})");
    ASSERT_TRUE(doc.has_value());
    for (const char *key : {"i", "s", "o", "n", "b", "d", "es"}) {
        const JsonValue &v = *doc->find(key);
        EXPECT_EQ(v.array.size(), 0u) << key;
        EXPECT_TRUE(v.array.empty()) << key;
        EXPECT_EQ(v.array.begin(), v.array.end()) << key;
        size_t seen = 0;
        for ([[maybe_unused]] const JsonValue &e : v.array)
            ++seen;
        EXPECT_EQ(seen, 0u) << key;
    }
    for (const char *key : {"i", "a", "o", "n", "b", "d", "e"}) {
        EXPECT_TRUE(doc->find(key)->str().empty()) << key;
        EXPECT_FALSE(doc->find(key)->isString()) << key;
    }
    for (const char *key : {"i", "s", "a", "n", "b", "d", "e", "es"})
        EXPECT_EQ(doc->find(key)->find("k"), nullptr) << key;
    EXPECT_EQ(doc->find("s")->integer(), 0);
    EXPECT_FALSE(doc->find("i")->boolean());
    EXPECT_EQ(doc->find("s")->asDouble(), 0.0);
    EXPECT_EQ(doc->find("o")->getInt("k", -1), 1);
    EXPECT_EQ(doc->find("a")->array.size(), 1u);
    EXPECT_TRUE(doc->find("e")->isArray());
    EXPECT_TRUE(doc->find("es")->isString());
    EXPECT_EQ(doc->find("d")->asDouble(), 0.5);
    EXPECT_EQ(doc->find("i")->asDouble(), 7.0);

    // Integers above int64 keep their exact value as Uint.
    for (uint64_t seed : {uint64_t(1) << 63, (uint64_t(1) << 63) + 1,
                          ~uint64_t(0)}) {
        std::optional<JsonValue> v =
            parseJson("{\"seed\":" + std::to_string(seed) + "}");
        ASSERT_TRUE(v.has_value());
        const JsonValue &s = *v->find("seed");
        EXPECT_EQ(s.kind(), JsonKind::Uint);
        EXPECT_TRUE(s.isNumber());
        EXPECT_FALSE(s.isInt());
        EXPECT_EQ(s.integer(), 0);
        EXPECT_EQ(s.asUint64(), seed);
        EXPECT_EQ(s.asDouble(), double(seed));
        EXPECT_EQ(v->getInt("seed", -1), -1);
        JsonValue copy = s;
        EXPECT_EQ(copy.asUint64(), seed);
    }
}

// ---------------------------------------------------------------------------
// Protocol layer
// ---------------------------------------------------------------------------

TEST(ServeProtocol, ParsesAndValidatesRequests)
{
    std::string err;
    std::optional<ServeRequest> req = parseRequest(
        R"({"id":"r1","arch":"tiny","algo":"conv1d","bounds":[64,3],)"
        R"("method":"SA","steps":10,"runs":2,"seed":5,"trace":true})",
        &err);
    ASSERT_TRUE(req.has_value()) << err;
    EXPECT_EQ(req->id, "r1");
    EXPECT_EQ(req->method, "SA");
    EXPECT_EQ(req->steps, 10);
    EXPECT_EQ(req->runs, 2);
    EXPECT_EQ(req->seed, 5u);
    EXPECT_TRUE(req->trace);
    ASSERT_EQ(req->bounds.size(), 2u);

    // Every rejection fills a client-presentable reason.
    const char *bad[] = {
        R"({"arch":"tiny","algo":"conv1d","bounds":[64,3],"steps":1})",
        R"({"id":"x","algo":"conv1d","bounds":[64,3,2],"steps":1})",
        R"({"id":"x","algo":"conv1d","bounds":[64,3]})",
        R"({"id":"x","algo":"nope","bounds":[64,3],"steps":1})",
        R"({"id":"x","arch":"nope","algo":"conv1d","bounds":[64,3],"steps":1})",
        R"({"id":"x","algo":"conv1d","bounds":[64,0],"steps":1})",
        R"({"id":"x","algo":"conv1d","bounds":[],"steps":1})",
        // Regression: 2^32+1 used to truncate to int 1 and slip past
        // the runs >= 1 check; large-but-representable values must
        // bounce off the cap instead of pre-allocating a sink per run.
        R"({"id":"x","algo":"conv1d","bounds":[64,3],"steps":1,"runs":4294967297})",
        R"({"id":"x","algo":"conv1d","bounds":[64,3],"steps":1,"runs":1000000000})",
        R"({"id":"x","algo":"conv1d","bounds":[64,3],"steps":1,"runs":0})",
        R"({"id":"x","algo":"conv1d","bounds":[64,3],"steps":1,"runs":-1})",
        R"(not json at all)",
    };
    for (const char *line : bad) {
        err.clear();
        EXPECT_FALSE(parseRequest(line, &err).has_value()) << line;
        EXPECT_FALSE(err.empty()) << line;
    }

    // The cap itself is admissible.
    std::optional<ServeRequest> atCap = parseRequest(
        R"({"id":"x","algo":"conv1d","bounds":[64,3],"steps":1,"runs":)"
            + std::to_string(kMaxRuns) + "}",
        &err);
    ASSERT_TRUE(atCap.has_value()) << err;
    EXPECT_EQ(atCap->runs, int(kMaxRuns));
}

TEST(ServeProtocol, BudgetIntersectsServerWallCap)
{
    ServeRequest req;
    req.steps = 100;
    req.wallSec = 30.0;
    SearchBudget b = budgetFor(req, 5.0);
    EXPECT_EQ(b.maxSteps, 100);
    EXPECT_EQ(b.maxWallSec, 5.0);
    b = budgetFor(req, 0.0); // no server cap
    EXPECT_EQ(b.maxWallSec, 30.0);
}

TEST(ServeProtocol, ClientBudgetsTravelAsHexfloatBitExact)
{
    // Regression: budgets used to ride the wire as %.17g decimals —
    // the one double field whose text depended on the client libc's
    // rounding. They must travel as quoted hexfloats like every other
    // double and parse back bit-identical.
    ServeRequest req;
    req.id = "b1";
    req.algo = "conv1d";
    req.bounds = {64, 3};
    req.steps = 10;
    req.virtualSec = 0.1;       // not exactly representable
    req.wallSec = 1.0 / 3.0;    // ditto
    const std::string line = requestToJson(req);
    EXPECT_NE(line.find("\"virtualSec\":\"0x"), std::string::npos) << line;
    EXPECT_NE(line.find("\"wallSec\":\"0x"), std::string::npos) << line;

    std::string err;
    std::optional<ServeRequest> back = parseRequest(line, &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(bits(back->virtualSec), bits(req.virtualSec));
    EXPECT_EQ(bits(back->wallSec), bits(req.wallSec));
}

TEST(ServeProtocol, SeedsSpanTheFullUint64Range)
{
    // Regression: seeds >= 2^63 parsed as JSON doubles and the request
    // silently ran with the default seed 1. ServeClient prints any
    // uint64 seed, so the server must take the whole range exactly.
    for (uint64_t seed : {uint64_t(0), uint64_t(1), uint64_t(1) << 63,
                          (uint64_t(1) << 63) + 1, ~uint64_t(0)}) {
        ServeRequest req;
        req.id = "seed";
        req.algo = "conv1d";
        req.bounds = {64, 3};
        req.steps = 10;
        req.seed = seed;
        std::string err;
        std::optional<ServeRequest> back =
            parseRequest(requestToJson(req), &err);
        ASSERT_TRUE(back.has_value()) << err;
        EXPECT_EQ(back->seed, seed);
    }

    // Anything that is not such an integer is refused, never replaced.
    for (const char *seed :
         {"-1", "18446744073709551616", "1.5", "1e3", "\"7\"", "null"}) {
        const std::string line =
            std::string(
                R"({"id":"x","algo":"conv1d","bounds":[64,3],"steps":1,)")
            + R"("seed":)" + seed + "}";
        std::string err;
        EXPECT_FALSE(parseRequest(line, &err).has_value()) << line;
        EXPECT_NE(err.find("seed"), std::string::npos) << err;
    }
}

TEST(ServeProtocol, MappingRoundTripsThroughJson)
{
    AcceleratorSpec arch = AcceleratorSpec::tinyDefault();
    Problem problem = makeProblem(conv1dAlgo(), "map-rt", {256, 5});
    MapSpace space(arch, problem);
    Rng rng(17);
    for (int i = 0; i < 8; ++i) {
        Mapping m = space.randomValid(rng);
        std::optional<JsonValue> doc = parseJson(mappingToJson(m));
        ASSERT_TRUE(doc.has_value());
        std::optional<Mapping> back = mappingFromJson(*doc);
        ASSERT_TRUE(back.has_value());
        EXPECT_TRUE(*back == m);
    }
    EXPECT_FALSE(mappingFromJson(*parseJson("{}")).has_value());
    EXPECT_FALSE(mappingFromJson(*parseJson("[1,2]")).has_value());
}

// ---------------------------------------------------------------------------
// Surrogate pool + server lifecycle (shares one small trained surrogate)
// ---------------------------------------------------------------------------

class ServeFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        arch = new AcceleratorSpec(AcceleratorSpec::paperDefault());
        phase1 = new Phase1Config();
        phase1->data.samples = 2000;
        phase1->data.problemCount = 8;
        phase1->data.seed = 11;
        phase1->train.epochs = 4;
        phase1->hidden = {24, 32, 24};
        phase1->seed = 13;
        trained =
            new Phase1Result(trainSurrogate(*arch, conv1dAlgo(), *phase1));

        // Pre-store the model under the pool's key: servers built on
        // baseConfig() hit the disk tier instead of retraining per test.
        cacheDir = new TempDir("fixture_cache");
        Phase1Config resolved = *phase1;
        resolved.resolve();
        SurrogateCache cache(cacheDir->path);
        cache.store(resolved.fingerprint(*arch, conv1dAlgo()),
                    trained->surrogate);
    }

    static void
    TearDownTestSuite()
    {
        delete cacheDir;
        delete trained;
        delete phase1;
        delete arch;
        cacheDir = nullptr;
        trained = nullptr;
        phase1 = nullptr;
        arch = nullptr;
    }

    static ServeConfig
    baseConfig()
    {
        ServeConfig cfg;
        cfg.port = 0; // ephemeral
        cfg.phase1 = *phase1;
        cfg.cacheDir = cacheDir->path;
        cfg.useCache = true;
        return cfg;
    }

    static AcceleratorSpec *arch;
    static Phase1Config *phase1;
    static Phase1Result *trained;
    static TempDir *cacheDir;
};

AcceleratorSpec *ServeFixture::arch = nullptr;
Phase1Config *ServeFixture::phase1 = nullptr;
Phase1Result *ServeFixture::trained = nullptr;
TempDir *ServeFixture::cacheDir = nullptr;

TEST_F(ServeFixture, PoolColdMissIsSingleFlight)
{
    TempDir dir("pool_sf");
    std::atomic<int> trains{0};
    SurrogatePool pool(
        *phase1, dir.path, /*useCache=*/false, nullptr,
        [&trains](const AcceleratorSpec &, const AlgorithmSpec &,
                  const Phase1Config &) {
            trains.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            return trained->surrogate;
        });

    std::shared_ptr<Surrogate> a, b;
    std::thread t1([&] { a = pool.acquire(*arch, conv1dAlgo()); });
    std::thread t2([&] { b = pool.acquire(*arch, conv1dAlgo()); });
    t1.join();
    t2.join();

    EXPECT_EQ(trains.load(), 1);
    EXPECT_EQ(pool.trainings(), 1u);
    EXPECT_EQ(pool.residentCount(), 1u);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a, b); // one master, shared

    // Third acquire is a pure memory-tier hit.
    EXPECT_EQ(pool.acquire(*arch, conv1dAlgo()), a);
    EXPECT_EQ(pool.trainings(), 1u);
}

TEST_F(ServeFixture, PoolDiskTierAvoidsRetraining)
{
    SurrogatePool pool(
        *phase1, cacheDir->path, /*useCache=*/true, nullptr,
        [](const AcceleratorSpec &, const AlgorithmSpec &,
           const Phase1Config &) -> Surrogate {
            throw std::runtime_error("disk tier must satisfy this");
        });
    std::shared_ptr<Surrogate> s = pool.acquire(*arch, conv1dAlgo());
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(pool.trainings(), 0u);
    EXPECT_EQ(pool.residentCount(), 1u);
}

TEST_F(ServeFixture, PoolFailedTrainingReleasesTheKey)
{
    TempDir dir("pool_retry");
    std::atomic<int> calls{0};
    SurrogatePool pool(
        *phase1, dir.path, /*useCache=*/false, nullptr,
        [&calls](const AcceleratorSpec &, const AlgorithmSpec &,
                 const Phase1Config &) {
            if (calls.fetch_add(1) == 0)
                throw std::runtime_error("transient");
            return trained->surrogate;
        });
    EXPECT_THROW(pool.acquire(*arch, conv1dAlgo()), std::runtime_error);
    EXPECT_EQ(pool.residentCount(), 0u);
    std::shared_ptr<Surrogate> s = pool.acquire(*arch, conv1dAlgo());
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(calls.load(), 2);
}

/**
 * The headline acceptance test: tenant B's pooled MM-P search, served
 * while tenant A streams and then disconnects mid-run, is bitwise
 * identical to the same spec/seed run offline through runMany.
 */
TEST_F(ServeFixture, ServedSearchIsBitwiseIdenticalToOffline)
{
    ServeConfig cfg = baseConfig();
    cfg.workers = 2;
    cfg.queueCap = 4;
    SearchServer server(cfg);
    server.start();

    // Tenant A occupies one worker and streams heartbeats.
    ServeClient a;
    ASSERT_TRUE(a.connectTo(server.port()));
    ASSERT_TRUE(a.sendRequest(longRandomRequest("tenant-a")));
    ASSERT_TRUE(a.waitFor("accepted", "tenant-a").has_value());
    ASSERT_TRUE(a.waitFor("progress", "tenant-a").has_value());

    // Tenant B runs the pooled surrogate path on the other worker.
    ServeClient b;
    ASSERT_TRUE(b.connectTo(server.port()));
    ServeRequest rb;
    rb.id = "tenant-b";
    rb.arch = "paper";
    rb.algo = "conv1d";
    rb.problemName = "serve-bit";
    rb.bounds = {120, 4};
    rb.method = "MM-P:chains=4";
    rb.steps = 120;
    rb.runs = 2;
    rb.seed = 99;
    rb.progressEvery = 25;
    rb.trace = true;
    ASSERT_TRUE(b.sendRequest(rb));
    ASSERT_TRUE(b.waitFor("accepted", "tenant-b").has_value());
    ASSERT_TRUE(b.waitFor("progress", "tenant-b").has_value());

    // A vanishes mid-run; B must survive its neighbour's cancellation.
    a.close();

    std::optional<JsonValue> result = b.waitFor("result", "tenant-b");
    ASSERT_TRUE(result.has_value());

    // The offline reference: same spec, seed, problem and surrogate.
    Problem problem = makeProblem(conv1dAlgo(), "serve-bit", {120, 4});
    MapSpace space(*arch, problem);
    CostModel model(space);
    Surrogate copy = trained->surrogate;
    MultiRunOptions opts;
    opts.runs = 2;
    opts.baseSeed = 99;
    opts.threads = 1;
    opts.collectTrace = true;
    MultiRunResult offline =
        runMany("MM-P:chains=4", SearcherBuildContext{model, &copy},
                SearchBudget::bySteps(120), opts);

    std::optional<double> best =
        parseHexDouble(result->getStr("bestNormEdp", ""));
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(bits(*best), bits(offline.bestNormEdp));
    std::optional<double> median =
        parseHexDouble(result->getStr("medianNormEdp", ""));
    ASSERT_TRUE(median.has_value());
    EXPECT_EQ(bits(*median), bits(offline.medianNormEdp));
    EXPECT_EQ(result->getInt("failedRuns", -1), offline.failedRuns);

    const JsonValue *runs = result->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), offline.runs.size());
    for (size_t r = 0; r < offline.runs.size(); ++r) {
        const JsonValue &served = runs->array[r];
        const SearchResult &off = offline.runs[r];
        EXPECT_EQ(served.getInt("steps", -1), off.steps) << "run " << r;

        std::optional<double> edp =
            parseHexDouble(served.getStr("bestNormEdp", ""));
        ASSERT_TRUE(edp.has_value()) << "run " << r;
        EXPECT_EQ(bits(*edp), bits(off.bestNormEdp)) << "run " << r;
        std::optional<double> vsec =
            parseHexDouble(served.getStr("virtualSec", ""));
        ASSERT_TRUE(vsec.has_value()) << "run " << r;
        EXPECT_EQ(bits(*vsec), bits(off.virtualSec)) << "run " << r;

        const JsonValue *bestMap = served.find("best");
        ASSERT_NE(bestMap, nullptr) << "run " << r;
        std::optional<Mapping> mapping = mappingFromJson(*bestMap);
        ASSERT_TRUE(mapping.has_value()) << "run " << r;
        EXPECT_TRUE(*mapping == off.best) << "run " << r;

        const JsonValue *trace = served.find("trace");
        ASSERT_NE(trace, nullptr) << "run " << r;
        ASSERT_EQ(trace->array.size(), off.trace.size()) << "run " << r;
        for (size_t i = 0; i < off.trace.size(); ++i) {
            const JsonValue &point = trace->array[i];
            ASSERT_EQ(point.array.size(), 3u);
            EXPECT_EQ(point.array[0].integer(), off.trace[i].step);
            std::optional<double> pv = parseHexDouble(point.array[1].str());
            std::optional<double> pb = parseHexDouble(point.array[2].str());
            ASSERT_TRUE(pv.has_value() && pb.has_value());
            EXPECT_EQ(bits(*pv), bits(off.trace[i].virtualSec));
            EXPECT_EQ(bits(*pb), bits(off.trace[i].bestNormEdp));
        }
    }

    // A's disconnect is accounted as a cancellation once its search
    // observes the stop token.
    const ServeMetrics &m = server.metrics();
    EXPECT_TRUE(eventually([&] { return m.cancelled.load() >= 1; }));
    // The result line can reach the client before the worker bumps its
    // counter — poll instead of snapshotting.
    EXPECT_TRUE(eventually([&] { return m.completed.load() >= 1; }));
    EXPECT_GE(m.progressEvents.load(), 2u);
    EXPECT_GE(m.poolDiskHits.load() + m.poolWarmHits.load(), 1u);
    server.stop();
}

TEST_F(ServeFixture, DisconnectCancelsAndFreesTheWorker)
{
    ServeConfig cfg = baseConfig();
    cfg.workers = 1;
    cfg.queueCap = 2;
    SearchServer server(cfg);
    server.start();

    {
        ServeClient c;
        ASSERT_TRUE(c.connectTo(server.port()));
        ASSERT_TRUE(c.sendRequest(longRandomRequest("goner")));
        ASSERT_TRUE(c.waitFor("accepted", "goner").has_value());
        ASSERT_TRUE(c.waitFor("progress", "goner").has_value());
    } // hard disconnect mid-run

    const ServeMetrics &m = server.metrics();
    ASSERT_TRUE(eventually([&] {
        return m.cancelled.load() >= 1 && m.activeWorkers.load() == 0;
    }));

    // The worker is free again: a small request completes end to end.
    ServeClient d;
    ASSERT_TRUE(d.connectTo(server.port()));
    ServeRequest small = longRandomRequest("after");
    small.steps = 64;
    small.progressEvery = 0;
    ASSERT_TRUE(d.sendRequest(small));
    ASSERT_TRUE(d.waitFor("accepted", "after").has_value());
    std::optional<JsonValue> result = d.waitFor("result", "after");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->getInt("failedRuns", -1), 0);
    server.stop();
}

TEST_F(ServeFixture, ConnectionChurnIsReapedAndServerStaysLive)
{
    // Regression for the reader reaper: finished reader threads are
    // spliced out under connMtx but joined outside it, so a burst of
    // short-lived connections must neither wedge the accept loop nor
    // leak reader slots — the server stays responsive throughout.
    ServeConfig cfg = baseConfig();
    cfg.workers = 1;
    cfg.queueCap = 4;
    SearchServer server(cfg);
    server.start();

    for (int round = 0; round < 12; ++round) {
        ServeClient c;
        ASSERT_TRUE(c.connectTo(server.port())) << "round " << round;
        if (round % 3 == 0) {
            // Some churners speak a little garbage first; the reply
            // proves the reader processed it before the disconnect.
            ASSERT_TRUE(c.sendLine("{\"nope\":1}"));
            ASSERT_TRUE(c.waitFor("rejected", "").has_value());
        }
    } // each round's hard close marks its reader finished

    // The next accept reaps the backlog; a real request still runs
    // end to end.
    ServeClient d;
    ASSERT_TRUE(d.connectTo(server.port()));
    ServeRequest req = longRandomRequest("churn");
    req.steps = 64;
    req.progressEvery = 0;
    ASSERT_TRUE(d.sendRequest(req));
    ASSERT_TRUE(d.waitFor("accepted", "churn").has_value());
    std::optional<JsonValue> result = d.waitFor("result", "churn");
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->getInt("failedRuns", -1), 0);
    server.stop();
}

TEST_F(ServeFixture, AdmissionControlRejectsWhenQueueIsFull)
{
    ServeConfig cfg = baseConfig();
    cfg.workers = 1;
    cfg.queueCap = 1;
    SearchServer server(cfg);
    server.start();

    ServeClient c;
    ASSERT_TRUE(c.connectTo(server.port()));

    // q1 occupies the only worker (its first progress line proves it
    // left the queue), q2 fills the queue, q3 must bounce.
    ASSERT_TRUE(c.sendRequest(longRandomRequest("q1")));
    ASSERT_TRUE(c.waitFor("accepted", "q1").has_value());
    ASSERT_TRUE(c.waitFor("progress", "q1").has_value());
    ASSERT_TRUE(c.sendRequest(longRandomRequest("q2")));
    ASSERT_TRUE(c.waitFor("accepted", "q2").has_value());
    ASSERT_TRUE(c.sendRequest(longRandomRequest("q3")));
    std::optional<JsonValue> rejected = c.waitFor("rejected", "q3");
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(rejected->getStr("reason", ""), "queue full");
    EXPECT_GE(server.metrics().rejected.load(), 1u);

    // Disconnect reclaims both the running and the queued job.
    c.close();
    const ServeMetrics &m = server.metrics();
    EXPECT_TRUE(eventually([&] { return m.cancelled.load() >= 2; }));
    server.stop();
}

TEST_F(ServeFixture, ConcurrentColdRequestsTrainOnce)
{
    ServeConfig cfg = baseConfig();
    cfg.workers = 2;
    cfg.useCache = false; // force the cold path
    std::atomic<int> trains{0};
    cfg.trainer = [&trains](const AcceleratorSpec &,
                            const AlgorithmSpec &, const Phase1Config &) {
        trains.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return trained->surrogate;
    };
    SearchServer server(cfg);
    server.start();

    ServeClient a, b;
    ASSERT_TRUE(a.connectTo(server.port()));
    ASSERT_TRUE(b.connectTo(server.port()));
    ServeRequest req;
    req.arch = "paper";
    req.algo = "conv1d";
    req.problemName = "cold";
    req.bounds = {120, 4};
    req.method = "MM";
    req.steps = 40;
    req.id = "cold-a";
    req.seed = 3;
    ASSERT_TRUE(a.sendRequest(req));
    req.id = "cold-b";
    req.seed = 4;
    ASSERT_TRUE(b.sendRequest(req));

    EXPECT_TRUE(a.waitFor("result", "cold-a").has_value());
    EXPECT_TRUE(b.waitFor("result", "cold-b").has_value());
    EXPECT_EQ(trains.load(), 1);
    EXPECT_EQ(server.pool().trainings(), 1u);
    EXPECT_EQ(server.metrics().poolTrainings.load(), 1u);
    server.stop();
}

TEST_F(ServeFixture, BadLinesAndBadMethodsAreIsolated)
{
    ServeConfig cfg = baseConfig();
    SearchServer server(cfg);
    server.start();

    ServeClient c;
    ASSERT_TRUE(c.connectTo(server.port()));

    // Malformed line: rejected without an id, connection stays usable.
    ASSERT_TRUE(c.sendLine("this is not json"));
    std::optional<JsonValue> event = c.readEvent();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->getStr("type", ""), "rejected");
    EXPECT_EQ(event->getStr("id", "?"), "");

    // Unknown method passes admission (the registry is consulted at run
    // time) and comes back as a terminal error — never a dead server.
    ServeRequest req = longRandomRequest("nope");
    req.method = "NoSuchMethod";
    req.steps = 10;
    ASSERT_TRUE(c.sendRequest(req));
    ASSERT_TRUE(c.waitFor("accepted", "nope").has_value());
    std::optional<JsonValue> error = c.waitFor("error", "nope");
    ASSERT_TRUE(error.has_value());
    EXPECT_FALSE(error->getStr("message", "").empty());
    EXPECT_GE(server.metrics().failed.load(), 1u);

    // The server still serves: a well-formed request completes.
    ServeRequest ok = longRandomRequest("still-up");
    ok.steps = 64;
    ok.progressEvery = 0;
    ASSERT_TRUE(c.sendRequest(ok));
    EXPECT_TRUE(c.waitFor("result", "still-up").has_value());
    server.stop();
}

TEST_F(ServeFixture, SmallRepliesAreNotDelayed)
{
    // Regression: neither end set TCP_NODELAY, so after the accepted
    // line every small event waited for the peer's delayed ACK and a
    // ~1 ms search took ~44 ms to come back. Twenty sequential short
    // searches on one connection must round-trip in a few ms each.
    SearchServer server(baseConfig());
    server.start();
    ServeClient c;
    ASSERT_TRUE(c.connectTo(server.port()));
    std::vector<double> roundTrips;
    for (int i = 0; i < 20; ++i) {
        ServeRequest req = longRandomRequest("small-" + std::to_string(i));
        req.steps = 50;
        req.progressEvery = 10;
        const auto t0 = std::chrono::steady_clock::now();
        ASSERT_TRUE(c.sendRequest(req));
        ASSERT_TRUE(c.waitFor("result", req.id).has_value());
        roundTrips.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
    }
    std::sort(roundTrips.begin(), roundTrips.end());
    const double median =
        0.5 * (roundTrips[roundTrips.size() / 2 - 1]
               + roundTrips[roundTrips.size() / 2]);
    EXPECT_LT(median, 10.0) << "median round trip in ms";
    server.stop();
}

TEST_F(ServeFixture, BranchAndBoundMethodIsServable)
{
    ServeConfig cfg = baseConfig();
    SearchServer server(cfg);
    server.start();

    ServeClient c;
    ASSERT_TRUE(c.connectTo(server.port()));
    ServeRequest req;
    req.id = "bb-serve";
    req.arch = "paper";
    req.algo = "conv1d";
    req.problemName = "serve-bb";
    req.bounds = {16, 4};
    req.method = "BB:maxNodes=300";
    req.steps = 80;
    req.seed = 7;
    ASSERT_TRUE(c.sendRequest(req));
    ASSERT_TRUE(c.waitFor("accepted", "bb-serve").has_value());
    std::optional<JsonValue> result = c.waitFor("result", "bb-serve");
    ASSERT_TRUE(result.has_value());

    std::optional<double> best =
        parseHexDouble(result->getStr("bestNormEdp", ""));
    ASSERT_TRUE(best.has_value());
    EXPECT_TRUE(std::isfinite(*best));
    EXPECT_GE(*best, 1.0 - 1e-9); // admissible normalization

    // The served best mapping round-trips and is a space member.
    const JsonValue *runs = result->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_FALSE(runs->array.empty());
    const JsonValue *bestMap = runs->array[0].find("best");
    ASSERT_NE(bestMap, nullptr);
    std::optional<Mapping> mapping = mappingFromJson(*bestMap);
    ASSERT_TRUE(mapping.has_value());
    Problem problem = makeProblem(conv1dAlgo(), "serve-bb", {16, 4});
    MapSpace space(*arch, problem);
    EXPECT_TRUE(space.isMember(*mapping));
    server.stop();
}

TEST_F(ServeFixture, OversizedLineIsRejectedAndConnectionDropped)
{
    ServeConfig cfg = baseConfig();
    SearchServer server(cfg);
    server.start();

    ServeClient c;
    ASSERT_TRUE(c.connectTo(server.port()));

    // A newline-free flood just past the cap: the reader must reject
    // and stop serving this connection instead of buffering it. (Kept
    // only slightly above the cap so the tail fits in kernel socket
    // buffers — the server stops recv'ing once it decides to drop.)
    std::string flood(kMaxLineBytes + 8 * 1024, 'x');
    ASSERT_TRUE(c.sendLine(flood));
    std::optional<JsonValue> event = c.readEvent();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->getStr("type", ""), "rejected");
    EXPECT_EQ(event->getStr("reason", ""), "request line too long");
    EXPECT_GE(server.metrics().rejected.load(), 1u);

    // The dropped connection's input is ignored from here on; a send
    // may fail once the server closes the fd, which is fine.
    (void)c.sendRequest(longRandomRequest("ghost"));

    // Other tenants are unaffected.
    ServeClient d;
    ASSERT_TRUE(d.connectTo(server.port()));
    ServeRequest ok = longRandomRequest("healthy");
    ok.steps = 64;
    ok.progressEvery = 0;
    ASSERT_TRUE(d.sendRequest(ok));
    EXPECT_TRUE(d.waitFor("result", "healthy").has_value());

    server.stop();
    // EOF, with no accepted line ever emitted for the ghost request.
    EXPECT_FALSE(c.readEvent().has_value());
}

TEST_F(ServeFixture, StopWithBusyClientsShutsDownCleanly)
{
    ServeConfig cfg = baseConfig();
    cfg.workers = 1;
    cfg.queueCap = 2;
    SearchServer server(cfg);
    server.start();

    ServeClient c;
    ASSERT_TRUE(c.connectTo(server.port()));
    ASSERT_TRUE(c.sendRequest(longRandomRequest("busy")));
    ASSERT_TRUE(c.waitFor("accepted", "busy").has_value());
    ASSERT_TRUE(c.waitFor("progress", "busy").has_value());
    ASSERT_TRUE(c.sendRequest(longRandomRequest("parked")));
    ASSERT_TRUE(c.waitFor("accepted", "parked").has_value());

    // stop() must cancel the running search, flush the parked one and
    // join every thread — the destructor re-entering is a no-op.
    server.stop();
    EXPECT_GE(server.metrics().cancelled.load(), 1u);
    EXPECT_EQ(server.metrics().activeWorkers.load(), 0);
    server.stop();
}

} // namespace
} // namespace mm::serve
