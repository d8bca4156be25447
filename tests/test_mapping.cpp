/**
 * @file
 * Map-space tests: sampling validity, projection repair, the 62/40-float
 * codec, move operators, loop-nest coverage (functional correctness of
 * mappings), size estimation, and whole-catalog bitwise pins of every
 * map-space entry point (serial and concurrent).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common/string_util.hpp"
#include "mapping/codec.hpp"
#include "mapping/map_space.hpp"
#include "mapping/moves.hpp"
#include "mapping/nest.hpp"
#include "mapping/printer.hpp"

namespace mm {
namespace {

struct SpaceFixture
{
    AcceleratorSpec arch;
    Problem problem;
    MapSpace space;

    SpaceFixture(AcceleratorSpec arch_, Problem problem_)
        : arch(std::move(arch_)), problem(std::move(problem_)),
          space(arch, problem)
    {}
};

SpaceFixture
paperCnnSpace()
{
    return {AcceleratorSpec::paperDefault(),
            cnnProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3)};
}

SpaceFixture
paperMttkrpSpace()
{
    return {AcceleratorSpec::paperDefault(),
            mttkrpProblem("MTTKRP_0", 128, 1024, 4096, 2048)};
}

SpaceFixture
tinyConvSpace()
{
    return {AcceleratorSpec::tinyDefault(),
            makeProblem(conv1dAlgo(), "conv1d_tiny", {12, 3})};
}

TEST(MapSpace, RandomValidIsAlwaysMember)
{
    auto fx = paperCnnSpace();
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        Mapping m = fx.space.randomValid(rng);
        EXPECT_TRUE(fx.space.isMember(m)) << fx.space.validityError(m);
        EXPECT_LE(m.usedPes(), fx.arch.numPes);
        for (size_t d = 0; d < fx.space.rank(); ++d) {
            EXPECT_GE(m.dimProduct(d), fx.problem.bounds[d]);
            EXPECT_LE(m.dimProduct(d), 2 * fx.problem.bounds[d]);
        }
    }
}

class MapSpaceSweep : public ::testing::TestWithParam<int>
{};

TEST_P(MapSpaceSweep, AllTable1ProblemsSampleValid)
{
    auto problems = table1All();
    auto arch = AcceleratorSpec::paperDefault();
    const Problem &p = problems[size_t(GetParam())];
    MapSpace space(arch, p);
    Rng rng(uint64_t(GetParam()) + 17);
    for (int i = 0; i < 50; ++i) {
        Mapping m = space.randomValid(rng);
        ASSERT_TRUE(space.isMember(m))
            << p.name << ": " << space.validityError(m);
    }
}

INSTANTIATE_TEST_SUITE_P(Table1, MapSpaceSweep,
                         ::testing::Range(0, 8));

TEST(MapSpace, ProjectIsIdentityOnValidMappings)
{
    auto fx = paperMttkrpSpace();
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        Mapping m = fx.space.randomValid(rng);
        EXPECT_EQ(fx.space.project(m), m);
    }
}

TEST(MapSpace, ProjectRepairsCorruptedMappings)
{
    auto fx = paperCnnSpace();
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        Mapping m = fx.space.randomValid(rng);
        // Corrupt every attribute class.
        m.tiling[size_t(MemLevel::L1)][0] = 10000;
        m.spatial[1] = 999;
        m.loopOrder[size_t(MemLevel::L2)] = {0, 0, 0, 0, 0, 0, 0};
        m.bufferAlloc[0] = {50, 0, -2};
        Mapping fixed = fx.space.project(m);
        EXPECT_TRUE(fx.space.isMember(fixed))
            << fx.space.validityError(fixed);
    }
}

TEST(MapSpace, ProjectIsIdempotent)
{
    auto fx = paperCnnSpace();
    Rng rng(4);
    for (int i = 0; i < 50; ++i) {
        Mapping m = fx.space.randomValid(rng);
        m.tiling[size_t(MemLevel::DRAM)][2] = 77;
        m.spatial[0] = 40;
        Mapping once = fx.space.project(m);
        Mapping twice = fx.space.project(once);
        EXPECT_EQ(once, twice);
    }
}

TEST(MapSpace, CapacityConstraintIsEnforced)
{
    auto fx = paperCnnSpace();
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        Mapping m = fx.space.randomValid(rng);
        auto e1 = m.extentsL1();
        auto e2 = m.extentsL2();
        for (size_t t = 0; t < fx.space.tensorCount(); ++t) {
            EXPECT_LE(fx.space.tensorTileBytes(t, e1),
                      fx.space.allocBytes(0, t, m));
            EXPECT_LE(fx.space.tensorTileBytes(t, e2),
                      fx.space.allocBytes(1, t, m));
        }
    }
}

TEST(MapSpace, RejectsUndersizedAccelerator)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    arch.levels[0].banks = 2; // fewer banks than CNN's three tensors
    Problem p = cnnProblem("x", 1, 32, 16, 10, 10, 3, 3);
    EXPECT_THROW(MapSpace(arch, p), FatalError);
}

TEST(MapSpace, RejectsRankAboveCostModelLimit)
{
    AlgorithmSpec wide;
    wide.name = "wide";
    for (int d = 0; d < 17; ++d)
        wide.dimNames.push_back(strCat("D", d));
    wide.tensors = {{"In", {{{0, 1}}}, false},
                    {"Out", {{{1, 1}}}, true}};
    Problem p = makeProblem(wide, "rank17", std::vector<int64_t>(17, 2));
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    try {
        MapSpace space(arch, p);
        FAIL() << "rank 17 accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("rank17"), std::string::npos)
            << e.what();
    }
}

TEST(MapSpace, Log10SizeIsLargeForPaperProblems)
{
    auto cnn = paperCnnSpace();
    auto mtt = paperMttkrpSpace();
    // Section 5.1.3: ~1e25 for ResNet Conv_4, ~1e19 for MTTKRP_0. Our
    // estimate counts the same attribute classes; just check order of
    // magnitude regions and the CNN > MTTKRP ordering.
    EXPECT_GT(cnn.space.log10Size(), 18.0);
    EXPECT_LT(cnn.space.log10Size(), 40.0);
    EXPECT_GT(mtt.space.log10Size(), 12.0);
    EXPECT_GT(cnn.space.log10Size(), mtt.space.log10Size());
}

TEST(Codec, FeatureCountsMatchPaper)
{
    auto cnn = paperCnnSpace();
    auto mtt = paperMttkrpSpace();
    EXPECT_EQ(MappingCodec(cnn.space).featureCount(), 62u);
    EXPECT_EQ(MappingCodec(mtt.space).featureCount(), 40u);
}

TEST(Codec, EncodeLayoutSegments)
{
    auto fx = paperCnnSpace();
    MappingCodec codec(fx.space);
    EXPECT_EQ(codec.pidCount(), 7u);
    EXPECT_EQ(codec.tilingCount(), 21u);
    EXPECT_EQ(codec.spatialCount(), 7u);
    EXPECT_EQ(codec.orderCount(), 21u);
    EXPECT_EQ(codec.allocCount(), 6u);
    EXPECT_EQ(codec.allocOffset() + codec.allocCount(),
              codec.featureCount());

    Rng rng(6);
    Mapping m = fx.space.randomValid(rng);
    auto f = codec.encode(m);
    ASSERT_EQ(f.size(), 62u);
    // pid segment holds the problem bounds.
    for (size_t d = 0; d < 7; ++d)
        EXPECT_DOUBLE_EQ(f[d], double(fx.problem.bounds[d]));
    // tiling segment starts with the L1 factors.
    for (size_t d = 0; d < 7; ++d)
        EXPECT_DOUBLE_EQ(f[codec.tilingOffset() + d],
                         double(m.tiling[size_t(MemLevel::L1)][d]));
}

TEST(Codec, DecodeInvertsEncode)
{
    for (auto fx : {paperCnnSpace(), paperMttkrpSpace()}) {
        MappingCodec codec(fx.space);
        Rng rng(7);
        for (int i = 0; i < 100; ++i) {
            Mapping m = fx.space.randomValid(rng);
            Mapping back = codec.decode(codec.encode(m));
            EXPECT_EQ(back, m);
        }
    }
}

TEST(Codec, DecodeHandlesArbitraryReals)
{
    auto fx = paperCnnSpace();
    MappingCodec codec(fx.space);
    Rng rng(8);
    for (int i = 0; i < 100; ++i) {
        std::vector<double> f(codec.featureCount());
        for (auto &v : f)
            v = rng.uniformReal(-50.0, 300.0);
        Mapping m = codec.decode(f);
        EXPECT_TRUE(fx.space.isMember(m)) << fx.space.validityError(m);
    }
}

TEST(Codec, OutOfRangeFeaturesSaturateAtTheirBounds)
{
    // A gradient step can overshoot a feature to +inf or past int64's
    // range. Such a value decodes as the attribute's ceiling (twice the
    // bound for factors, the level's banks for allocations); NaN and
    // -inf decode as the floor of 1.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (auto fx : {paperCnnSpace(), paperMttkrpSpace()}) {
        const MapSpace &space = fx.space;
        MappingCodec codec(space);
        Rng rng(31);
        const std::vector<double> base = codec.encode(space.randomValid(rng));
        auto decodeWith = [&](size_t i, double v) {
            std::vector<double> f = base;
            f[i] = v;
            return codec.decode(f);
        };
        auto check = [&](size_t i, double ceiling) {
            const Mapping top = decodeWith(i, ceiling);
            const Mapping bottom = decodeWith(i, 1.0);
            for (double v : {inf, 1e300, 0x1p70}) {
                const Mapping m = decodeWith(i, v);
                EXPECT_EQ(m, top) << "feature " << i << " = " << v;
                EXPECT_TRUE(space.isMember(m)) << space.validityError(m);
            }
            for (double v : {nan, -inf, -1e300})
                EXPECT_EQ(decodeWith(i, v), bottom) << "feature " << i;
            return top != bottom;
        };
        // The check only bites where the two bounds decode apart.
        int distinct = 0;
        const size_t rank = space.rank();
        for (size_t d = 0; d < rank; ++d) {
            const double ceiling = 2.0 * double(fx.problem.bounds[d]);
            for (size_t l = 0; l < size_t(kNumMemLevels); ++l)
                distinct += check(codec.tilingOffset() + l * rank + d,
                                  ceiling);
            distinct += check(codec.spatialOffset() + d, ceiling);
        }
        for (size_t l = 0; l < size_t(kNumOnChipLevels); ++l)
            for (size_t t = 0; t < space.tensorCount(); ++t)
                distinct +=
                    check(codec.allocOffset() + l * space.tensorCount() + t,
                          double(space.arch().levels[l].banks));
        EXPECT_GT(distinct, 0);

        const Mapping allNan =
            codec.decode(std::vector<double>(codec.featureCount(), nan));
        EXPECT_TRUE(space.isMember(allNan)) << space.validityError(allNan);
    }
}

TEST(Moves, NeighborsAreValidAndUsuallyDifferent)
{
    auto fx = paperCnnSpace();
    Rng rng(9);
    Mapping m = fx.space.randomValid(rng);
    int changed = 0;
    Mapping n;
    for (int i = 0; i < 100; ++i) {
        randomNeighborInto(fx.space, m, rng, n);
        ASSERT_TRUE(fx.space.isMember(n)) << fx.space.validityError(n);
        changed += (n == m) ? 0 : 1;
    }
    EXPECT_GT(changed, 50);
}

TEST(Moves, CrossoverAndMutateStayValid)
{
    auto fx = paperMttkrpSpace();
    Rng rng(10);
    Mapping a = fx.space.randomValid(rng);
    Mapping b = fx.space.randomValid(rng);
    Mapping child;
    for (int i = 0; i < 50; ++i) {
        crossoverInto(fx.space, a, b, rng, child);
        ASSERT_TRUE(fx.space.isMember(child));
        mutateInPlace(fx.space, child, 0.2, rng);
        ASSERT_TRUE(fx.space.isMember(child));
    }
}

TEST(Moves, ZeroProbabilityMutationIsIdentity)
{
    auto fx = paperCnnSpace();
    Rng rng(11);
    const Mapping m = fx.space.randomValid(rng);
    Mapping mutant = m;
    mutateInPlace(fx.space, mutant, 0.0, rng);
    EXPECT_EQ(mutant, m);
}

TEST(Moves, OutputMayAliasTheSourceOrHoldAnotherSpace)
{
    // The Into forms overwrite whatever the output held, a mapping of
    // another rank included, and may write over their (first) source:
    // the same draws give the same result.
    auto fx = paperCnnSpace();
    auto other = tinyConvSpace();
    Rng rng(12);
    const Mapping a = fx.space.randomValid(rng);
    const Mapping b = fx.space.randomValid(rng);
    for (uint64_t seed = 0; seed < 20; ++seed) {
        Rng r1(seed);
        Mapping neighbor, child;
        randomNeighborInto(fx.space, a, r1, neighbor);
        crossoverInto(fx.space, a, b, r1, child);

        Rng r2(seed);
        Mapping stale = other.space.randomValid(rng);
        randomNeighborInto(fx.space, a, r2, stale);
        EXPECT_EQ(stale, neighbor);
        stale = other.space.randomValid(rng);
        crossoverInto(fx.space, a, b, r2, stale);
        EXPECT_EQ(stale, child);

        Rng r3(seed);
        Mapping aliased = a;
        randomNeighborInto(fx.space, aliased, r3, aliased);
        EXPECT_EQ(aliased, neighbor);
        aliased = a;
        crossoverInto(fx.space, aliased, b, r3, aliased);
        EXPECT_EQ(aliased, child);
    }
}

TEST(Nest, CoversEveryInBoundsPointExactlyOnce)
{
    auto fx = tinyConvSpace();
    Rng rng(12);
    for (int trial = 0; trial < 20; ++trial) {
        Mapping m = fx.space.randomValid(rng);
        std::map<std::vector<int64_t>, int> hits;
        int64_t total = 0;
        forEachNestPoint(fx.space, m, [&](std::span<const int64_t> pt) {
            ++total;
            std::vector<int64_t> key(pt.begin(), pt.end());
            ++hits[key];
        });
        // Padded space size matches the factor products.
        int64_t padded = 1;
        for (size_t d = 0; d < fx.space.rank(); ++d)
            padded *= m.dimProduct(d);
        EXPECT_EQ(total, padded);

        // Every padded point appears exactly once...
        for (const auto &[pt, n] : hits)
            EXPECT_EQ(n, 1);
        // ...and every in-bounds point is covered.
        int64_t inBounds = 0;
        for (const auto &[pt, n] : hits) {
            bool ok = true;
            for (size_t d = 0; d < pt.size(); ++d)
                ok &= pt[d] < fx.problem.bounds[d];
            inBounds += ok ? 1 : 0;
        }
        EXPECT_EQ(inBounds, fx.problem.bounds[0] * fx.problem.bounds[1]);
    }
}

TEST(Nest, CnnTinyCoverage)
{
    AcceleratorSpec arch = AcceleratorSpec::tinyDefault();
    Problem p = cnnProblem("tiny", 2, 3, 2, 5, 5, 2, 2);
    MapSpace space(arch, p);
    Rng rng(13);
    for (int trial = 0; trial < 5; ++trial) {
        Mapping m = space.randomValid(rng);
        std::set<std::vector<int64_t>> seen;
        int64_t total = 0;
        forEachNestPoint(space, m, [&](std::span<const int64_t> pt) {
            ++total;
            seen.emplace(pt.begin(), pt.end());
        });
        EXPECT_EQ(int64_t(seen.size()), total); // no duplicates
        int64_t inBounds = 0;
        for (const auto &pt : seen) {
            bool ok = true;
            for (size_t d = 0; d < pt.size(); ++d)
                ok &= pt[d] < p.bounds[d];
            inBounds += ok ? 1 : 0;
        }
        EXPECT_DOUBLE_EQ(double(inBounds), p.totalMacs());
    }
}

TEST(Printer, RendersLoopNestAndBuffers)
{
    auto fx = paperCnnSpace();
    Rng rng(14);
    Mapping m = fx.space.randomValid(rng);
    std::string full = renderMapping(fx.space, m);
    EXPECT_NE(full.find("DRAM (temporal)"), std::string::npos);
    EXPECT_NE(full.find("mac"), std::string::npos);
    EXPECT_NE(full.find("buffers at L1"), std::string::npos);
    std::string compact = renderMappingCompact(fx.space, m);
    EXPECT_NE(compact.find("tiles[L1|sp|L2|DRAM]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Whole-catalog bitwise pins. Every Table-1 problem plus the small
// shapes above is driven through the five map-space entry points from a
// fixed seed; the outputs and the RNG state afterwards fold into one
// FNV-1a hash per space. The golden values were recorded before the map
// space was compiled into resolved tables, so any drift in sampling,
// projection or RNG consumption shows up here.
// ---------------------------------------------------------------------

struct CatalogEntry
{
    AcceleratorSpec arch;
    Problem problem;
};

std::vector<CatalogEntry>
catalog()
{
    std::vector<CatalogEntry> out;
    for (Problem &p : table1All())
        out.push_back({AcceleratorSpec::paperDefault(), std::move(p)});
    out.push_back({AcceleratorSpec::tinyDefault(),
                   makeProblem(conv1dAlgo(), "conv1d_tiny", {12, 3})});
    out.push_back({AcceleratorSpec::tinyDefault(),
                   cnnProblem("tiny", 2, 3, 2, 5, 5, 2, 2)});
    return out;
}

struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    addVec(const std::vector<T> &v)
    {
        add(v.size());
        for (T x : v)
            add(uint64_t(int64_t(x)));
    }

    void
    add(const Mapping &m)
    {
        for (const auto &t : m.tiling)
            addVec(t);
        addVec(m.spatial);
        for (const auto &o : m.loopOrder)
            addVec(o);
        for (const auto &a : m.bufferAlloc)
            addVec(a);
    }
};

/**
 * Drive every map-space entry point @p iters times from @p seed and
 * hash the results plus the final RNG state.
 */
uint64_t
mapSpaceStreamHash(const MapSpace &space, uint64_t seed, int iters)
{
    const size_t rank = space.rank();
    MappingCodec codec(space);
    Rng rng(seed);
    Fnv h;
    Mapping moved;
    for (int i = 0; i < iters; ++i) {
        const size_t d = size_t(i) % rank;
        const Mapping a = space.randomValid(rng);
        const Mapping b = space.randomValid(rng);
        h.add(a);
        randomNeighborInto(space, a, rng, moved);
        h.add(moved);
        crossoverInto(space, a, b, rng, moved);
        h.add(moved);
        moved = a;
        mutateInPlace(space, moved, 0.3, rng);
        h.add(moved);

        Mapping doubled = a;
        doubled.tiling[size_t(MemLevel::L1)][d] *= 2;
        h.add(space.project(doubled));

        Mapping badOrder = a;
        auto &order = badOrder.loopOrder[size_t(i) % kNumMemLevels];
        order[0] = order[rank - 1];
        h.add(space.project(badOrder));

        Mapping overflow = a;
        overflow.bufferAlloc[size_t(i) % kNumOnChipLevels][0] +=
            space.arch().levels[size_t(i) % kNumOnChipLevels].banks;
        h.add(space.project(overflow));

        Mapping shortArity = a;
        shortArity.tiling[size_t(MemLevel::DRAM)].pop_back();
        shortArity.spatial.pop_back();
        shortArity.loopOrder[size_t(MemLevel::L2)].pop_back();
        shortArity.bufferAlloc[1].pop_back();
        h.add(space.project(shortArity));

        std::vector<double> f = codec.encode(b);
        for (double &v : f)
            v += rng.uniformReal(-3.0, 3.0);
        h.add(codec.decode(f));
    }
    h.add(rng.raw());
    return h.h;
}

constexpr int kPinIters = 64;

TEST(MapSpacePins, WholeCatalogStreamsAreBitwiseStable)
{
    // Recorded on the implementation that re-entered the factor-table
    // cache and heap-allocated on every call.
    const std::map<std::string, uint64_t> golden = {
        {"ResNet_Conv_3", 0xc81a5effd9306e70ULL},
        {"ResNet_Conv_4", 0xb71fd94d81812e36ULL},
        {"Inception_Conv_2", 0xe46db4d25dfea202ULL},
        {"VGG_Conv_2", 0x0b7409167eaa0dc0ULL},
        {"AlexNet_Conv_2", 0x675679e4a45eaed9ULL},
        {"AlexNet_Conv_4", 0xaef8aca5878ef9f2ULL},
        {"MTTKRP_0", 0x911b1364b2771880ULL},
        {"MTTKRP_1", 0x78a4721f62945129ULL},
        {"conv1d_tiny", 0x157cd0fc9c2fbb03ULL},
        {"tiny", 0x9511397e5634a9baULL},
    };
    auto entries = catalog();
    ASSERT_EQ(entries.size(), golden.size());
    for (const CatalogEntry &e : entries) {
        MapSpace space(e.arch, e.problem);
        uint64_t got = mapSpaceStreamHash(space, 0xC0FFEE, kPinIters);
        ASSERT_TRUE(golden.count(e.problem.name)) << e.problem.name;
        EXPECT_EQ(got, golden.at(e.problem.name)) << e.problem.name;
    }
}

TEST(MapSpacePins, ConcurrentStreamsMatchSerialRuns)
{
    // Four threads share every catalog MapSpace, each on its own seed;
    // each thread's hashes must equal the serial run of that seed.
    auto entries = catalog();
    std::vector<std::unique_ptr<MapSpace>> spaces;
    for (const CatalogEntry &e : entries)
        spaces.push_back(std::make_unique<MapSpace>(e.arch, e.problem));
    constexpr int kThreads = 4;
    constexpr int kIters = 8;
    auto runAll = [&](uint64_t seed) {
        std::vector<uint64_t> out;
        for (const auto &space : spaces)
            out.push_back(mapSpaceStreamHash(*space, seed, kIters));
        return out;
    };
    std::vector<std::vector<uint64_t>> serial, threaded(kThreads);
    for (int t = 0; t < kThreads; ++t)
        serial.push_back(runAll(uint64_t(100 + t)));
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back(
            [&, t] { threaded[size_t(t)] = runAll(uint64_t(100 + t)); });
    for (auto &th : pool)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(threaded[size_t(t)], serial[size_t(t)]) << "thread " << t;
}

// ---------------------------------------------------------------------
// The allocation-free Into forms are the bodies of their vector forms;
// these check the two stay equal bit for bit over the catalog, whatever
// the target held before.
// ---------------------------------------------------------------------

/** A mapping-shaped target of the wrong arity, full of junk. */
Mapping
dirtyMapping(const MapSpace &space)
{
    Mapping m;
    for (auto &t : m.tiling)
        t.assign(space.rank() + 3, -7);
    m.spatial.assign(space.rank() + 1, 0);
    for (auto &o : m.loopOrder)
        o.assign(space.rank() + 2, 5);
    m.bufferAlloc[0].assign(space.tensorCount() + 2, -1);
    m.bufferAlloc[1].clear();
    return m;
}

bool
sameBits(std::span<const double> a, std::span<const double> b)
{
    return a.size() == b.size()
           && std::memcmp(a.data(), b.data(), a.size() * sizeof(double))
                  == 0;
}

TEST(IntoForms, EncodeIntoAndDecodeIntoMatchVectorForms)
{
    for (const CatalogEntry &e : catalog()) {
        MapSpace space(e.arch, e.problem);
        MappingCodec codec(space);
        Rng rng(23);
        std::vector<double> into(codec.featureCount());
        Mapping reused = dirtyMapping(space);
        for (int i = 0; i < 32; ++i) {
            const Mapping m = space.randomValid(rng);
            const std::vector<double> f = codec.encode(m);
            std::fill(into.begin(), into.end(), -123.0);
            codec.encodeInto(m, into);
            ASSERT_TRUE(sameBits(f, into)) << e.problem.name;

            // Near-range perturbations, then arbitrary reals.
            std::vector<double> g = f;
            for (double &v : g)
                v += i % 2 == 0 ? rng.uniformReal(-3.0, 3.0)
                                : rng.uniformReal(-50.0, 300.0);
            const Mapping want = codec.decode(g);
            Mapping fresh = dirtyMapping(space);
            codec.decodeInto(g, fresh);
            EXPECT_EQ(fresh, want) << e.problem.name;
            codec.decodeInto(g, reused);
            EXPECT_EQ(reused, want) << e.problem.name;
        }
    }
}

TEST(IntoForms, RandomValidIntoDrawsWhatRandomValidDraws)
{
    for (const CatalogEntry &e : catalog()) {
        MapSpace space(e.arch, e.problem);
        Rng a(29), b(29);
        Mapping reused = dirtyMapping(space);
        for (int i = 0; i < 32; ++i) {
            const Mapping want = space.randomValid(a);
            space.randomValidInto(b, reused);
            EXPECT_EQ(reused, want) << e.problem.name;
            EXPECT_EQ(b.raw(), a.raw()) << e.problem.name;
        }
    }
}

TEST(MapSpacePins, IsMemberAgreesWithValidityErrorPerViolationKind)
{
    auto fx = paperCnnSpace();
    const MapSpace &space = fx.space;
    const size_t rank = space.rank();
    Rng rng(15);
    for (int i = 0; i < 50; ++i) {
        Mapping m = space.randomValid(rng);
        EXPECT_TRUE(space.isMember(m));
        EXPECT_EQ(space.validityError(m), "");
    }

    const Mapping base = space.randomValid(rng);
    // Each corruption trips exactly the named check first. withFactorsIn
    // puts every dimension's whole bound into one factor slot.
    auto withFactorsIn = [&](FactorSlot slot) {
        Mapping m = base;
        for (size_t d = 0; d < rank; ++d) {
            std::array<int64_t, kFactorSlots> f = {1, 1, 1, 1};
            f[size_t(slot)] = fx.problem.bounds[d];
            m.setFactors(d, f);
        }
        return m;
    };
    std::vector<std::pair<Mapping, std::string>> cases;
    {
        Mapping m = base;
        m.tiling[size_t(MemLevel::L2)].pop_back();
        cases.push_back({m, "tiling arity mismatch"});
    }
    {
        Mapping m = base;
        m.spatial.pop_back();
        cases.push_back({m, "spatial arity mismatch"});
    }
    {
        Mapping m = base;
        m.tiling[size_t(MemLevel::DRAM)][1] *= 1000;
        cases.push_back({m, "illegal factorization for dim K"});
    }
    {
        Mapping m = base;
        m.tiling[size_t(MemLevel::L1)][2] = 0;
        cases.push_back({m, "illegal factorization for dim C"});
    }
    cases.push_back({withFactorsIn(FactorSlot::Spatial),
                     "spatial fan-out 1358954496 exceeds 256 PEs"});
    {
        Mapping m = base;
        auto &order = m.loopOrder[size_t(MemLevel::DRAM)];
        order[0] = order[1];
        cases.push_back({m, "loop order is not a permutation"});
    }
    {
        Mapping m = base;
        m.loopOrder[size_t(MemLevel::L1)].pop_back();
        cases.push_back({m, "loop order is not a permutation"});
    }
    {
        Mapping m = base;
        m.loopOrder[size_t(MemLevel::L2)][3] = int(rank);
        cases.push_back({m, "loop order is not a permutation"});
    }
    {
        Mapping m = base;
        m.bufferAlloc[1].push_back(1);
        cases.push_back({m, "buffer allocation arity mismatch"});
    }
    {
        Mapping m = base;
        m.bufferAlloc[0][1] = 0;
        cases.push_back({m, "tensor with no banks allocated"});
    }
    {
        Mapping m = base;
        m.bufferAlloc[1][0] += 32;
        cases.push_back({m, "allocation exceeds L2 banks"});
    }
    cases.push_back({withFactorsIn(FactorSlot::L1),
                     "tensor Inputs overflows its L1 allocation"});
    cases.push_back({withFactorsIn(FactorSlot::L2),
                     "tensor Inputs overflows its L2 allocation"});
    for (const auto &[m, msg] : cases) {
        EXPECT_EQ(space.validityError(m), msg);
        EXPECT_FALSE(space.isMember(m)) << msg;
    }

    // The same agreement over every catalog space, on valid mappings and
    // on the generic corruptions.
    for (const CatalogEntry &e : catalog()) {
        MapSpace s(e.arch, e.problem);
        Rng r(16);
        for (int i = 0; i < 20; ++i) {
            Mapping m = s.randomValid(r);
            EXPECT_EQ(s.isMember(m), s.validityError(m).empty());
            m.tiling[size_t(MemLevel::L1)][size_t(i) % s.rank()] *= 2;
            EXPECT_EQ(s.isMember(m), s.validityError(m).empty())
                << e.problem.name;
            m.bufferAlloc[0][0] = 0;
            EXPECT_FALSE(s.isMember(m));
            EXPECT_FALSE(s.validityError(m).empty());
        }
    }
}

} // namespace
} // namespace mm
