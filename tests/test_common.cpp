/**
 * @file
 * Unit and property tests for the common substrate: factorization
 * tables, permutations, statistics, RNG determinism and env parsing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <thread>

#include <sstream>

#include "common/clock.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/factorization.hpp"
#include "common/parallel_context.hpp"
#include "common/permutation.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"

namespace mm {
namespace {

TEST(Divisors, SmallValues)
{
    EXPECT_EQ(divisors(1), (std::vector<int64_t>{1}));
    EXPECT_EQ(divisors(12), (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(divisors(13), (std::vector<int64_t>{1, 13}));
}

/** Brute-force count of legal ordered tuples for cross-checking. */
int64_t
bruteCount(int64_t bound, int slots, int64_t maxFactor, int64_t padLimit)
{
    if (slots == 0)
        return 0;
    std::vector<int64_t> stack(size_t(slots), 1);
    int64_t count = 0;
    // Odometer over all tuples with entries in [1, maxFactor].
    while (true) {
        int64_t p = 1;
        for (int64_t f : stack)
            p *= f;
        if (p >= bound && p <= padLimit)
            ++count;
        size_t i = stack.size();
        while (i > 0) {
            --i;
            if (++stack[i] <= maxFactor)
                break;
            stack[i] = 1;
            if (i == 0)
                return count;
        }
    }
}

TEST(FactorizationTable, CountMatchesBruteForce)
{
    for (int64_t bound : {1, 2, 3, 5, 6, 8, 12, 16}) {
        for (int slots : {1, 2, 3, 4}) {
            FactorizationTable table(bound, slots);
            int64_t expect = bruteCount(bound, slots,
                                        table.maxFactorValue(),
                                        table.padLimitValue());
            EXPECT_EQ(table.count(), expect)
                << "bound=" << bound << " slots=" << slots;
        }
    }
}

TEST(FactorizationTable, BoundOneHasSingleTuple)
{
    FactorizationTable table(1, 4);
    EXPECT_EQ(table.count(), 1);
    Rng rng(7);
    auto f = table.sample(rng);
    EXPECT_EQ(f, (std::vector<int64_t>{1, 1, 1, 1}));
}

TEST(FactorizationTable, SamplesAreAlwaysLegal)
{
    Rng rng(42);
    for (int64_t bound : {3, 7, 28, 112, 256}) {
        const auto &table = factorTable(bound, 4);
        for (int i = 0; i < 200; ++i) {
            auto f = table.sample(rng);
            EXPECT_TRUE(table.contains(f)) << "bound=" << bound;
        }
    }
}

TEST(FactorizationTable, SamplingIsUniform)
{
    // chi-squared-style sanity: every legal tuple of a small space should
    // appear with roughly equal frequency.
    FactorizationTable table(6, 2);
    Rng rng(1);
    std::map<std::vector<int64_t>, int> hits;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        ++hits[table.sample(rng)];
    EXPECT_EQ(int64_t(hits.size()), table.count());
    double expect = double(draws) / double(table.count());
    for (const auto &[tuple, n] : hits) {
        EXPECT_NEAR(double(n), expect, 0.25 * expect)
            << join(tuple, "x");
    }
}

TEST(FactorizationTable, ContainsRejectsIllegal)
{
    FactorizationTable table(8, 3);
    // pad limit for bound 8: 8 + 8/4 = 10.
    EXPECT_EQ(table.padLimitValue(), 10);
    EXPECT_TRUE(table.contains(std::vector<int64_t>{2, 2, 2}));
    EXPECT_TRUE(table.contains(std::vector<int64_t>{9, 1, 1}));  // padded
    EXPECT_TRUE(table.contains(std::vector<int64_t>{5, 1, 2}));  // = 10
    EXPECT_FALSE(table.contains(std::vector<int64_t>{1, 1, 1})); // under
    EXPECT_FALSE(table.contains(std::vector<int64_t>{8, 1, 2})); // 16 > 10
    EXPECT_FALSE(table.contains(std::vector<int64_t>{0, 8, 1})); // f < 1
    EXPECT_FALSE(table.contains(std::vector<int64_t>{2, 2}));    // arity
}

TEST(FactorizationTable, RepairIsIdempotentOnLegalTuples)
{
    Rng rng(3);
    const auto &table = factorTable(28, 4);
    for (int i = 0; i < 100; ++i) {
        auto f = table.sample(rng);
        auto fixed = table.repair(f, 3);
        EXPECT_EQ(fixed, f);
    }
}

TEST(FactorizationTable, RepairFixesArbitraryTuples)
{
    const auto &table = factorTable(28, 4);
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        std::vector<int64_t> f = {rng.uniformInt(-3, 80),
                                  rng.uniformInt(-3, 80),
                                  rng.uniformInt(-3, 80),
                                  rng.uniformInt(-3, 80)};
        auto fixed = table.repair(f, 3);
        EXPECT_TRUE(table.contains(fixed)) << join(f, ",");
    }
}

TEST(FactorizationTable, RepairPrefersAdjustSlot)
{
    // A tuple that only under-shoots should be fixed by raising the
    // chosen slot, leaving others untouched.
    FactorizationTable table(32, 4);
    auto fixed = table.repair(std::vector<int64_t>{2, 1, 2, 1}, 3);
    EXPECT_EQ(fixed[0], 2);
    EXPECT_EQ(fixed[1], 1);
    EXPECT_EQ(fixed[2], 2);
    EXPECT_GE(fixed[3] * 4, 32);
}

class FactorizationSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int>>
{};

TEST_P(FactorizationSweep, SampleContainsRepairAgree)
{
    auto [bound, slots] = GetParam();
    const auto &table = factorTable(bound, slots);
    Rng rng(uint64_t(bound * 31 + slots));
    for (int i = 0; i < 50; ++i) {
        auto f = table.sample(rng);
        ASSERT_TRUE(table.contains(f));
        EXPECT_EQ(table.repair(f, slots - 1), f);
    }
}

/**
 * The linear-scan definitions of sampling and repair, straight from the
 * DP: the table's binary searches, cofactor lookups and precomputed logs
 * must make exactly the choices (and draws) these make.
 */
struct LinearScanTable
{
    int64_t bound, maxFactor, padLimit;
    int slots;
    std::vector<std::vector<int64_t>> ways;

    explicit LinearScanTable(const FactorizationTable &t)
        : bound(t.boundValue()), maxFactor(t.maxFactorValue()),
          padLimit(t.padLimitValue()), slots(t.slotCount())
    {
        ways.assign(size_t(slots) + 1,
                    std::vector<int64_t>(size_t(padLimit) + 1, 0));
        ways[0][1] = 1;
        for (int s = 1; s <= slots; ++s)
            for (int64_t p = 1; p <= padLimit; ++p)
                for (int64_t f : divisors(p)) {
                    if (f > maxFactor)
                        break;
                    ways[size_t(s)][size_t(p)] +=
                        ways[size_t(s) - 1][size_t(p / f)];
                }
    }

    std::vector<int64_t>
    sample(Rng &rng) const
    {
        int64_t total = 0;
        for (int64_t p = bound; p <= padLimit; ++p)
            total += ways[size_t(slots)][size_t(p)];
        int64_t target = rng.uniformInt(0, total - 1);
        int64_t product = bound;
        for (int64_t p = bound; p <= padLimit; ++p) {
            int64_t w = ways[size_t(slots)][size_t(p)];
            if (target < w) {
                product = p;
                break;
            }
            target -= w;
        }
        std::vector<int64_t> factors(size_t(slots), 1);
        int64_t rem = product;
        for (int s = slots; s >= 1; --s) {
            int64_t t = rng.uniformInt(0, ways[size_t(s)][size_t(rem)] - 1);
            for (int64_t f : divisors(rem)) {
                if (f > maxFactor)
                    break;
                int64_t sub = ways[size_t(s) - 1][size_t(rem / f)];
                if (t < sub) {
                    factors[size_t(s) - 1] = f;
                    rem /= f;
                    break;
                }
                t -= sub;
            }
        }
        return factors;
    }

    std::vector<int64_t>
    repair(std::vector<int64_t> f, int adjustSlot) const
    {
        f.resize(size_t(slots), 1);
        for (auto &v : f)
            v = std::clamp<int64_t>(v, 1, maxFactor);
        int64_t product = 1;
        bool legal = true;
        for (int64_t v : f) {
            product *= v;
            legal &= product <= padLimit;
            if (!legal)
                break;
        }
        if (legal && product >= bound)
            return f;
        double logP = 0.0;
        for (int64_t v : f)
            logP += std::log(double(v));
        int64_t target = -1;
        double bestDist = std::numeric_limits<double>::infinity();
        for (int64_t q = bound; q <= padLimit; ++q) {
            if (ways[size_t(slots)][size_t(q)] == 0)
                continue;
            double dist = std::fabs(std::log(double(q)) - logP);
            if (dist < bestDist) {
                bestDist = dist;
                target = q;
            }
        }
        std::vector<int> order;
        for (int s = 0; s < slots; ++s)
            if (s != adjustSlot)
                order.push_back(s);
        order.push_back(adjustSlot);
        std::vector<int64_t> fixed(size_t(slots), 1);
        int64_t rem = target;
        for (size_t i = 0; i < order.size(); ++i) {
            const int slot = order[i];
            const int left = int(order.size() - i) - 1;
            int64_t bestF = -1;
            double bestD = std::numeric_limits<double>::infinity();
            for (int64_t c : divisors(rem)) {
                if (c > maxFactor)
                    break;
                if (left > 0 && ways[size_t(left)][size_t(rem / c)] == 0)
                    continue;
                if (left == 0 && rem / c != 1)
                    continue;
                double d = std::fabs(std::log(double(c))
                                     - std::log(double(f[size_t(slot)])));
                if (d < bestD) {
                    bestD = d;
                    bestF = c;
                }
            }
            fixed[size_t(slot)] = bestF;
            rem /= bestF;
        }
        return fixed;
    }
};

TEST_P(FactorizationSweep, SampleAndRepairReplayLinearScans)
{
    auto [bound, slots] = GetParam();
    const int64_t pad = bound == 1 ? 1 : bound + std::max<int64_t>(1, bound / 4);
    // Full-window factors, and a cap that leaves infeasible products in
    // the pad window for the repair search to skip.
    for (int64_t cap : {int64_t(-1), std::max<int64_t>(2, bound / 3)}) {
        FactorizationTable table(bound, slots, cap);
        LinearScanTable ref(table);
        Rng a(uint64_t(bound * 7 + slots)), b(uint64_t(bound * 7 + slots));
        std::vector<int64_t> into(static_cast<size_t>(slots));
        for (int i = 0; i < 100; ++i) {
            ASSERT_EQ(table.sample(a), ref.sample(b)) << "cap=" << cap;
            table.sampleInto(a, into);
            ASSERT_EQ(into, ref.sample(b)) << "cap=" << cap;
        }
        EXPECT_EQ(a.raw(), b.raw());

        Rng r(uint64_t(bound + slots));
        for (int i = 0; i < 300; ++i) {
            std::vector<int64_t> f(size_t(r.uniformInt(slots - 1, slots + 1)));
            // Alternate under- and over-shooting tuples.
            const int64_t hi = i % 2 ? 2 * pad : 3;
            for (auto &v : f)
                v = r.uniformInt(-2, hi);
            const int adjust = int(r.uniformInt(0, slots - 1));
            auto expected = ref.repair(f, adjust);
            ASSERT_EQ(table.repair(f, adjust), expected)
                << "cap=" << cap << " f=" << join(f, ",");
            if (f.size() == size_t(slots)) {
                table.repairInto(f, adjust, f);
                EXPECT_EQ(f, expected);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, FactorizationSweep,
    ::testing::Combine(::testing::Values<int64_t>(2, 3, 13, 27, 110, 384,
                                                  1024, 4096),
                       ::testing::Values(2, 3, 4)));

TEST(Permutation, RoundTrip)
{
    Rng rng(5);
    for (int n : {1, 2, 5, 7}) {
        for (int i = 0; i < 20; ++i) {
            auto order = randomPerm(n, rng);
            ASSERT_TRUE(isPermutation(order));
            // The codec's rank encoding decodes back by argsort.
            std::vector<double> ranks(order.size());
            for (size_t pos = 0; pos < order.size(); ++pos)
                ranks[size_t(order[pos])] = double(pos);
            EXPECT_EQ(orderFromScores(ranks), order);
        }
    }
}

TEST(Permutation, OrderFromScoresSortsAscending)
{
    std::vector<double> scores = {2.5, -1.0, 0.25};
    auto order = orderFromScores(scores);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(Permutation, OrderFromScoresBreaksTiesStably)
{
    std::vector<double> scores = {1.0, 1.0, 0.0};
    auto order = orderFromScores(scores);
    EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

TEST(Permutation, OrderFromScoresIntoMatchesStableSortArgsort)
{
    // The allocation-free insertion sort against the std::stable_sort
    // argsort it replaced, at every loop-order rank. Scores are drawn
    // from a handful of values (signed zeros and infinities included),
    // so most rows carry ties.
    const double pool[] = {-std::numeric_limits<double>::infinity(),
                           -2.5, -0.0, 0.0, 1.0, 1.0 + 1e-15, 3.0,
                           std::numeric_limits<double>::infinity()};
    Rng rng(91);
    std::vector<int> into;
    for (size_t rank = 1; rank <= 16; ++rank) {
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<double> scores(rank);
            for (double &v : scores)
                v = pool[size_t(
                    rng.uniformInt(0, int64_t(std::size(pool)) - 1))];
            std::vector<int> want(rank);
            std::iota(want.begin(), want.end(), 0);
            std::stable_sort(want.begin(), want.end(), [&](int a, int b) {
                return scores[size_t(a)] < scores[size_t(b)];
            });
            // A dirty target: the sort must not read what it overwrites.
            into.assign(rank, 99);
            orderFromScoresInto(scores, into);
            ASSERT_EQ(into, want) << "rank " << rank;
            ASSERT_EQ(orderFromScores(scores), want);
        }
    }
}

TEST(Permutation, Factorial)
{
    EXPECT_DOUBLE_EQ(factorial(0), 1.0);
    EXPECT_DOUBLE_EQ(factorial(7), 5040.0);
}

TEST(RunningStat, MatchesBatchFormulas)
{
    RunningStat rs;
    std::vector<double> xs = {1.0, 4.0, -2.0, 8.5, 0.0};
    for (double x : xs)
        rs.push(x);
    EXPECT_EQ(rs.count(), 5);
    EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
    EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), -2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 8.5);
}

TEST(Stats, GeomeanAndQuantile)
{
    std::vector<double> v = {1.0, 10.0, 100.0};
    EXPECT_NEAR(geomean(v), 10.0, 1e-9);
    EXPECT_NEAR(quantile(v, 0.5), 10.0, 1e-9);
    EXPECT_NEAR(quantile(v, 0.0), 1.0, 1e-9);
    EXPECT_NEAR(quantile(v, 1.0), 100.0, 1e-9);
}

TEST(Rng, DeterministicAndForkIndependent)
{
    Rng a(123), b(123);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.raw(), b.raw());
    Rng parent(9);
    Rng child = parent.fork();
    // Child stream differs from the parent continuation.
    bool anyDiff = false;
    for (int i = 0; i < 8; ++i)
        anyDiff |= parent.raw() != child.raw();
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(77);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.uniformInt(2, 5));
    EXPECT_EQ(seen, (std::set<int64_t>{2, 3, 4, 5}));
}

TEST(Env, ParsesAndDefaults)
{
    ::setenv("MM_TEST_INT", "42", 1);
    ::setenv("MM_TEST_DOUBLE", "2.5", 1);
    ::setenv("MM_TEST_BAD", "nope", 1);
    EXPECT_EQ(envInt("MM_TEST_INT", 7), 42);
    EXPECT_EQ(envInt("MM_TEST_MISSING", 7), 7);
    EXPECT_DOUBLE_EQ(envDouble("MM_TEST_DOUBLE", 1.0), 2.5);
    EXPECT_EQ(envStr("MM_TEST_MISSING", "dflt"), "dflt");
    EXPECT_THROW(envInt("MM_TEST_BAD", 0), FatalError);
    ::unsetenv("MM_TEST_INT");
    ::unsetenv("MM_TEST_DOUBLE");
    ::unsetenv("MM_TEST_BAD");
}

TEST(Error, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
}

TEST(StringUtil, JoinAndFormat)
{
    EXPECT_EQ(join(std::vector<int>{1, 2, 3}, "-"), "1-2-3");
    EXPECT_EQ(strCat("a", 1, "b"), "a1b");
    EXPECT_EQ(fmtDouble(3.14159, 3), "3.14");
}

TEST(TableOutput, AlignsAndEchoesCsv)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow("beta", {2.5});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("# csv"), std::string::npos);
    EXPECT_NE(out.find("# alpha,1"), std::string::npos);
    EXPECT_NE(out.find("# beta,2.5"), std::string::npos);
}

TEST(TableOutput, RejectsArityMismatch)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(WallTimer, MonotoneAndResettable)
{
    WallTimer timer;
    double t1 = timer.elapsedSec();
    double t2 = timer.elapsedSec();
    EXPECT_GE(t2, t1);
    timer.reset();
    EXPECT_GE(timer.elapsedSec(), 0.0);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::vector<int> outer(8, 0);
    pool.parallelFor(outer.size(), [&](size_t i) {
        // Same-pool nesting degrades to an inline loop instead of
        // deadlocking on the single job slot.
        std::vector<int> inner(5, 0);
        pool.parallelFor(inner.size(), [&](size_t j) { inner[j] = 1; });
        int sum = 0;
        for (int v : inner)
            sum += v;
        outer[i] = sum;
    });
    for (int v : outer)
        EXPECT_EQ(v, 5);
}

TEST(ThreadPoolTest, ConcurrentSubmittersSerialize)
{
    ThreadPool pool(3);
    std::vector<std::vector<int>> results(4);
    std::vector<std::thread> callers;
    for (size_t t = 0; t < results.size(); ++t)
        callers.emplace_back([&, t] {
            results[t].assign(100, 0);
            pool.parallelFor(100, [&, t](size_t i) { results[t][i] = 1; });
        });
    for (auto &c : callers)
        c.join();
    for (const auto &r : results) {
        int sum = 0;
        for (int v : r)
            sum += v;
        EXPECT_EQ(sum, 100);
    }
}

TEST(ParallelContextTest, SerialAndPooledLanes)
{
    ParallelContext serial(1);
    EXPECT_EQ(serial.lanes(), 1u);
    EXPECT_EQ(serial.pool(), nullptr);
    std::vector<int> hits(7, 0);
    serial.parallelFor(hits.size(), [&](size_t i) { hits[i] = 1; });
    for (int v : hits)
        EXPECT_EQ(v, 1);

    ParallelContext pooled(3);
    EXPECT_EQ(pooled.lanes(), 3u);
    ASSERT_NE(pooled.pool(), nullptr);
    std::vector<int> hits2(29, 0);
    pooled.parallelFor(hits2.size(), [&](size_t i) { hits2[i] = 1; });
    for (int v : hits2)
        EXPECT_EQ(v, 1);
}

// ---------------------------------------------------------------------------
// Env-knob hardening: malformed values must fail loudly, naming the
// variable and the offending text — never a silently misparsed prefix,
// zero, or size_t-wrapped negative.
// ---------------------------------------------------------------------------

TEST(Env, RejectsTrailingJunkOverflowAndNegativeSizes)
{
    ::setenv("MM_TEST_SUFFIX", "10k", 1);
    ::setenv("MM_TEST_HUGE", "10000000000000000000000", 1);
    ::setenv("MM_TEST_NEG", "-5", 1);
    ::setenv("MM_TEST_EMPTY", "", 1);

    try {
        envInt("MM_TEST_SUFFIX", 0);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("MM_TEST_SUFFIX"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("10k"), std::string::npos);
    }
    EXPECT_THROW(envInt("MM_TEST_HUGE", 0), FatalError);
    EXPECT_THROW(envInt("MM_TEST_EMPTY", 0), FatalError);
    EXPECT_THROW(envSize("MM_TEST_SUFFIX", 0), FatalError);
    EXPECT_THROW(envSize("MM_TEST_NEG", 0), FatalError);
    EXPECT_EQ(envInt("MM_TEST_NEG", 0), -5); // negatives fine as ints
    EXPECT_EQ(envSize("MM_TEST_ABSENT", 33u), 33u);

    ::unsetenv("MM_TEST_SUFFIX");
    ::unsetenv("MM_TEST_HUGE");
    ::unsetenv("MM_TEST_NEG");
    ::unsetenv("MM_TEST_EMPTY");
}

TEST(Env, SizeListParsesAndRejectsMalformedItems)
{
    ::setenv("MM_TEST_LIST", "3000,10000,,60000", 1);
    EXPECT_EQ(envSizeList("MM_TEST_LIST", {}),
              (std::vector<size_t>{3000, 10000, 60000}));
    EXPECT_EQ(envSizeList("MM_TEST_ABSENT", {1, 2}),
              (std::vector<size_t>{1, 2}));

    ::setenv("MM_TEST_LIST", "3000,10k", 1);
    try {
        envSizeList("MM_TEST_LIST", {});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("MM_TEST_LIST"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("10k"), std::string::npos);
    }
    ::setenv("MM_TEST_LIST", "100,-3", 1);
    EXPECT_THROW(envSizeList("MM_TEST_LIST", {}), FatalError);
    ::unsetenv("MM_TEST_LIST");
}

// ---------------------------------------------------------------------------
// SerialWorker: the background writer under the double-buffered
// streamed generator.
// ---------------------------------------------------------------------------

TEST(SerialWorker, RunsTasksInSubmissionOrder)
{
    std::vector<int> order;
    {
        SerialWorker w;
        for (int i = 0; i < 50; ++i)
            w.submit([&order, i] { order.push_back(i); });
        w.drain();
    }
    ASSERT_EQ(order.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[size_t(i)], i);
}

TEST(SerialWorker, ThrottleBoundsInFlightWork)
{
    // A double-buffering producer relies on throttle(1): after it
    // returns, every task but (at most) the newest has completed.
    SerialWorker w;
    std::atomic<int> done{0};
    for (int round = 0; round < 10; ++round) {
        w.throttle(1);
        int expectMin = round - 1; // all but the previous submission
        EXPECT_GE(done.load(), expectMin);
        w.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            done.fetch_add(1);
        });
    }
    w.drain();
    EXPECT_EQ(done.load(), 10);
}

TEST(SerialWorker, FirstErrorIsRethrownAndLaterTasksDropped)
{
    SerialWorker w;
    std::atomic<bool> ranAfterError{false};
    w.submit([] { throw FatalError("background boom"); });
    // The error may surface at the next submit (if the failing task
    // already ran) or at drain — either way exactly once, and the
    // post-error task must never execute.
    bool threw = false;
    try {
        w.submit([&ranAfterError] { ranAfterError = true; });
        w.drain();
    } catch (const FatalError &e) {
        threw = true;
        EXPECT_NE(std::string(e.what()).find("background boom"),
                  std::string::npos);
    }
    EXPECT_TRUE(threw);
    w.drain(); // no second rethrow: the error was consumed
    EXPECT_FALSE(ranAfterError.load());
    // The worker is usable again.
    w.submit([] {});
    w.drain();
}

} // namespace
} // namespace mm
