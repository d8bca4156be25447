/**
 * @file
 * Tests for the dense linear-algebra substrate: GEMM against the
 * reference kernel for every transpose combination and shape class
 * (including the blocked+packed kernel, threading determinism and the
 * aligned allocator).
 */
#include <algorithm>
#include <bit>
#include <cstdint>
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"

namespace mm {
namespace {

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = float(rng.uniformReal(-1.0, 1.0));
    return m;
}

Matrix
transposed(const Matrix &m)
{
    Matrix t(m.cols(), m.rows());
    for (size_t i = 0; i < m.rows(); ++i)
        for (size_t j = 0; j < m.cols(); ++j)
            t(j, i) = m(i, j);
    return t;
}

TEST(Matrix, BasicAccessAndFill)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
    m.fill(2.0f);
    EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);
    EXPECT_DOUBLE_EQ(squaredNorm(m), 6 * 4.0);
}

TEST(Matrix, ReshapePreservesData)
{
    Matrix m(2, 6);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = float(i);
    m.reshape(3, 4);
    EXPECT_FLOAT_EQ(m.at(2, 3), 11.0f);
}

TEST(Matrix, RowSpanViewsUnderlyingData)
{
    Matrix m(3, 2);
    m.at(1, 0) = 7.0f;
    auto row = m.row(1);
    EXPECT_FLOAT_EQ(row[0], 7.0f);
    row[1] = 9.0f;
    EXPECT_FLOAT_EQ(m.at(1, 1), 9.0f);
}

TEST(Matrix, AxpyAndScale)
{
    Matrix x(1, 3), y(1, 3);
    x.fill(2.0f);
    y.fill(1.0f);
    axpy(3.0f, x, y);
    EXPECT_FLOAT_EQ(y.at(0, 0), 7.0f);
    scale(0.5f, y);
    EXPECT_FLOAT_EQ(y.at(0, 2), 3.5f);
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool, bool>>
{};

TEST_P(GemmShapes, MatchesReference)
{
    auto [m, k, n, ta, tb] = GetParam();
    Rng rng(uint64_t(m * 1000 + k * 100 + n * 10 + ta * 2 + tb));
    Matrix a = ta ? randomMatrix(size_t(k), size_t(m), rng)
                  : randomMatrix(size_t(m), size_t(k), rng);
    Matrix b = tb ? randomMatrix(size_t(n), size_t(k), rng)
                  : randomMatrix(size_t(k), size_t(n), rng);
    Matrix c = randomMatrix(size_t(m), size_t(n), rng);
    Matrix cRef = c;

    gemm(ta, tb, 1.5f, a, b, 0.25f, c);
    gemmReference(ta, tb, 1.5f, a, b, 0.25f, cRef);
    EXPECT_LT(maxAbsDiff(c, cRef), 1e-3)
        << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta
        << " tb=" << tb;
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposes, GemmShapes,
    ::testing::Combine(::testing::Values(1, 3, 17), ::testing::Values(1, 8, 33),
                       ::testing::Values(1, 5, 29), ::testing::Bool(),
                       ::testing::Bool()));

TEST(Gemm, BetaZeroOverwritesGarbage)
{
    Rng rng(4);
    Matrix a = randomMatrix(4, 4, rng);
    Matrix b = randomMatrix(4, 4, rng);
    Matrix c(4, 4);
    c.fill(std::numeric_limits<float>::quiet_NaN());
    gemm(false, false, 1.0f, a, b, 0.0f, c);
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_FALSE(std::isnan(c.data()[i]));
}

TEST(Matrix, StorageIsCacheLineAligned)
{
    for (size_t rows : {1u, 3u, 7u, 64u, 129u}) {
        Matrix m(rows, rows + 1);
        EXPECT_EQ(uintptr_t(m.data()) % kMatrixAlignment, 0u)
            << "rows=" << rows;
    }
    Matrix m(2, 3);
    m.resize(37, 53);
    EXPECT_EQ(uintptr_t(m.data()) % kMatrixAlignment, 0u);
    m.ensureShape(200, 17);
    EXPECT_EQ(uintptr_t(m.data()) % kMatrixAlignment, 0u);
    Matrix copy = m;
    EXPECT_EQ(uintptr_t(copy.data()) % kMatrixAlignment, 0u);
}

/**
 * Randomized sweep over all four transpose combinations and the shape
 * classes the dispatcher distinguishes: degenerate (empty / 1xN / Nx1),
 * plain-row small shapes, blocked shapes, and tile-edge shapes that
 * exercise partial MR/NR/KC tiles.
 */
TEST(Gemm, RandomizedPropertySweep)
{
    const std::vector<size_t> dims = {0, 1, 2, 3, 5, 16, 31, 64, 65, 130};
    Rng rng(20240721);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t m = dims[size_t(rng.uniformInt(0, 9))];
        const size_t k = dims[size_t(rng.uniformInt(0, 9))];
        const size_t n = dims[size_t(rng.uniformInt(0, 9))];
        const bool ta = rng.bernoulli(0.5);
        const bool tb = rng.bernoulli(0.5);
        const float alpha =
            float(rng.pick(std::vector<double>{0.0, 1.0, -1.5, 0.37}));
        const float beta =
            float(rng.pick(std::vector<double>{0.0, 1.0, 0.5}));

        Matrix a = ta ? randomMatrix(k, m, rng) : randomMatrix(m, k, rng);
        Matrix b = tb ? randomMatrix(n, k, rng) : randomMatrix(k, n, rng);
        Matrix c = randomMatrix(m, n, rng);
        Matrix cRef = c;

        gemm(ta, tb, alpha, a, b, beta, c);
        gemmReference(ta, tb, alpha, a, b, beta, cRef);
        const double tol = 1e-5 * double(k + 1);
        EXPECT_LT(maxAbsDiff(c, cRef), tol)
            << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta
            << " tb=" << tb << " alpha=" << alpha << " beta=" << beta;
    }
}

/** The blocked kernel must agree with the reference on large shapes. */
TEST(Gemm, BlockedMatchesReferenceOnLargeShapes)
{
    Rng rng(77);
    for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{128, 300, 70},
                           {1, 2048, 96},
                           {130, 257, 1030}}) {
        for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
                Matrix a = ta ? randomMatrix(k, m, rng)
                              : randomMatrix(m, k, rng);
                Matrix b = tb ? randomMatrix(n, k, rng)
                              : randomMatrix(k, n, rng);
                Matrix c(m, n), cRef(m, n);
                gemm(ta, tb, 1.0f, a, b, 0.0f, c);
                gemmReference(ta, tb, 1.0f, a, b, 0.0f, cRef);
                EXPECT_LT(maxAbsDiff(c, cRef), 1e-5 * double(k))
                    << "m=" << m << " k=" << k << " n=" << n
                    << " ta=" << ta << " tb=" << tb;
            }
        }
    }
}

/**
 * Rows of a batched product must be bitwise identical to the same row
 * evaluated alone — the invariant the Phase-2 batched driver's
 * per-sample equivalence rests on (dispatch depends only on (k, n)).
 * Batches of fewer than MR = 4 rows, and the tail rows of larger ones,
 * run in a narrower row group at more vectors per row than full groups
 * do; the small shape goes through the plain-row kernels, four rows at
 * a time. A transposed A is passed as op(A)'s transpose.
 */
TEST(Gemm, RowResultIndependentOfBatchSize)
{
    Rng rng(31);
    // (300, 200): k straddles KC, and n is three 64-column strips plus
    // an 8-float tail vector.
    for (auto [k, n] :
         {std::pair<size_t, size_t>{96, 80}, {62, 64}, {300, 200}}) {
        for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
                const Matrix a = randomMatrix(64, k, rng); // op(A)
                Matrix b =
                    tb ? randomMatrix(n, k, rng) : randomMatrix(k, n, rng);
                Matrix full(64, n);
                gemm(ta, tb, 1.0f, ta ? transposed(a) : a, b, 0.0f, full);
                for (size_t rows : {1u, 2u, 3u, 5u, 7u}) {
                    for (size_t r0 :
                         {size_t(0), size_t(13), size_t(64 - rows)}) {
                        Matrix part(rows, k);
                        for (size_t i = 0; i < rows; ++i)
                            std::copy(a.row(r0 + i).begin(),
                                      a.row(r0 + i).end(),
                                      part.row(i).begin());
                        Matrix cPart(rows, n);
                        gemm(ta, tb, 1.0f, ta ? transposed(part) : part, b,
                             0.0f, cPart);
                        for (size_t i = 0; i < rows; ++i)
                            for (size_t j = 0; j < n; ++j)
                                ASSERT_EQ(cPart(i, j), full(r0 + i, j))
                                    << "k=" << k << " ta=" << ta
                                    << " tb=" << tb << " rows=" << rows
                                    << " r=" << r0 + i << " j=" << j;
                    }
                }
            }
        }
    }
}

/** True when every element of @p x and @p y has the same bits. */
bool
bitwiseEqual(const Matrix &x, const Matrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols()
           && std::equal(x.data(), x.data() + x.size(), y.data(),
                         [](float p, float q) {
                             return std::bit_cast<uint32_t>(p)
                                    == std::bit_cast<uint32_t>(q);
                         });
}

/**
 * A prepacked op(B) must give bitwise the same product as packing on
 * the fly, on both sides of the row/blocked cutoff (k * n = 4096) and
 * of the KC = 256 and NC = 1024 block edges, for all four transpose
 * pairs (the prepacked side gets op(A) written out). k and n that are
 * not multiples of the 4 x 4 transpose tile (37 x 45, 3 x 5) exercise
 * its scalar edges. Above the cutoff both paths run the blocked
 * kernel, which reads A in place and ends in a partial row group for m
 * = 5, 6, 7 and 65; below it the plain-row kernels at any row count.
 * beta = 0.5 scales C before they add.
 */
TEST(Gemm, PrepackedEqualsOnTheFlyBitwise)
{
    Rng rng(404);
    const std::vector<std::pair<size_t, size_t>> shapes = {
        {62, 64},  {64, 63},   {64, 64},    {63, 65},  {37, 45},
        {3, 5},    {255, 40},  {256, 33},   {257, 48}, {40, 1023},
        {9, 1024}, {5, 1025},  {300, 1100}, {300, 200}};
    for (auto [k, n] : shapes) {
        for (bool tb : {false, true}) {
            Matrix b = tb ? randomMatrix(n, k, rng) : randomMatrix(k, n, rng);
            const PackedB packed(b, tb);
            // 6 and 7: a full row group plus 2 or 3 edge rows.
            for (size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 64u, 65u}) {
                const Matrix a = randomMatrix(m, k, rng); // op(A)
                const Matrix at = transposed(a);
                for (bool ta : {false, true}) {
                    for (float beta : {0.0f, 0.5f, 1.0f}) {
                        Matrix c0 = randomMatrix(m, n, rng);
                        Matrix expect = c0, got = c0;
                        gemm(ta, tb, 0.75f, ta ? at : a, b, beta, expect);
                        gemm(0.75f, a, packed, beta, got);
                        EXPECT_TRUE(bitwiseEqual(got, expect))
                            << "m=" << m << " k=" << k << " n=" << n
                            << " ta=" << ta << " tb=" << tb
                            << " beta=" << beta;
                    }
                }
            }
        }
    }
}

/** Prepacked panels shared across threads stay bitwise deterministic. */
TEST(Gemm, PrepackedThreadedEqualsSerial)
{
    Rng rng(405);
    const size_t m = 200, k = 300, n = 1100;
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(n, k, rng);
    const PackedB packed(b, true);
    Matrix serial(m, n);
    gemm(false, true, 1.0f, a, b, 0.0f, serial);
    ThreadPool pool(3);
    Matrix c(m, n);
    gemm(1.0f, a, packed, 0.0f, c, &pool);
    EXPECT_TRUE(bitwiseEqual(c, serial));
}

/**
 * gemmRows() over any partition of C's rows, range by range on a
 * pool's threads, is gemm() bitwise, for all four transpose pairs, on
 * both tiers (62 x 64 below the cutoff; 96 x 80 and 257 x 48 blocked,
 * the latter past KC), with and without a prepacked op(B), and with
 * beta = 0.5 applied range by range. Empty ranges are no-ops; ranges
 * of up to MR = 4 rows run a single, possibly partial, row group.
 */
TEST(Gemm, RowRangesEqualWholeCallBitwise)
{
    Rng rng(406);
    ThreadPool pool(3);
    const size_t m = 77;
    const std::vector<std::vector<size_t>> cuts = {
        {0, 77}, {0, 25, 51, 77}, {0, 1, 5, 6, 40, 77}, {0, 0, 3, 77, 77}};
    for (auto [k, n] : {std::pair<size_t, size_t>{62, 64}, {96, 80},
                        {257, 48}}) {
        for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
                const Matrix a = randomMatrix(m, k, rng); // op(A)
                const Matrix opA = ta ? transposed(a) : a;
                const Matrix b =
                    tb ? randomMatrix(n, k, rng) : randomMatrix(k, n, rng);
                const PackedB packed(b, tb);
                const Matrix c0 = randomMatrix(m, n, rng);
                Matrix expect = c0;
                gemm(ta, tb, 0.75f, opA, b, 0.5f, expect);
                for (const std::vector<size_t> &cut : cuts) {
                    Matrix got = c0, gotPacked = c0;
                    pool.parallelFor(cut.size() - 1, [&](size_t i) {
                        gemmRows(ta, tb, 0.75f, opA, b, 0.5f, got, cut[i],
                                 cut[i + 1]);
                        gemmRows(0.75f, a, packed, 0.5f, gotPacked, cut[i],
                                 cut[i + 1]);
                    });
                    EXPECT_TRUE(bitwiseEqual(got, expect))
                        << "k=" << k << " n=" << n << " ta=" << ta
                        << " tb=" << tb << " cuts=" << cut.size();
                    EXPECT_TRUE(bitwiseEqual(gotPacked, expect))
                        << "prepacked k=" << k << " n=" << n
                        << " tb=" << tb << " cuts=" << cut.size();
                }
            }
        }
    }
}

/** Threaded GEMM must be bitwise identical at any lane count. */
TEST(Gemm, ThreadedBitwiseEqualsSerial)
{
    Rng rng(55);
    const size_t m = 400, k = 160, n = 220;
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(k, n, rng);
    Matrix serial(m, n);
    gemm(false, false, 1.0f, a, b, 0.0f, serial);
    for (size_t lanes : {2u, 3u, 5u}) {
        ThreadPool pool(lanes);
        Matrix c(m, n);
        gemm(false, false, 1.0f, a, b, 0.0f, c, &pool);
        EXPECT_EQ(maxAbsDiff(c, serial), 0.0) << "lanes=" << lanes;
    }
}

/** Nested use: a GEMM issued from inside a pool job runs inline. */
TEST(Gemm, NestedCallInsidePoolJob)
{
    Rng rng(91);
    // Big enough that the inner gemm itself wants to thread.
    const size_t m = 300, k = 140, n = 110;
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(k, n, rng);
    Matrix expect(m, n);
    gemm(false, false, 1.0f, a, b, 0.0f, expect);

    ThreadPool pool(4);
    std::vector<Matrix> results(6, Matrix(m, n));
    pool.parallelFor(results.size(), [&](size_t i) {
        gemm(false, false, 1.0f, a, b, 0.0f, results[i], &pool);
    });
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(maxAbsDiff(results[i], expect), 0.0) << "job " << i;
}

/** Concurrent submitters from distinct threads share one pool safely. */
TEST(Gemm, ConcurrentExternalCallersShareOnePool)
{
    Rng rng(17);
    const size_t m = 256, k = 128, n = 128;
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(k, n, rng);
    Matrix expect(m, n);
    gemm(false, false, 1.0f, a, b, 0.0f, expect);

    ThreadPool pool(3);
    std::vector<Matrix> results(4, Matrix(m, n));
    std::vector<std::thread> callers;
    for (size_t i = 0; i < results.size(); ++i)
        callers.emplace_back([&, i] {
            gemm(false, false, 1.0f, a, b, 0.0f, results[i], &pool);
        });
    for (auto &t : callers)
        t.join();
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(maxAbsDiff(results[i], expect), 0.0) << "caller " << i;
}

TEST(Gemm, NaiveMatchesReference)
{
    Rng rng(7);
    for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
            const size_t m = 33, k = 47, n = 29;
            Matrix a = ta ? randomMatrix(k, m, rng)
                          : randomMatrix(m, k, rng);
            Matrix b = tb ? randomMatrix(n, k, rng)
                          : randomMatrix(k, n, rng);
            Matrix c(m, n), cRef(m, n);
            gemmNaive(ta, tb, 2.0f, a, b, 0.0f, c);
            gemmReference(ta, tb, 2.0f, a, b, 0.0f, cRef);
            EXPECT_LT(maxAbsDiff(c, cRef), 1e-4)
                << "ta=" << ta << " tb=" << tb;
        }
    }
}

TEST(Gemm, IdentityIsNoOp)
{
    Rng rng(9);
    Matrix a = randomMatrix(5, 5, rng);
    Matrix eye(5, 5);
    for (size_t i = 0; i < 5; ++i)
        eye(i, i) = 1.0f;
    Matrix c(5, 5);
    gemm(false, false, 1.0f, a, eye, 0.0f, c);
    EXPECT_LT(maxAbsDiff(a, c), 1e-6);
}

} // namespace
} // namespace mm
