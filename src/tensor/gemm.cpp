#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/string_util.hpp"
#include "common/thread_pool.hpp"

namespace mm {

namespace {

// ---------------------------------------------------------------------------
// Blocking parameters.
//
// MR is the rows of A one register tile reads; NR = 16 floats (one
// cache line) is the width of a packed op(B) micro-panel. KC x NC sizes
// the packed B block, a multiple of NR wide. MC is the row granularity
// gemmBlocked() fans out in.
// ---------------------------------------------------------------------------
constexpr size_t MR = 4;
constexpr size_t NR = 16;
constexpr size_t MC = 64;
constexpr size_t KC = 256;
constexpr size_t NC = 1024;

/** Shapes with k*n below this run the plain-row kernels. */
constexpr size_t kBlockedMinKN = 4096;

/** Minimum 2*m*n*k flops before row-range threading pays off. */
constexpr double kParallelMinFlops = double(1 << 23);

inline float
elemA(const Matrix &a, bool transA, size_t i, size_t p)
{
    return transA ? a(p, i) : a(i, p);
}

inline float
elemB(const Matrix &b, bool transB, size_t p, size_t j)
{
    return transB ? b(j, p) : b(p, j);
}

/** Per-thread packing scratch; reused across calls, never shared. */
struct PackBuffers
{
    AlignedFloatBuffer a; ///< op(A)'s rows when A is transposed
    AlignedFloatBuffer b; ///< one op(B) block, or op(B)'s plain rows
};

PackBuffers &
packBuffers()
{
    static thread_local PackBuffers bufs;
    return bufs;
}

#if defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector)
#define MM_GEMM_SHUFFLE 1
#endif
#endif

/**
 * dst[c * ldd + r] = src[r * lds + c] for r < rows, c < cols: a
 * transpose in 4 x 4 register tiles (scalar at the edges) that reads
 * src along its rows. Packing a transposed operand element by element
 * reads it with a stride of a whole row per element. Only copies, so
 * every value lands unchanged.
 */
void
transposeInto(const float *src, size_t lds, size_t rows, size_t cols,
              float *dst, size_t ldd)
{
    size_t r = 0;
#if defined(MM_GEMM_SHUFFLE)
    using Vec4f = float __attribute__((vector_size(16)));
    for (; r + 4 <= rows; r += 4) {
        size_t c = 0;
        for (; c + 4 <= cols; c += 4) {
            Vec4f x[4];
            for (size_t i = 0; i < 4; ++i)
                std::memcpy(&x[i], src + (r + i) * lds + c, sizeof(Vec4f));
            const Vec4f lo01 = __builtin_shufflevector(x[0], x[1], 0, 4, 1, 5);
            const Vec4f hi01 = __builtin_shufflevector(x[0], x[1], 2, 6, 3, 7);
            const Vec4f lo23 = __builtin_shufflevector(x[2], x[3], 0, 4, 1, 5);
            const Vec4f hi23 = __builtin_shufflevector(x[2], x[3], 2, 6, 3, 7);
            const Vec4f y[4] = {
                __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5),
                __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7),
                __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5),
                __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7)};
            for (size_t i = 0; i < 4; ++i)
                std::memcpy(dst + (c + i) * ldd + r, &y[i], sizeof(Vec4f));
        }
        for (; c < cols; ++c)
            for (size_t i = 0; i < 4; ++i)
                dst[c * ldd + r + i] = src[(r + i) * lds + c];
    }
#endif
    for (; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            dst[c * ldd + r] = src[r * lds + c];
}

/**
 * Pack a kc x nc block of op(B) as NR-column micro-panels: panel jr
 * holds [p][j] with the NR column values of each p contiguous (one
 * aligned cache line per p). Columns past nc are zero.
 */
void
packB(const Matrix &b, bool transB, size_t p0, size_t kc, size_t j0,
      size_t nc, float *dst)
{
    const size_t panels = (nc + NR - 1) / NR;
    for (size_t jr = 0; jr < panels; ++jr) {
        float *panel = dst + jr * kc * NR;
        const size_t cols = std::min(NR, nc - jr * NR);
        if (transB) {
            // op(B)'s columns are B's rows.
            transposeInto(b.data() + (j0 + jr * NR) * b.cols() + p0,
                          b.cols(), cols, kc, panel, NR);
        } else {
            for (size_t p = 0; p < kc; ++p) {
                const float *src = b.data() + (p0 + p) * b.cols() + j0
                                   + jr * NR;
                std::copy(src, src + cols, panel + p * NR);
            }
        }
        if (cols < NR)
            for (size_t p = 0; p < kc; ++p)
                std::fill(panel + p * NR + cols, panel + (p + 1) * NR,
                          0.0f);
    }
}

/** Rounds @p n up to whole NR-column micro-panels. */
size_t
padToPanels(size_t n)
{
    return (n + NR - 1) / NR * NR;
}

/**
 * Offset of block (jc, pc) in a fully packed op(B): each jc stripe
 * holds its pc blocks back to back, and every stripe before the last
 * is NC (a whole number of panels) wide.
 */
size_t
packedBlockOffset(size_t jc, size_t pc, size_t k, size_t nPad)
{
    return jc * k + pc * nPad;
}

/**
 * Writes op(B) (k x n) to @p dst as k rows of padToPanels(n) floats,
 * the padding zero: the layout the plain-row kernels read below the
 * blocked cutoff, whether op(B) was packed once (PackedB) or per call.
 */
void
packPlainRows(const Matrix &b, bool transB, size_t k, size_t n, float *dst)
{
    const size_t nPad = padToPanels(n);
    if (transB)
        transposeInto(b.data(), k, n, k, dst, nPad);
    for (size_t p = 0; p < k; ++p) {
        float *row = dst + p * nPad;
        if (!transB)
            std::copy(b.data() + p * n, b.data() + (p + 1) * n, row);
        std::fill(row + n, row + nPad, 0.0f);
    }
}

// ---------------------------------------------------------------------------
// Row kernels: the blocked kernel (any number of rows against one packed
// (jc, pc) block of op(B)) and the plain-row kernels (every shape below
// the blocked cutoff). They read A's rows in place, stream op(B) at the
// variant's widest vector, and keep up to 16 independent accumulators in
// flight: an MR-row group at 4 vectors per row on AVX-512 (4 x 64
// floats) and 2 on AVX2 (4 x 16), and fewer rows at more vectors each.
// Each element runs one of three chains:
//
//  - Blocked: per KC block, acc = 0, acc += (alpha * a) * b in p order,
//    then C += acc; A's rows arrive with alpha already applied.
//  - NN: C += (alpha * a) * b in p order, straight onto C.
//  - NT: acc = 0, acc += a * b in p order, then C += alpha * acc.
//
// The blocked chain contracts wherever its variant's ISA has FMA; the
// NN/NT chains contract only where the baseline ISA has FMA (see
// kScalarContracts).
// ---------------------------------------------------------------------------

#if defined(__GNUC__)
#define MM_GEMM_INLINE inline __attribute__((always_inline))
using Vec8f = float __attribute__((vector_size(32)));
using Vec16f = float __attribute__((vector_size(64)));
#else
#define MM_GEMM_INLINE inline

/** Element-wise stand-in for the GNU vector type. */
struct Vec8f
{
    float v[8];

    friend Vec8f
    operator*(Vec8f x, float y)
    {
        for (size_t i = 0; i < 8; ++i)
            x.v[i] *= y;
        return x;
    }

    Vec8f &
    operator+=(Vec8f y)
    {
        for (size_t i = 0; i < 8; ++i)
            v[i] += y.v[i];
        return *this;
    }
};
#endif

template <class V>
constexpr size_t kLanes = sizeof(V) / sizeof(float);

/** The first @p cols floats at @p p (the rest zero). */
template <class V>
MM_GEMM_INLINE V
loadPart(const float *p, size_t cols)
{
    V v;
    if (cols == kLanes<V>) {
        std::memcpy(&v, p, sizeof(v));
    } else {
        float tmp[kLanes<V>] = {};
        std::copy(p, p + cols, tmp);
        std::memcpy(&v, tmp, sizeof(v));
    }
    return v;
}

/** Writes the first @p cols lanes of @p v to @p p. */
template <class V>
MM_GEMM_INLINE void
storePart(float *p, V v, size_t cols)
{
    if (cols == kLanes<V>) {
        std::memcpy(p, &v, sizeof(v));
    } else {
        float tmp[kLanes<V>];
        std::memcpy(tmp, &v, sizeof(v));
        std::copy(tmp, tmp + cols, p);
    }
}

/**
 * acc += b * a, @p a broadcast to every lane, as one statement, which
 * the compiler contracts to a fused multiply-add where its settings
 * allow. Contract = false rounds the product first. Clang decides
 * contraction per statement, so its pragma sits here; GCC decides it
 * per function, so the callers that pass false are compiled in an
 * fp-contract=off scope as well. Written as vector * scalar, the
 * broadcast of @p a is one instruction; a vector built from @p a in a
 * helper compiled for the baseline ISA took GCC three or more.
 */
template <bool Contract, class V>
MM_GEMM_INLINE void
mulAdd(V &acc, V b, float a)
{
#if defined(__clang__)
    if constexpr (!Contract) {
#pragma clang fp contract(off)
        acc += b * a;
    } else {
        acc += b * a;
    }
#else
    acc += b * a;
#endif
}

enum class RowChain
{
    Blocked,
    NN,
    NT
};

/**
 * One kc-deep slice of op(B) as the row kernels read it: the vector at
 * column j and depth p starts at at(j) + p * ldp. Packed blocks hold
 * NR-column panels kc * NR floats apart with ldp = NR; plain rows
 * are one panel stride apart throughout (panelStride = NR).
 */
struct BSlice
{
    const float *b;
    size_t panelStride; ///< floats between consecutive NR-column panels
    size_t ldp;         ///< floats between consecutive depths p

    const float *
    at(size_t j) const
    {
        return b + j / NR * panelStride + j % NR;
    }
};

/** Accumulators one row group keeps in flight (registers permitting). */
template <class V>
constexpr size_t
stripVectors(size_t rows)
{
    const size_t budget = kLanes<V> >= 16 ? 16 : 8;
    size_t s = 8;
    while (s > 1 && s * rows > budget)
        s /= 2;
    return s;
}

/**
 * C rows [0, M) at the S vectors of columns from @p j (relative to
 * @p crows) over one kc-deep slice. Columns past @p n are computed
 * from B's zero padding and never stored.
 */
template <class V, size_t M, size_t S, RowChain chain, bool Contract>
MM_GEMM_INLINE void
rowStrip(const float *const *arows, float alpha, size_t kc, const BSlice &bs,
         float *const *crows, size_t j, size_t n)
{
    constexpr size_t W = kLanes<V>;
    const float *bp[S];
    size_t cols[S];
    for (size_t s = 0; s < S; ++s) {
        bp[s] = bs.at(j + s * W);
        cols[s] = std::min(W, n - (j + s * W));
    }
    V acc[M][S];
    for (size_t i = 0; i < M; ++i)
        for (size_t s = 0; s < S; ++s)
            acc[i][s] = chain == RowChain::NN
                            ? loadPart<V>(crows[i] + j + s * W, cols[s])
                            : V{};
    for (size_t p = 0; p < kc; ++p) {
        V b[S];
        for (size_t s = 0; s < S; ++s)
            std::memcpy(&b[s], bp[s] + p * bs.ldp, sizeof(V));
        for (size_t i = 0; i < M; ++i) {
            const float a = chain == RowChain::NN ? alpha * arows[i][p]
                                                  : arows[i][p];
            for (size_t s = 0; s < S; ++s)
                mulAdd<Contract>(acc[i][s], b[s], a);
        }
    }
    for (size_t i = 0; i < M; ++i) {
        for (size_t s = 0; s < S; ++s) {
            float *cp = crows[i] + j + s * W;
            V out = acc[i][s]; // NN accumulated onto C itself
            if constexpr (chain != RowChain::NN) {
                out = loadPart<V>(cp, cols[s]);
                if constexpr (chain == RowChain::Blocked)
                    out += acc[i][s];
                else
                    mulAdd<Contract>(out, acc[i][s], alpha);
            }
            storePart(cp, out, cols[s]);
        }
    }
}

/**
 * Every W-float vector of columns from @p j below @p n: S vectors per
 * strip while whole strips fit, then narrower strips for the rest.
 */
template <class V, size_t M, size_t S, RowChain chain, bool Contract>
MM_GEMM_INLINE void
rowStrips(const float *const *arows, float alpha, size_t kc,
          const BSlice &bs, float *const *crows, size_t j, size_t n)
{
    constexpr size_t W = kLanes<V>;
    for (; j + (S - 1) * W < n; j += S * W)
        rowStrip<V, M, S, chain, Contract>(arows, alpha, kc, bs, crows, j,
                                           n);
    if constexpr (S > 1)
        rowStrips<V, M, S / 2, chain, Contract>(arows, alpha, kc, bs, crows,
                                                j, n);
}

/** C rows [0, m) over one kc-deep slice; 1 <= m <= MR. */
template <class V, RowChain chain, bool Contract>
MM_GEMM_INLINE void
rowGroup(size_t m, const float *const *arows, float alpha, size_t kc,
         const BSlice &bs, float *const *crows, size_t n)
{
    static_assert(MR == 4, "row groups are specialized");
    switch (m) {
    case 1:
        rowStrips<V, 1, stripVectors<V>(1), chain, Contract>(
            arows, alpha, kc, bs, crows, 0, n);
        break;
    case 2:
        rowStrips<V, 2, stripVectors<V>(2), chain, Contract>(
            arows, alpha, kc, bs, crows, 0, n);
        break;
    case 3:
        rowStrips<V, 3, stripVectors<V>(3), chain, Contract>(
            arows, alpha, kc, bs, crows, 0, n);
        break;
    default:
        rowStrips<V, 4, stripVectors<V>(4), chain, Contract>(
            arows, alpha, kc, bs, crows, 0, n);
        break;
    }
}

/**
 * C rows [0, m) (ldc floats apart from @p c) over one kc-deep slice, A's
 * rows read in place (lda floats apart from @p a), MR rows at a time.
 */
template <class V, RowChain chain, bool Contract>
MM_GEMM_INLINE void
rowGroups(const float *a, size_t lda, size_t m, float alpha, size_t kc,
          const BSlice &bs, float *c, size_t ldc, size_t n)
{
    const float *arows[MR];
    float *crows[MR];
    for (size_t i0 = 0; i0 < m; i0 += MR) {
        const size_t rows = std::min(MR, m - i0);
        for (size_t i = 0; i < rows; ++i) {
            arows[i] = a + (i0 + i) * lda;
            crows[i] = c + (i0 + i) * ldc;
        }
        rowGroup<V, chain, Contract>(rows, arows, alpha, kc, bs, crows, n);
    }
}

/**
 * C rows [0, m) += A * op(B) over one packed kc x nc block of op(B)
 * (@p block), A holding alpha * op(A): the blocked chain. @p a points at
 * the block's first depth of A's first row.
 */
template <class V>
MM_GEMM_INLINE void
blockRowsImpl(const float *a, size_t lda, size_t m, const float *block,
              size_t kc, float *c, size_t ldc, size_t nc)
{
    rowGroups<V, RowChain::Blocked, true>(a, lda, m, 1.0f, kc,
                                          BSlice{block, kc * NR, NR}, c, ldc,
                                          nc);
}

/**
 * C rows [r0, r0 + m) = alpha * A * op(B) + C below the blocked cutoff,
 * A held as m rows of k floats and op(B) as packPlainRows() writes it:
 * the NT chain (@p transB) or the NN chain.
 */
template <class V, bool Contract>
MM_GEMM_INLINE void
plainRowsImpl(bool transB, float alpha, const float *a, size_t m,
              const float *b, Matrix &c, size_t r0, size_t k, size_t n)
{
    const BSlice bs{b, NR, padToPanels(n)};
    float *crows = c.data() + r0 * n;
    if (transB)
        rowGroups<V, RowChain::NT, Contract>(a, k, m, alpha, k, bs, crows, n,
                                             n);
    else
        rowGroups<V, RowChain::NN, Contract>(a, k, m, alpha, k, bs, crows, n,
                                             n);
}

// ---------------------------------------------------------------------------
// Kernel variants. The row kernels are compiled once portably and, on
// x86-64 Linux with GCC/Clang, additionally for AVX2+FMA and AVX-512;
// the best set the CPU supports is picked once at first use. Per
// machine the chosen set is fixed, so the determinism guarantees
// (batch-size independence, thread-count independence) are unaffected.
// Define MM_GEMM_NO_MULTIVERSION to force the portable set.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__)    \
    && !defined(MM_GEMM_NO_MULTIVERSION) && !defined(__AVX512F__)
#define MM_GEMM_MULTIVERSION 1
#else
#define MM_GEMM_MULTIVERSION 0
#endif

using BlockRowsFn = void (*)(const float *, size_t, size_t, const float *,
                             size_t, float *, size_t, size_t);
using PlainRowsFn = void (*)(bool, float, const float *, size_t,
                             const float *, Matrix &, size_t, size_t,
                             size_t);

/** One variant's kernels. */
struct KernelSet
{
    const char *isa; ///< gemmIsaPath()
    BlockRowsFn blockRows;
    PlainRowsFn plainRows;
};

#if MM_GEMM_MULTIVERSION
#define MM_GEMM_AVX2 __attribute__((target("avx2,fma")))
#define MM_GEMM_AVX512 __attribute__((target("avx512f,avx512vl,avx2,fma")))

MM_GEMM_AVX2 void
blockRowsAvx2(const float *a, size_t lda, size_t m, const float *block,
              size_t kc, float *c, size_t ldc, size_t nc)
{
    blockRowsImpl<Vec8f>(a, lda, m, block, kc, c, ldc, nc);
}

MM_GEMM_AVX512 void
blockRowsAvx512(const float *a, size_t lda, size_t m, const float *block,
                size_t kc, float *c, size_t ldc, size_t nc)
{
    blockRowsImpl<Vec16f>(a, lda, m, block, kc, c, ldc, nc);
}

/**
 * Whether the AVX variants of the NN/NT chains may contract: only where
 * the build's baseline ISA has FMA, so they round exactly as the
 * portable set compiled for that baseline does, and a sub-cutoff result
 * does not depend on which variant a host picks.
 */
#if defined(__FMA__)
constexpr bool kScalarContracts = true;
#else
constexpr bool kScalarContracts = false;
#endif

// GCC decides contraction per function: the NN/NT variants that must
// round every product are compiled with it off.
#if !defined(__FMA__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

MM_GEMM_AVX2 void
plainRowsAvx2(bool transB, float alpha, const float *a, size_t m,
              const float *b, Matrix &c, size_t r0, size_t k, size_t n)
{
    plainRowsImpl<Vec8f, kScalarContracts>(transB, alpha, a, m, b, c, r0, k,
                                           n);
}

MM_GEMM_AVX512 void
plainRowsAvx512(bool transB, float alpha, const float *a, size_t m,
                const float *b, Matrix &c, size_t r0, size_t k, size_t n)
{
    plainRowsImpl<Vec16f, kScalarContracts>(transB, alpha, a, m, b, c, r0,
                                            k, n);
}

#if !defined(__FMA__) && !defined(__clang__)
#pragma GCC pop_options
#endif
#endif // MM_GEMM_MULTIVERSION

/** The widest vector the build's own ISA has. */
#if defined(__GNUC__) && defined(__AVX512F__)
using PortableVec = Vec16f;
#else
using PortableVec = Vec8f;
#endif

void
blockRowsPortable(const float *a, size_t lda, size_t m, const float *block,
                  size_t kc, float *c, size_t ldc, size_t nc)
{
    blockRowsImpl<PortableVec>(a, lda, m, block, kc, c, ldc, nc);
}

/** Contracts wherever the baseline ISA has FMA (kScalarContracts). */
void
plainRowsPortable(bool transB, float alpha, const float *a, size_t m,
                  const float *b, Matrix &c, size_t r0, size_t k, size_t n)
{
    plainRowsImpl<PortableVec, true>(transB, alpha, a, m, b, c, r0, k, n);
}

KernelSet
resolveKernels()
{
#if MM_GEMM_MULTIVERSION
    if (__builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512vl"))
        return {"avx512", blockRowsAvx512, plainRowsAvx512};
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return {"avx2", blockRowsAvx2, plainRowsAvx2};
#endif
#if defined(__AVX512F__)
    // Compiled for the build host's full ISA (-march=native): one set.
    const char *isa = "native";
#else
    const char *isa = "portable";
#endif
    return {isa, blockRowsPortable, plainRowsPortable};
}

const KernelSet &
kernels()
{
    static const KernelSet set = resolveKernels();
    return set;
}

/**
 * Rows [r0, r1) of alpha * op(A) as rows of k floats: A's own rows in
 * place when untransposed and alpha is 1, else written into the calling
 * thread's scratch, each value alpha * a (a copy when alpha is 1).
 */
const float *
opARows(bool transA, float alpha, const Matrix &a, size_t r0, size_t r1,
        size_t k)
{
    if (!transA && alpha == 1.0f)
        return a.data() + r0 * k;
    AlignedFloatBuffer &rows = packBuffers().a;
    rows.resize((r1 - r0) * k);
    if (transA)
        transposeInto(a.data() + r0, a.cols(), k, r1 - r0, rows.data(), k);
    else
        std::copy(a.data() + r0 * k, a.data() + r1 * k, rows.data());
    if (alpha != 1.0f)
        for (float &v : rows)
            v *= alpha;
    return rows.data();
}

/**
 * Where the blocked loop reads op(B) from: blocks packed once up front
 * (@c panels), or the source matrix, packed block by block into the
 * calling thread's scratch.
 */
struct BSource
{
    const Matrix *b = nullptr;
    bool transB = false;
    const float *panels = nullptr;
};

/**
 * Blocked GEMM over C rows [rowBegin, rowEnd); beta already applied.
 * The k partition and per-element accumulation order are row-range
 * independent, so any row split yields bitwise-identical results.
 */
void
gemmBlockedRows(bool transA, float alpha, const Matrix &a,
                const BSource &src, Matrix &c, size_t rowBegin,
                size_t rowEnd, size_t k, size_t n)
{
    const float *rows = opARows(transA, alpha, a, rowBegin, rowEnd, k);
    const size_t m = rowEnd - rowBegin;
    AlignedFloatBuffer &scratch = packBuffers().b;
    for (size_t jc = 0; jc < n; jc += NC) {
        const size_t nc = std::min(NC, n - jc);
        const size_t nPad = padToPanels(nc);
        for (size_t pc = 0; pc < k; pc += KC) {
            const size_t kc = std::min(KC, k - pc);
            const float *block = nullptr;
            if (src.panels != nullptr) {
                block = src.panels + packedBlockOffset(jc, pc, k, nPad);
            } else {
                scratch.resize(kc * nPad);
                packB(*src.b, src.transB, pc, kc, jc, nc, scratch.data());
                block = scratch.data();
            }
            kernels().blockRows(rows + pc, k, m, block, kc,
                                c.data() + rowBegin * n + jc, n, nc);
        }
    }
}
/**
 * Blocked GEMM over C rows [r0, r1), fanned out over @p pool when
 * large.
 */
void
gemmBlocked(bool transA, float alpha, const Matrix &a, const BSource &src,
            Matrix &c, size_t r0, size_t r1, size_t k, size_t n,
            ThreadPool *pool)
{
    const size_t m = r1 - r0;
    size_t chunks = 1;
    if (pool != nullptr && pool->lanes() > 1
        && 2.0 * double(m) * double(n) * double(k) >= kParallelMinFlops)
        chunks = std::max<size_t>(1, std::min(pool->lanes(), m / MC));

    if (chunks <= 1) {
        gemmBlockedRows(transA, alpha, a, src, c, r0, r1, k, n);
        return;
    }

    // MC-aligned disjoint row ranges: identical arithmetic per element
    // at any chunk count, so threading cannot perturb results.
    const size_t rowBlocks = (m + MC - 1) / MC;
    pool->parallelFor(chunks, [&](size_t ci) {
        const size_t lo = r0 + rowBlocks * ci / chunks * MC;
        const size_t hi =
            std::min(r1, r0 + rowBlocks * (ci + 1) / chunks * MC);
        if (lo < hi)
            gemmBlockedRows(transA, alpha, a, src, c, lo, hi, k, n);
    });
}

/**
 * Sub-cutoff gemm() over C rows [r0, r1) with op(B) packed per call:
 * op(B) into plain rows exactly as PackedB holds them and op(A)'s rows
 * through opARows(); then the plain-row kernels. An element's chain
 * depends only on transB, so materialising op(A) moves no bit, and the
 * result equals the prepacked path's.
 */
void
gemmPlainRows(bool transA, bool transB, float alpha, const Matrix &a,
              const Matrix &b, Matrix &c, size_t r0, size_t r1, size_t k,
              size_t n)
{
    AlignedFloatBuffer &plainB = packBuffers().b;
    plainB.resize(k * padToPanels(n));
    packPlainRows(b, transB, k, n, plainB.data());
    kernels().plainRows(transB, alpha, opARows(transA, 1.0f, a, r0, r1, k),
                        r1 - r0, plainB.data(), c, r0, k, n);
}

/**
 * Dispatch on (k, n) only: a batched row and the same row alone must
 * take the same kernel so their arithmetic is identical.
 */
bool
isBlockedShape(size_t k, size_t n)
{
    return k * n >= kBlockedMinKN;
}

/** Rows of op(A). */
size_t
opRows(bool transA, const Matrix &a)
{
    return transA ? a.cols() : a.rows();
}

/**
 * Shape-check op(A) against a kb x n op(B) and the row range [r0, r1)
 * of C, and apply beta to those rows only; returns {m, k, n}.
 */
std::array<size_t, 3>
prologue(bool transA, const Matrix &a, size_t kb, size_t n, float beta,
         Matrix &c, size_t r0, size_t r1)
{
    const size_t m = opRows(transA, a);
    const size_t ka = transA ? a.rows() : a.cols();
    MM_ASSERT(ka == kb,
              strCat("gemm inner-dimension mismatch: ", ka, " vs ", kb));
    MM_ASSERT(c.rows() == m && c.cols() == n, "gemm output shape mismatch");
    MM_ASSERT(r0 <= r1 && r1 <= m,
              strCat("gemm row range [", r0, ", ", r1, ") past ", m,
                     " rows"));

    float *rows = c.data() + r0 * n;
    const size_t count = (r1 - r0) * n;
    if (beta == 0.0f)
        std::fill(rows, rows + count, 0.0f);
    else if (beta != 1.0f)
        for (size_t i = 0; i < count; ++i)
            rows[i] *= beta;
    return {m, ka, n};
}

std::array<size_t, 3>
prologue(bool transA, bool transB, const Matrix &a, const Matrix &b,
         float beta, Matrix &c, size_t r0, size_t r1)
{
    return prologue(transA, a, transB ? b.cols() : b.rows(),
                    transB ? b.rows() : b.cols(), beta, c, r0, r1);
}

/** gemm() over C rows [r0, r1), fanned out over @p pool when large. */
void
gemmRange(bool transA, bool transB, float alpha, const Matrix &a,
          const Matrix &b, float beta, Matrix &c, size_t r0, size_t r1,
          ThreadPool *pool)
{
    auto [m, k, n] = prologue(transA, transB, a, b, beta, c, r0, r1);
    if (r0 == r1 || n == 0 || k == 0 || alpha == 0.0f)
        return;
    if (!isBlockedShape(k, n)) {
        gemmPlainRows(transA, transB, alpha, a, b, c, r0, r1, k, n);
        return;
    }
    gemmBlocked(transA, alpha, a, BSource{&b, transB, nullptr}, c, r0, r1,
                k, n, pool);
}

} // namespace

PackedB::PackedB(const Matrix &b, bool transB_)
    : k(transB_ ? b.cols() : b.rows()), n(transB_ ? b.rows() : b.cols()),
      transB(transB_)
{
    panels.resize(k * padToPanels(n));
    if (!isBlockedShape(k, n)) {
        packPlainRows(b, transB, k, n, panels.data());
        return;
    }
    for (size_t jc = 0; jc < n; jc += NC) {
        const size_t nc = std::min(NC, n - jc);
        const size_t ncPad = padToPanels(nc);
        for (size_t pc = 0; pc < k; pc += KC)
            packB(b, transB, pc, std::min(KC, k - pc), jc, nc,
                  panels.data() + packedBlockOffset(jc, pc, k, ncPad));
    }
}

void
gemm(bool transA, bool transB, float alpha, const Matrix &a, const Matrix &b,
     float beta, Matrix &c, ThreadPool *pool)
{
    gemmRange(transA, transB, alpha, a, b, beta, c, 0, opRows(transA, a),
              pool);
}

void
gemmRows(bool transA, bool transB, float alpha, const Matrix &a,
         const Matrix &b, float beta, Matrix &c, size_t r0, size_t r1)
{
    gemmRange(transA, transB, alpha, a, b, beta, c, r0, r1, nullptr);
}

void
PackedB::multiply(float alpha, const Matrix &a, float beta, Matrix &c,
                  size_t r0, size_t r1, ThreadPool *pool) const
{
    prologue(false, a, k, n, beta, c, r0, r1);
    if (r0 == r1 || n == 0 || k == 0 || alpha == 0.0f)
        return;
    if (!isBlockedShape(k, n)) {
        kernels().plainRows(transB, alpha, a.data() + r0 * k, r1 - r0,
                            panels.data(), c, r0, k, n);
        return;
    }
    gemmBlocked(false, alpha, a, BSource{nullptr, false, panels.data()}, c,
                r0, r1, k, n, pool);
}

void
gemm(float alpha, const Matrix &a, const PackedB &b, float beta, Matrix &c,
     ThreadPool *pool)
{
    b.multiply(alpha, a, beta, c, 0, a.rows(), pool);
}

void
gemmRows(float alpha, const Matrix &a, const PackedB &b, float beta,
         Matrix &c, size_t r0, size_t r1)
{
    b.multiply(alpha, a, beta, c, r0, r1, nullptr);
}

const char *
gemmIsaPath()
{
    return kernels().isa;
}

void
gemmNaive(bool transA, bool transB, float alpha, const Matrix &a,
          const Matrix &b, float beta, Matrix &c)
{
    auto [m, k, n] = prologue(transA, transB, a, b, beta, c, 0,
                              opRows(transA, a));
    if (alpha == 0.0f)
        return;
    for (size_t i = 0; i < m; ++i) {
        for (size_t p = 0; p < k; ++p) {
            const float av = alpha * elemA(a, transA, i, p);
            for (size_t j = 0; j < n; ++j)
                c(i, j) += av * elemB(b, transB, p, j);
        }
    }
}

void
gemmReference(bool transA, bool transB, float alpha, const Matrix &a,
              const Matrix &b, float beta, Matrix &c)
{
    const size_t m = transA ? a.cols() : a.rows();
    const size_t k = transA ? a.rows() : a.cols();
    const size_t n = transB ? b.rows() : b.cols();
    MM_ASSERT(c.rows() == m && c.cols() == n, "gemm output shape mismatch");
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (size_t p = 0; p < k; ++p) {
                float av = transA ? a(p, i) : a(i, p);
                float bv = transB ? b(j, p) : b(p, j);
                acc += double(av) * double(bv);
            }
            c(i, j) = alpha * float(acc) + beta * c(i, j);
        }
    }
}

} // namespace mm
