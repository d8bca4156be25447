#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/string_util.hpp"
#include "common/thread_pool.hpp"

namespace mm {

namespace {

// ---------------------------------------------------------------------------
// Blocking parameters.
//
// MR x NR is the micro-tile held in registers (NR = 16 floats = one
// cache line = four SSE / two AVX vectors). MC x KC sizes the packed A
// panel (~64 KiB, L2-resident); KC x NC sizes the packed B panel. MC
// must be a multiple of MR and NC a multiple of NR.
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
    AlignedFloatBuffer a; ///< A micro-panels, or op(A) below the cutoff
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
 * Pack an mc x kc block of op(A), alpha folded in, as MR-row
 * micro-panels: panel ir holds [p][i] with the MR row values of each p
 * contiguous. Rows past mc are zero so the micro-kernel never branches.
 */
void
packA(const Matrix &a, bool transA, float alpha, size_t i0, size_t mc,
      size_t p0, size_t kc, float *dst)
{
    const size_t panels = (mc + MR - 1) / MR;
    for (size_t ir = 0; ir < panels; ++ir) {
        float *panel = dst + ir * kc * MR;
        const size_t rows = std::min(MR, mc - ir * MR);
        for (size_t p = 0; p < kc; ++p) {
            for (size_t i = 0; i < rows; ++i)
                panel[p * MR + i] =
                    alpha * elemA(a, transA, i0 + ir * MR + i, p0 + p);
            for (size_t i = rows; i < MR; ++i)
                panel[p * MR + i] = 0.0f;
        }
    }
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

// The vector kernels (macro-kernel and few-row kernels, see "Kernel
// variants") are compiled once portably and, on x86-64 Linux with
// GCC/Clang, additionally for AVX2+FMA and AVX-512; the best variant
// the CPU supports is picked once at first use. Per machine the chosen
// variant is fixed, so the determinism guarantees (batch-size
// independence, thread-count independence) are unaffected. Define
// MM_GEMM_NO_MULTIVERSION to force the portable path.
#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__)    \
    && !defined(MM_GEMM_NO_MULTIVERSION) && !defined(__AVX512F__)
#define MM_GEMM_MULTIVERSION 1
#else
#define MM_GEMM_MULTIVERSION 0
#endif

#if defined(__GNUC__)
#define MM_GEMM_INLINE inline __attribute__((always_inline))
#else
#define MM_GEMM_INLINE inline
#endif

/**
 * acc[MR][NR] = sum_p apanel[p] (x) bpanel[p]. One strictly sequential
 * accumulation chain per element (no k-splitting, no horizontal sums):
 * the chain is what makes a row's result independent of which batch or
 * tile it lands in.
 *
 * The GNU-vector-extension variant keeps the MR x NR tile in eight
 * named half-row accumulators, which the compiler register-allocates
 * (the 2-D array form spills to the stack and runs ~2.5x slower). The
 * per-element arithmetic — one multiply-add per p, in p order — is
 * identical to the scalar fallback.
 */
#if defined(__GNUC__)

using Vec8f = float __attribute__((vector_size(32)));

MM_GEMM_INLINE Vec8f
splat8(float v)
{
    return Vec8f{v, v, v, v, v, v, v, v};
}

MM_GEMM_INLINE Vec8f
load8(const float *p)
{
    Vec8f v;
    __builtin_memcpy(&v, p, sizeof(v));
    return v;
}

MM_GEMM_INLINE void
store8(float *p, Vec8f v)
{
    __builtin_memcpy(p, &v, sizeof(v));
}

MM_GEMM_INLINE void
microKernel(size_t kc, const float *apanel, const float *bpanel,
            float acc[MR][NR])
{
    static_assert(MR == 4 && NR == 16, "micro-kernel is specialized");
    Vec8f c00 = splat8(0.0f), c01 = splat8(0.0f);
    Vec8f c10 = splat8(0.0f), c11 = splat8(0.0f);
    Vec8f c20 = splat8(0.0f), c21 = splat8(0.0f);
    Vec8f c30 = splat8(0.0f), c31 = splat8(0.0f);
    for (size_t p = 0; p < kc; ++p) {
        const float *arow = apanel + p * MR;
        const float *brow = static_cast<const float *>(
            __builtin_assume_aligned(bpanel + p * NR, kMatrixAlignment));
        const Vec8f b0 = load8(brow);
        const Vec8f b1 = load8(brow + 8);
        const Vec8f a0 = splat8(arow[0]);
        c00 += a0 * b0;
        c01 += a0 * b1;
        const Vec8f a1 = splat8(arow[1]);
        c10 += a1 * b0;
        c11 += a1 * b1;
        const Vec8f a2 = splat8(arow[2]);
        c20 += a2 * b0;
        c21 += a2 * b1;
        const Vec8f a3 = splat8(arow[3]);
        c30 += a3 * b0;
        c31 += a3 * b1;
    }
    store8(acc[0], c00);
    store8(acc[0] + 8, c01);
    store8(acc[1], c10);
    store8(acc[1] + 8, c11);
    store8(acc[2], c20);
    store8(acc[2] + 8, c21);
    store8(acc[3], c30);
    store8(acc[3] + 8, c31);
}

/**
 * Row edge of the micro-kernel: one row of an A panel (@p arow, its
 * values MR apart) against P consecutive B panels (@p bpanel, kc * NR
 * apart), acc[q] receiving panel q. Each element keeps microKernel's
 * exact chain, so a row computed here is bitwise equal to the same row
 * inside a full MR-row tile; it only skips the zero-padded rows a full
 * tile would compute when fewer than MR rows are left (batch-1 queries
 * are all edge). Spanning several panels keeps enough independent
 * accumulators in flight to cover the multiply-add latency.
 */
template <size_t P>
MM_GEMM_INLINE void
microKernelRow(size_t kc, const float *arow, const float *bpanel,
               float acc[][NR])
{
    Vec8f lo[P], hi[P];
    for (size_t q = 0; q < P; ++q)
        lo[q] = hi[q] = splat8(0.0f);
    for (size_t p = 0; p < kc; ++p) {
        const Vec8f a = splat8(arow[p * MR]);
        for (size_t q = 0; q < P; ++q) {
            const float *brow = static_cast<const float *>(
                __builtin_assume_aligned(bpanel + q * kc * NR + p * NR,
                                         kMatrixAlignment));
            lo[q] += a * load8(brow);
            hi[q] += a * load8(brow + 8);
        }
    }
    for (size_t q = 0; q < P; ++q) {
        store8(acc[q], lo[q]);
        store8(acc[q] + 8, hi[q]);
    }
}

#else // !__GNUC__: portable scalar micro-kernel

MM_GEMM_INLINE void
microKernel(size_t kc, const float *apanel, const float *bpanel,
            float acc[MR][NR])
{
    for (size_t i = 0; i < MR; ++i)
        for (size_t j = 0; j < NR; ++j)
            acc[i][j] = 0.0f;
    for (size_t p = 0; p < kc; ++p) {
        const float *arow = apanel + p * MR;
        const float *brow = bpanel + p * NR;
        for (size_t i = 0; i < MR; ++i) {
            const float av = arow[i];
            for (size_t j = 0; j < NR; ++j)
                acc[i][j] += av * brow[j];
        }
    }
}

template <size_t P>
MM_GEMM_INLINE void
microKernelRow(size_t kc, const float *arow, const float *bpanel,
               float acc[][NR])
{
    for (size_t q = 0; q < P; ++q)
        for (size_t j = 0; j < NR; ++j)
            acc[q][j] = 0.0f;
    for (size_t p = 0; p < kc; ++p) {
        const float av = arow[p * MR];
        for (size_t q = 0; q < P; ++q) {
            const float *brow = bpanel + q * kc * NR + p * NR;
            for (size_t j = 0; j < NR; ++j)
                acc[q][j] += av * brow[j];
        }
    }
}

#endif

/** B panels one microKernelRow call spans. */
constexpr size_t kRowPanels = 4;

/** crow[0, cols) += acc[0, cols). */
MM_GEMM_INLINE void
addTile(float *crow, const float *acc, size_t cols)
{
    for (size_t j = 0; j < cols; ++j)
        crow[j] += acc[j];
}

/** C block += packed-A panel * packed-B panel, clipping tile edges. */
MM_GEMM_INLINE void
macroKernelImpl(const float *ap, const float *bp, size_t kc, Matrix &c,
                size_t ic, size_t mc, size_t jc, size_t nc)
{
    const size_t ldc = c.cols();
    const size_t fullRows = mc / MR * MR;
    for (size_t jr = 0; jr < nc; jr += NR) {
        const float *bpanel = bp + (jr / NR) * kc * NR;
        const size_t nr = std::min(NR, nc - jr);
        for (size_t ir = 0; ir < fullRows; ir += MR) {
            const float *apanel = ap + (ir / MR) * kc * MR;
            float acc[MR][NR];
            microKernel(kc, apanel, bpanel, acc);
            for (size_t i = 0; i < MR; ++i)
                addTile(c.data() + (ic + ir + i) * ldc + jc + jr, acc[i],
                        nr);
        }
    }

    // Fewer than MR rows left: one row at a time, kRowPanels B panels
    // per call, then one panel per call for the rest.
    const float *apanel = ap + (fullRows / MR) * kc * MR;
    for (size_t i = 0; fullRows + i < mc; ++i) {
        float *crow = c.data() + (ic + fullRows + i) * ldc + jc;
        size_t jr = 0;
        for (; jr + kRowPanels * NR <= nc; jr += kRowPanels * NR) {
            float acc[kRowPanels][NR];
            microKernelRow<kRowPanels>(kc, apanel + i,
                                       bp + (jr / NR) * kc * NR, acc);
            for (size_t q = 0; q < kRowPanels; ++q)
                addTile(crow + jr + q * NR, acc[q], NR);
        }
        for (; jr < nc; jr += NR) {
            float acc[1][NR];
            microKernelRow<1>(kc, apanel + i, bp + (jr / NR) * kc * NR,
                              acc);
            addTile(crow + jr, acc[0], std::min(NR, nc - jr));
        }
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
// Row kernels: the few-row kernels (up to MR rows against prepacked
// blocks) and the plain-row kernels (every shape below the blocked
// cutoff). They read A's rows in place, stream op(B) at the variant's
// widest vector, and keep up to 16 independent accumulators in flight
// at one row. A frozen surrogate's queries multiply one to four rows by
// weights packed once; a full MR-row tile would copy those rows into a
// zero-padded A panel and stream B eight floats at a time. Each element
// runs one of three chains:
//
//  - Blocked (microKernel's): per KC block, acc = 0,
//    acc += (alpha * a) * b in p order, then C += acc.
//  - NN: C += (alpha * a) * b in p order, straight onto C.
//  - NT: acc = 0, acc += a * b in p order, then C += alpha * acc.
//
// The blocked chain contracts like the macro-kernel variant it is
// compiled beside; the NN/NT chains contract only where the baseline
// ISA has FMA (see kScalarContracts).
// ---------------------------------------------------------------------------

#if defined(__GNUC__)
using Vec16f = float __attribute__((vector_size(64)));
#else
/** Element-wise stand-in for the GNU vector type. */
struct Vec8f
{
    float v[8];

    float &operator[](size_t i) { return v[i]; }

    friend Vec8f
    operator*(Vec8f x, Vec8f y)
    {
        for (size_t i = 0; i < 8; ++i)
            x.v[i] *= y.v[i];
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

#if defined(MM_GEMM_SHUFFLE)
template <class V, size_t... L>
MM_GEMM_INLINE V
splatLanes(float x, std::index_sequence<L...>)
{
    // These helpers are compiled for the baseline ISA and inlined into
    // the AVX variants. GCC inlines a vector initializer from there as
    // one insert per lane; lane 0 shuffled to every lane stays one
    // broadcast.
    V v{};
    std::memcpy(&v, &x, sizeof(x));
    return __builtin_shufflevector(v, v, (L * 0)...);
}

template <class V>
MM_GEMM_INLINE V
splat(float x)
{
    return splatLanes<V>(x, std::make_index_sequence<kLanes<V>>{});
}
#else
template <class V>
MM_GEMM_INLINE V
splat(float x)
{
    V v;
    for (size_t l = 0; l < kLanes<V>; ++l)
        v[l] = x;
    return v;
}
#endif

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
 * acc += a * b as one statement, which the compiler contracts to a
 * fused multiply-add where its settings allow. Contract = false rounds
 * the product first. Clang decides contraction per statement, so its
 * pragma sits here; GCC decides it per function, so the callers that
 * pass false are compiled in an fp-contract=off scope as well.
 */
template <bool Contract, class V>
MM_GEMM_INLINE void
mulAdd(V &acc, V a, V b)
{
#if defined(__clang__)
    if constexpr (!Contract) {
#pragma clang fp contract(off)
        acc += a * b;
    } else {
        acc += a * b;
    }
#else
    acc += a * b;
#endif
}

enum class RowChain
{
    Blocked,
    NN,
    NT
};

/**
 * One kc-deep slice of op(B) as the few-row kernels read it: the vector
 * at column j and depth p starts at at(j) + p * ldp. Prepacked blocks
 * hold NR-column panels kc * NR floats apart with ldp = NR; plain rows
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
                            : splat<V>(0.0f);
    for (size_t p = 0; p < kc; ++p) {
        V b[S];
        for (size_t s = 0; s < S; ++s)
            std::memcpy(&b[s], bp[s] + p * bs.ldp, sizeof(V));
        for (size_t i = 0; i < M; ++i) {
            const V a = splat<V>(chain == RowChain::NT ? arows[i][p]
                                                       : alpha * arows[i][p]);
            for (size_t s = 0; s < S; ++s)
                mulAdd<Contract>(acc[i][s], a, b[s]);
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
                    mulAdd<Contract>(out, splat<V>(alpha), acc[i][s]);
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
 * C rows [r0, r0 + m) = alpha * A * op(B) + C for m <= MR rows of A
 * (k floats each, from @p a) against prepacked blocks, block by block
 * in gemmBlockedRows' (jc, pc) order.
 */
template <class V>
MM_GEMM_INLINE void
fewRowsImpl(float alpha, const float *a, size_t m, const float *panels,
            Matrix &c, size_t r0, size_t k, size_t n)
{
    const float *arows[MR];
    float *crows[MR];
    for (size_t jc = 0; jc < n; jc += NC) {
        const size_t nc = std::min(NC, n - jc);
        const size_t nPad = padToPanels(nc);
        for (size_t pc = 0; pc < k; pc += KC) {
            const size_t kc = std::min(KC, k - pc);
            const BSlice bs{panels + packedBlockOffset(jc, pc, k, nPad),
                            kc * NR, NR};
            for (size_t i = 0; i < m; ++i) {
                arows[i] = a + i * k + pc;
                crows[i] = c.data() + (r0 + i) * n + jc;
            }
            rowGroup<V, RowChain::Blocked, true>(m, arows, alpha, kc, bs,
                                                 crows, nc);
        }
    }
}

/**
 * C rows [r0, r0 + m) = alpha * A * op(B) + C below the blocked cutoff,
 * A held as m rows of k floats and op(B) as packPlainRows() writes it:
 * the NT chain (@p transB) or the NN chain, MR rows at a time.
 */
template <class V, bool Contract>
MM_GEMM_INLINE void
plainRowsImpl(bool transB, float alpha, const float *a, size_t m,
              const float *b, Matrix &c, size_t r0, size_t k, size_t n)
{
    const BSlice bs{b, NR, padToPanels(n)};
    const float *arows[MR];
    float *crows[MR];
    for (size_t i0 = 0; i0 < m; i0 += MR) {
        const size_t rows = std::min(MR, m - i0);
        for (size_t i = 0; i < rows; ++i) {
            arows[i] = a + (i0 + i) * k;
            crows[i] = c.data() + (r0 + i0 + i) * n;
        }
        if (transB)
            rowGroup<V, RowChain::NT, Contract>(rows, arows, alpha, k, bs,
                                                crows, n);
        else
            rowGroup<V, RowChain::NN, Contract>(rows, arows, alpha, k, bs,
                                                crows, n);
    }
}

// ---------------------------------------------------------------------------
// Kernel variants. The macro-kernel and the few-row kernels are compiled
// once portably and, on x86-64 Linux with GCC/Clang, additionally for
// AVX2+FMA and AVX-512; the best set the CPU supports is picked once at
// first use.
// ---------------------------------------------------------------------------

using MacroKernelFn = void (*)(const float *, const float *, size_t,
                               Matrix &, size_t, size_t, size_t, size_t);
using FewRowsFn = void (*)(float, const float *, size_t, const float *,
                           Matrix &, size_t, size_t, size_t);
using PlainRowsFn = void (*)(bool, float, const float *, size_t,
                             const float *, Matrix &, size_t, size_t,
                             size_t);

/** One variant's kernels. */
struct KernelSet
{
    const char *isa; ///< gemmIsaPath()
    MacroKernelFn macro;
    FewRowsFn fewRows;
    PlainRowsFn plainRows;
};

#if MM_GEMM_MULTIVERSION
#define MM_GEMM_AVX2 __attribute__((target("avx2,fma")))
#define MM_GEMM_AVX512 __attribute__((target("avx512f,avx512vl,avx2,fma")))

MM_GEMM_AVX2 void
macroKernelAvx2(const float *ap, const float *bp, size_t kc, Matrix &c,
                size_t ic, size_t mc, size_t jc, size_t nc)
{
    macroKernelImpl(ap, bp, kc, c, ic, mc, jc, nc);
}

MM_GEMM_AVX512 void
macroKernelAvx512(const float *ap, const float *bp, size_t kc, Matrix &c,
                  size_t ic, size_t mc, size_t jc, size_t nc)
{
    macroKernelImpl(ap, bp, kc, c, ic, mc, jc, nc);
}

MM_GEMM_AVX2 void
fewRowsAvx2(float alpha, const float *a, size_t m, const float *panels,
            Matrix &c, size_t r0, size_t k, size_t n)
{
    fewRowsImpl<Vec8f>(alpha, a, m, panels, c, r0, k, n);
}

MM_GEMM_AVX512 void
fewRowsAvx512(float alpha, const float *a, size_t m, const float *panels,
              Matrix &c, size_t r0, size_t k, size_t n)
{
    fewRowsImpl<Vec16f>(alpha, a, m, panels, c, r0, k, n);
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

void
macroKernelPortable(const float *ap, const float *bp, size_t kc, Matrix &c,
                    size_t ic, size_t mc, size_t jc, size_t nc)
{
    macroKernelImpl(ap, bp, kc, c, ic, mc, jc, nc);
}

/** The widest vector the build's own ISA has. */
#if defined(__GNUC__) && defined(__AVX512F__)
using PortableVec = Vec16f;
#else
using PortableVec = Vec8f;
#endif

void
fewRowsPortable(float alpha, const float *a, size_t m, const float *panels,
                Matrix &c, size_t r0, size_t k, size_t n)
{
    fewRowsImpl<PortableVec>(alpha, a, m, panels, c, r0, k, n);
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
        return {"avx512", macroKernelAvx512, fewRowsAvx512, plainRowsAvx512};
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return {"avx2", macroKernelAvx2, fewRowsAvx2, plainRowsAvx2};
#endif
#if defined(__AVX512F__)
    // Compiled for the build host's full ISA (-march=native): one set.
    const char *isa = "native";
#else
    const char *isa = "portable";
#endif
    return {isa, macroKernelPortable, fewRowsPortable, plainRowsPortable};
}

const KernelSet &
kernels()
{
    static const KernelSet set = resolveKernels();
    return set;
}

void
macroKernel(const float *ap, const float *bp, size_t kc, Matrix &c,
            size_t ic, size_t mc, size_t jc, size_t nc)
{
    kernels().macro(ap, bp, kc, c, ic, mc, jc, nc);
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
    PackBuffers &ws = packBuffers();
    for (size_t jc = 0; jc < n; jc += NC) {
        const size_t nc = std::min(NC, n - jc);
        const size_t nPad = padToPanels(nc);
        for (size_t pc = 0; pc < k; pc += KC) {
            const size_t kc = std::min(KC, k - pc);
            const float *bp = nullptr;
            if (src.panels != nullptr) {
                bp = src.panels + packedBlockOffset(jc, pc, k, nPad);
            } else {
                ws.b.resize(kc * nPad);
                packB(*src.b, src.transB, pc, kc, jc, nc, ws.b.data());
                bp = ws.b.data();
            }
            for (size_t ic = rowBegin; ic < rowEnd; ic += MC) {
                const size_t mc = std::min(MC, rowEnd - ic);
                const size_t mPad = (mc + MR - 1) / MR * MR;
                ws.a.resize(mPad * kc);
                packA(a, transA, alpha, ic, mc, pc, kc, ws.a.data());
                macroKernel(ws.a.data(), bp, kc, c, ic, mc, jc, nc);
            }
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
 * op(B) into plain rows exactly as PackedB holds them and, for
 * @p transA, those rows of op(A) into row-major scratch; then the
 * plain-row kernels. An element's chain depends only on transB, so
 * materialising op(A) moves no bit, and the result equals the
 * prepacked path's.
 */
void
gemmPlainRows(bool transA, bool transB, float alpha, const Matrix &a,
              const Matrix &b, Matrix &c, size_t r0, size_t r1, size_t k,
              size_t n)
{
    PackBuffers &ws = packBuffers();
    ws.b.resize(k * padToPanels(n));
    packPlainRows(b, transB, k, n, ws.b.data());
    const float *opA = a.data() + r0 * k;
    if (transA) {
        ws.a.resize((r1 - r0) * k);
        transposeInto(a.data() + r0, a.cols(), k, r1 - r0, ws.a.data(), k);
        opA = ws.a.data();
    }
    kernels().plainRows(transB, alpha, opA, r1 - r0, ws.b.data(), c, r0, k,
                        n);
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
    const float *rows = a.data() + r0 * k;
    if (!isBlockedShape(k, n)) {
        kernels().plainRows(transB, alpha, rows, r1 - r0, panels.data(), c,
                            r0, k, n);
        return;
    }
    if (r1 - r0 <= MR) {
        kernels().fewRows(alpha, rows, r1 - r0, panels.data(), c, r0, k, n);
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
