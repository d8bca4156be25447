#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>

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

/** Shapes with k*n below this stay on the scalar kernels. */
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
    AlignedFloatBuffer a;
    AlignedFloatBuffer b;
};

PackBuffers &
packBuffers()
{
    static thread_local PackBuffers bufs;
    return bufs;
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
        if (!transB && cols == NR) {
            for (size_t p = 0; p < kc; ++p) {
                const float *src = b.data() + (p0 + p) * b.cols() + j0
                                   + jr * NR;
                std::copy(src, src + NR, panel + p * NR);
            }
            continue;
        }
        for (size_t p = 0; p < kc; ++p) {
            for (size_t j = 0; j < cols; ++j)
                panel[p * NR + j] =
                    elemB(b, transB, p0 + p, j0 + jr * NR + j);
            for (size_t j = cols; j < NR; ++j)
                panel[p * NR + j] = 0.0f;
        }
    }
}

// The macro-kernel (with the micro-kernel inlined) is compiled once
// portably and, on x86-64 Linux with GCC/Clang, additionally for
// AVX2+FMA and AVX-512; the best variant the CPU supports is picked
// once at first use. Per machine the chosen variant is fixed, so the
// determinism guarantees (batch-size independence, thread-count
// independence) are unaffected. Define MM_GEMM_NO_MULTIVERSION to
// force the portable path.
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

#if MM_GEMM_MULTIVERSION
__attribute__((target("avx2,fma"))) void
macroKernelAvx2(const float *ap, const float *bp, size_t kc, Matrix &c,
                size_t ic, size_t mc, size_t jc, size_t nc)
{
    macroKernelImpl(ap, bp, kc, c, ic, mc, jc, nc);
}

__attribute__((target("avx512f,avx512vl,avx2,fma"))) void
macroKernelAvx512(const float *ap, const float *bp, size_t kc, Matrix &c,
                  size_t ic, size_t mc, size_t jc, size_t nc)
{
    macroKernelImpl(ap, bp, kc, c, ic, mc, jc, nc);
}
#endif

void
macroKernelPortable(const float *ap, const float *bp, size_t kc, Matrix &c,
                    size_t ic, size_t mc, size_t jc, size_t nc)
{
    macroKernelImpl(ap, bp, kc, c, ic, mc, jc, nc);
}

using MacroKernelFn = void (*)(const float *, const float *, size_t,
                               Matrix &, size_t, size_t, size_t, size_t);

MacroKernelFn
resolveMacroKernel()
{
#if MM_GEMM_MULTIVERSION
    if (__builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512vl"))
        return macroKernelAvx512;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return macroKernelAvx2;
#endif
    return macroKernelPortable;
}

void
macroKernel(const float *ap, const float *bp, size_t kc, Matrix &c,
            size_t ic, size_t mc, size_t jc, size_t nc)
{
    static const MacroKernelFn fn = resolveMacroKernel();
    fn(ap, bp, kc, c, ic, mc, jc, nc);
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

/** Blocked GEMM over all m rows, fanned out over @p pool when large. */
void
gemmBlocked(bool transA, float alpha, const Matrix &a, const BSource &src,
            Matrix &c, size_t m, size_t k, size_t n, ThreadPool *pool)
{
    size_t chunks = 1;
    if (pool != nullptr && pool->lanes() > 1
        && 2.0 * double(m) * double(n) * double(k) >= kParallelMinFlops)
        chunks = std::max<size_t>(1, std::min(pool->lanes(), m / MC));

    if (chunks <= 1) {
        gemmBlockedRows(transA, alpha, a, src, c, 0, m, k, n);
        return;
    }

    // MC-aligned disjoint row ranges: identical arithmetic per element
    // at any chunk count, so threading cannot perturb results.
    const size_t rowBlocks = (m + MC - 1) / MC;
    pool->parallelFor(chunks, [&](size_t ci) {
        const size_t b0 = rowBlocks * ci / chunks;
        const size_t b1 = rowBlocks * (ci + 1) / chunks;
        const size_t r0 = b0 * MC;
        const size_t r1 = std::min(m, b1 * MC);
        if (r0 < r1)
            gemmBlockedRows(transA, alpha, a, src, c, r0, r1, k, n);
    });
}

// ---------------------------------------------------------------------------
// Scalar small-shape kernels (the pre-blocking implementation).
// ---------------------------------------------------------------------------

/** C(m,n) += alpha * A(m,k) * B(k,n); ikj order, contiguous in B and C. */
void
gemmNN(float alpha, const Matrix &a, const Matrix &b, Matrix &c)
{
    const size_t m = a.rows(), k = a.cols(), n = b.cols();
    for (size_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        float *crow = c.data() + i * n;
        for (size_t p = 0; p < k; ++p) {
            const float av = alpha * arow[p];
            const float *brow = b.data() + p * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/**
 * C(m,n) += alpha * A(m,k) * Bt(k,n), Bt = B^T stored row-major. Each
 * element is a dot product: acc starts at zero, adds a(i,p) * B(j,p) in
 * p order, and C(i,j) += alpha * acc. The n dot products of a row run
 * side by side, so the loop vectorizes across j without reordering any
 * element's sum.
 */
void
gemmNTRows(float alpha, const Matrix &a, const float *bt, size_t n,
           Matrix &c)
{
    const size_t m = a.rows(), k = a.cols();
    AlignedFloatBuffer &acc = packBuffers().a;
    acc.resize(n);
    for (size_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (size_t p = 0; p < k; ++p) {
            const float av = arow[p];
            const float *brow = bt + p * n;
            for (size_t j = 0; j < n; ++j)
                acc[j] += av * brow[j];
        }
        float *crow = c.data() + i * n;
        for (size_t j = 0; j < n; ++j)
            crow[j] += alpha * acc[j];
    }
}

/** Writes B(n,k)^T into @p dst as a row-major k x n matrix. */
void
transposeInto(const Matrix &b, float *dst)
{
    const size_t n = b.rows(), k = b.cols();
    for (size_t j = 0; j < n; ++j)
        for (size_t p = 0; p < k; ++p)
            dst[p * n + j] = b(j, p);
}

/**
 * Row count from which gemmNT transposes B for gemmNTRows. Below it the
 * k x n transpose costs more than the vectorized rows save (batch-1
 * DDPG acting), so each dot product walks B's row directly.
 */
constexpr size_t kNTTransposeMinRows = 3;

/**
 * C(m,n) += alpha * A(m,k) * B(n,k)^T. Both forms run the same
 * per-element chain as gemmNTRows, so the row count never changes a
 * result bit.
 */
void
gemmNT(float alpha, const Matrix &a, const Matrix &b, Matrix &c)
{
    const size_t m = a.rows(), k = a.cols(), n = b.rows();
    if (m < kNTTransposeMinRows) {
        for (size_t i = 0; i < m; ++i) {
            const float *arow = a.data() + i * k;
            float *crow = c.data() + i * n;
            for (size_t j = 0; j < n; ++j) {
                const float *brow = b.data() + j * k;
                float acc = 0.0f;
                for (size_t p = 0; p < k; ++p)
                    acc += arow[p] * brow[p];
                crow[j] += alpha * acc;
            }
        }
        return;
    }
    AlignedFloatBuffer &bt = packBuffers().b;
    bt.resize(b.size());
    transposeInto(b, bt.data());
    gemmNTRows(alpha, a, bt.data(), b.rows(), c);
}

/** C(m,n) += alpha * A(k,m)^T * B(k,n); rank-1 updates, contiguous rows. */
void
gemmTN(float alpha, const Matrix &a, const Matrix &b, Matrix &c)
{
    const size_t k = a.rows(), m = a.cols(), n = b.cols();
    for (size_t p = 0; p < k; ++p) {
        const float *arow = a.data() + p * m;
        const float *brow = b.data() + p * n;
        for (size_t i = 0; i < m; ++i) {
            const float av = alpha * arow[i];
            float *crow = c.data() + i * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/**
 * C(m,n) += alpha * A(k,m)^T * B(n,k)^T. A's column is packed into a
 * contiguous scratch row first, turning the strided a(p, i) walk of the
 * inner dot product into the same contiguous NT form as the other
 * variants.
 */
void
gemmTT(float alpha, const Matrix &a, const Matrix &b, Matrix &c)
{
    const size_t k = a.rows(), m = a.cols(), n = b.rows();
    AlignedFloatBuffer &apack = packBuffers().a;
    apack.resize(k);
    for (size_t i = 0; i < m; ++i) {
        for (size_t p = 0; p < k; ++p)
            apack[p] = a(p, i);
        float *crow = c.data() + i * n;
        for (size_t j = 0; j < n; ++j) {
            const float *brow = b.data() + j * k;
            float acc = 0.0f;
            for (size_t p = 0; p < k; ++p)
                acc += apack[p] * brow[p];
            crow[j] += alpha * acc;
        }
    }
}

void
dispatchScalar(bool transA, bool transB, float alpha, const Matrix &a,
               const Matrix &b, Matrix &c)
{
    if (!transA && !transB)
        gemmNN(alpha, a, b, c);
    else if (!transA && transB)
        gemmNT(alpha, a, b, c);
    else if (transA && !transB)
        gemmTN(alpha, a, b, c);
    else
        gemmTT(alpha, a, b, c);
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

/**
 * Shape-check op(A) against a kb x n op(B) and apply beta; returns
 * {m, k, n}.
 */
std::array<size_t, 3>
prologue(bool transA, const Matrix &a, size_t kb, size_t n, float beta,
         Matrix &c)
{
    const size_t m = transA ? a.cols() : a.rows();
    const size_t ka = transA ? a.rows() : a.cols();
    MM_ASSERT(ka == kb,
              strCat("gemm inner-dimension mismatch: ", ka, " vs ", kb));
    MM_ASSERT(c.rows() == m && c.cols() == n, "gemm output shape mismatch");

    if (beta == 0.0f)
        c.zero();
    else if (beta != 1.0f)
        scale(beta, c);
    return {m, ka, n};
}

std::array<size_t, 3>
prologue(bool transA, bool transB, const Matrix &a, const Matrix &b,
         float beta, Matrix &c)
{
    return prologue(transA, a, transB ? b.cols() : b.rows(),
                    transB ? b.rows() : b.cols(), beta, c);
}

} // namespace

PackedB::PackedB(const Matrix &b, bool transB_)
    : k(transB_ ? b.cols() : b.rows()), n(transB_ ? b.rows() : b.cols()),
      transB(transB_)
{
    if (!isBlockedShape(k, n)) {
        if (transB) {
            plain = Matrix(k, n);
            transposeInto(b, plain.data());
        } else {
            plain = b;
        }
        return;
    }
    panels.resize(k * padToPanels(n));
    for (size_t jc = 0; jc < n; jc += NC) {
        const size_t nc = std::min(NC, n - jc);
        const size_t nPad = padToPanels(nc);
        for (size_t pc = 0; pc < k; pc += KC)
            packB(b, transB, pc, std::min(KC, k - pc), jc, nc,
                  panels.data() + packedBlockOffset(jc, pc, k, nPad));
    }
}

void
gemm(bool transA, bool transB, float alpha, const Matrix &a, const Matrix &b,
     float beta, Matrix &c, ThreadPool *pool)
{
    auto [m, k, n] = prologue(transA, transB, a, b, beta, c);
    if (m == 0 || n == 0 || k == 0 || alpha == 0.0f)
        return;
    if (!isBlockedShape(k, n)) {
        dispatchScalar(transA, transB, alpha, a, b, c);
        return;
    }
    gemmBlocked(transA, alpha, a, BSource{&b, transB, nullptr}, c, m, k, n,
                pool);
}

void
gemm(float alpha, const Matrix &a, const PackedB &b, float beta, Matrix &c,
     ThreadPool *pool)
{
    auto [m, k, n] = prologue(false, a, b.k, b.n, beta, c);
    if (m == 0 || n == 0 || k == 0 || alpha == 0.0f)
        return;
    if (!isBlockedShape(k, n)) {
        if (b.transB)
            gemmNTRows(alpha, a, b.plain.data(), n, c);
        else
            gemmNN(alpha, a, b.plain, c);
        return;
    }
    gemmBlocked(false, alpha, a, BSource{nullptr, false, b.panels.data()},
                c, m, k, n, pool);
}

void
gemmNaive(bool transA, bool transB, float alpha, const Matrix &a,
          const Matrix &b, float beta, Matrix &c)
{
    auto [m, k, n] = prologue(transA, transB, a, b, beta, c);
    if (m == 0 || n == 0 || k == 0 || alpha == 0.0f)
        return;
    dispatchScalar(transA, transB, alpha, a, b, c);
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
