/**
 * @file
 * General matrix multiply with optional operand transposes.
 *
 * Two tiers share one entry point, chosen by (k, n) alone. Both run
 * one family of register-tile kernels at the widest vector the host
 * has, read A's rows in place and work at any row count, one MR-row
 * group at a time. op(A) is written out first only when A is
 * transposed, or, in the blocked tier, as alpha * op(A) when alpha is
 * not 1:
 *
 *  - A blocked tier (KC x NC tiling) that reads op(B) one block at a
 *    time in aligned NR-column micro-panels; large shapes optionally
 *    fan row ranges out over a ThreadPool. This is the compute backbone
 *    of surrogate training, the batched Phase-2 driver and the
 *    frozen surrogate's one- to four-row queries: one kernel serves
 *    them all.
 *  - A row tier for shapes below the blocked cutoff, where panel
 *    packing would dominate: op(B) as k zero-padded rows, packed once
 *    (PackedB) or per call.
 *
 * Prepacked B: the blocked kernel reads op(B) one (jc, pc) block at a
 * time in NR-column micro-panels. gemm() with a plain Matrix packs each
 * block into per-thread scratch just before using it; gemm() with a
 * PackedB reads the blocks packed once up front. That is the frozen
 * surrogate's case: its weights multiply every Phase-2 query unchanged,
 * so packing them per call was pure overhead. Both forms give
 * bitwise-identical products.
 *
 * Per-element arithmetic depends only on (k, n) and transB — never on
 * the row count, transA, whether op(B) was prepacked, or the thread
 * count. Within a tier every element of C starts its sum from zero (the
 * blocked tier, once per KC block; the row tier with transB) or from C
 * itself (the row tier without transB), adds its products in p order
 * and rounds them exactly as the tier's chain does. So every row of a
 * batched call goes through bitwise-identical arithmetic to the same
 * row evaluated alone (the batched-vs-per-sample surrogate equivalence
 * the Phase-2 driver relies on).
 *
 * Row ranges and threading: gemmRows() computes rows [r0, r1) of C and
 * touches no other row, so any partition of C's rows, computed range by
 * range on any threads, is bitwise gemm(); gemm() is its [0, m) case.
 * A caller that already runs on lanes (the surrogate trainer's
 * row-split step) calls gemmRows() from each lane. gemm() itself fans
 * a blocked product out over a ThreadPool only from 2^23 flops, in
 * MC-aligned row ranges, which no Fast-net training GEMM reaches.
 * Packing scratch is per thread, so concurrent calls share nothing but
 * their read-only operands.
 */
#pragma once

#include "tensor/matrix.hpp"

namespace mm {

class ThreadPool;

/**
 * C = alpha * op(A) * op(B) + beta * C.
 *
 * op(X) is X or X^T according to the transpose flags. C must already
 * have the result shape; shapes are checked. When @p pool is non-null,
 * large shapes are parallelized over disjoint row ranges of C (bitwise
 * deterministic at any lane count).
 */
void gemm(bool transA, bool transB, float alpha, const Matrix &a,
          const Matrix &b, float beta, Matrix &c,
          ThreadPool *pool = nullptr);

/**
 * Rows [r0, r1) of gemm(transA, transB, alpha, A, B, beta, C): beta is
 * applied to those rows only, and no other row of C is read or
 * written. Bitwise equal to the same rows of gemm(), so disjoint
 * ranges may run concurrently on one C.
 */
void gemmRows(bool transA, bool transB, float alpha, const Matrix &a,
              const Matrix &b, float beta, Matrix &c, size_t r0,
              size_t r1);

/**
 * op(B) packed once for reuse across many gemm() calls. Above the
 * blocked cutoff it holds every (jc, pc) block of op(B) in the blocked
 * kernel's micro-panel layout; below it, op(B) as k rows zero-padded
 * to whole NR-column panels. Either way gemm() with it is bitwise
 * identical to gemm() with the source matrix and the same transB.
 * Immutable once built, so one instance may be shared by concurrent
 * callers.
 */
class PackedB
{
  public:
    PackedB(const Matrix &b, bool transB);

  private:
    friend void gemm(float alpha, const Matrix &a, const PackedB &b,
                     float beta, Matrix &c, ThreadPool *pool);
    friend void gemmRows(float alpha, const Matrix &a, const PackedB &b,
                         float beta, Matrix &c, size_t r0, size_t r1);

    /** C rows [r0, r1) = alpha * A * op(B) + beta * C. */
    void multiply(float alpha, const Matrix &a, float beta, Matrix &c,
                  size_t r0, size_t r1, ThreadPool *pool) const;

    size_t k; ///< rows of op(B)
    size_t n; ///< columns of op(B)
    bool transB;
    AlignedFloatBuffer panels; ///< packed blocks, or padded plain rows
};

/**
 * C = alpha * A * op(B) + beta * C with op(B) prepacked; bitwise equal
 * to gemm(false, transB, alpha, A, B, beta, C, pool).
 */
void gemm(float alpha, const Matrix &a, const PackedB &b, float beta,
          Matrix &c, ThreadPool *pool = nullptr);

/**
 * Rows [r0, r1) of gemm(alpha, A, B, beta, C), with gemmRows()'s
 * guarantees.
 */
void gemmRows(float alpha, const Matrix &a, const PackedB &b, float beta,
              Matrix &c, size_t r0, size_t r1);

/**
 * The kernel set gemm() dispatches to on this host: "avx512" or "avx2"
 * (a multiversioned build on a CPU with that ISA), "portable" (the
 * baseline-ISA kernels: MM_GEMM_NO_MULTIVERSION, a CPU without AVX2,
 * or a non-x86 build) or "native" (one set compiled for the build's
 * -march with AVX-512).
 */
const char *gemmIsaPath();

/**
 * Unblocked baseline: one ikj loop over op(A) and op(B), no packing,
 * vectors or threads. Timed against gemm() by the benches.
 */
void gemmNaive(bool transA, bool transB, float alpha, const Matrix &a,
               const Matrix &b, float beta, Matrix &c);

/** Reference triple-loop implementation used for testing (fp64 acc). */
void gemmReference(bool transA, bool transB, float alpha, const Matrix &a,
                   const Matrix &b, float beta, Matrix &c);

} // namespace mm
