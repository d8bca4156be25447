/**
 * @file
 * GEMM fusion probes for the golden-pin tests.
 *
 * Whether a GEMM kernel fuses its multiply-adds depends on the build
 * and the host: the FMA-targeted variants of the blocked kernel
 * contract at -O2 and above, the scalar small-shape kernels are
 * compiled for the baseline ISA, and a -march=native build fuses both.
 * Results that run through a GEMM round differently per class, so a
 * golden pin keys its constants by the class it probes here.
 */
#pragma once

#include "tensor/gemm.hpp"

namespace mm {

/**
 * True when gemm() fuses the multiply-adds of a k x n op(B): row 0
 * accumulates -(1 + 2^-11) + (1 + 2^-12)^2, which is 2^-24 fused and 0
 * rounded. k * n >= 4096 selects the blocked kernel, less the scalar
 * kernels.
 */
inline bool
gemmFusesAt(size_t k, size_t n)
{
    Matrix a(4, k), b(k, n), c(4, n);
    const float u = 1.0f + 0x1p-12f;
    a(0, 0) = -(1.0f + 0x1p-11f);
    b(0, 0) = 1.0f;
    a(0, 1) = u;
    b(1, 0) = u;
    gemm(false, false, 1.0f, a, b, 0.0f, c);
    return c(0, 0) != 0.0f;
}

/**
 * True when the blocked GEMM kernel fuses its multiply-adds. Optimized
 * builds contract them in the FMA-targeted kernel variants; -O0/-O1
 * (sanitizer) builds and CPUs without FMA round each product.
 */
inline bool
gemmFusesMultiplyAdd()
{
    return gemmFusesAt(64, 64);
}

/**
 * True when the scalar small-shape kernels fuse their multiply-adds.
 * They are compiled for the baseline ISA, so only a build whose
 * baseline has FMA (-march=native) contracts them.
 */
inline bool
gemmScalarFusesMultiplyAdd()
{
    return gemmFusesAt(2, 2);
}

} // namespace mm
