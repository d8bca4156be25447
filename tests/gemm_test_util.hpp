/**
 * @file
 * GEMM fusion probes for the golden-pin tests.
 *
 * Whether a GEMM kernel fuses its multiply-adds depends on the build
 * and the host: the FMA-targeted variants of the blocked kernel
 * contract at -O2 and above, the row kernels below the blocked cutoff
 * contract only where the baseline ISA has FMA, and a -march=native
 * build fuses both. Results that run through a GEMM round differently
 * per class, so a golden pin keys its constants by the class it probes
 * here.
 */
#pragma once

#include <utility>

#include "tensor/gemm.hpp"

namespace mm {

/**
 * True when gemm() fuses the multiply-adds of a k x n op(B): row 0
 * accumulates -(1 + 2^-11) + (1 + 2^-12)^2, which is 2^-24 fused and 0
 * rounded. k * n >= 4096 selects the blocked kernel, less the row
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
 * A build's GEMM fusion class, {blocked tier fuses, row tier fuses}:
 *
 *  - {1, 0}: a default Release build on an FMA host (the blocked
 *    kernel's AVX variants contract, the baseline ISA has no FMA);
 *  - {0, 0}: a Debug or sanitizer build (-O0/-O1), a portable
 *    (MM_GEMM_NO_MULTIVERSION) build, or a host without FMA;
 *  - {1, 1}: a -march=native build on an FMA host.
 */
using GemmFusionClass = std::pair<bool, bool>;

inline GemmFusionClass
gemmFusionClass()
{
    return {gemmFusesAt(64, 64), gemmFusesAt(2, 2)};
}

} // namespace mm
