/**
 * @file
 * The mapping representation (Definition 2.1, instantiated per
 * Section 5.1.3).
 *
 * A mapping fixes, for every loop dimension of the problem:
 *   - temporal tile factors at L1, L2 and DRAM,
 *   - a spatial (cross-PE) factor,
 * plus a loop order per temporal level and a bank allocation per tensor
 * at each on-chip level. The four per-dimension factors multiply to the
 * padded dimension bound (within the [bound, 2*bound] padding window; see
 * common/factorization.hpp).
 *
 * Loop-nest structure implied by a mapping, outermost to innermost:
 *
 *   DRAM temporal block -> L2 temporal block -> spatial fan-out
 *     -> L1 temporal block -> MAC
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "arch/accelerator.hpp"

namespace mm {

/** Per-dimension factor-slot indices, innermost first. */
enum class FactorSlot : int { L1 = 0, Spatial = 1, L2 = 2, DRAM = 3 };

/** Factor slots per dimension (L1, spatial, L2, DRAM). */
inline constexpr int kFactorSlots = 4;

/**
 * Most loop dimensions a map space supports (paper workloads: rank <=
 * 7). The map space, cost model and bounds keep per-dimension scratch in
 * fixed arrays of this size and dimension sets in uint16 masks.
 */
inline constexpr size_t kMaxCostRank = 16;

/** A point in the map space. */
struct Mapping
{
    /** tiling[lvl][d]: temporal trip count, lvl indexed by MemLevel. */
    std::array<std::vector<int64_t>, kNumMemLevels> tiling;

    /** spatial[d]: cross-PE parallelism factor. */
    std::vector<int64_t> spatial;

    /** loopOrder[lvl][i]: dimension at nest position i (0 = outermost). */
    std::array<std::vector<int>, kNumMemLevels> loopOrder;

    /** bufferAlloc[lvl][t]: banks for tensor t, lvl in {L1, L2}. */
    std::array<std::vector<int>, kNumOnChipLevels> bufferAlloc;

    /** Number of loop dimensions. */
    size_t rank() const { return spatial.size(); }

    /** Dimension @p d's four factors, in FactorSlot order. */
    std::array<int64_t, kFactorSlots>
    factorsOf(size_t d) const
    {
        return {tiling[size_t(MemLevel::L1)][d], spatial[d],
                tiling[size_t(MemLevel::L2)][d],
                tiling[size_t(MemLevel::DRAM)][d]};
    }

    /** Set dimension @p d's four factors from FactorSlot order. */
    void
    setFactors(size_t d, const std::array<int64_t, kFactorSlots> &f)
    {
        tiling[size_t(MemLevel::L1)][d] = f[size_t(FactorSlot::L1)];
        spatial[d] = f[size_t(FactorSlot::Spatial)];
        tiling[size_t(MemLevel::L2)][d] = f[size_t(FactorSlot::L2)];
        tiling[size_t(MemLevel::DRAM)][d] = f[size_t(FactorSlot::DRAM)];
    }

    /** Padded bound of dimension @p d: product of all four factors. */
    int64_t dimProduct(size_t d) const;

    /** Per-PE L1 tile trip counts (== tiling[L1]). */
    std::vector<int64_t> extentsL1() const;

    /** Trip counts through the spatial fan-out (L1 * spatial). */
    std::vector<int64_t> extentsSpatial() const;

    /** Trip counts through L2 (L1 * spatial * L2). */
    std::vector<int64_t> extentsL2() const;

    /** Full padded bounds (through DRAM). */
    std::vector<int64_t> extentsFull() const;

    /** Total spatial fan-out (number of PEs used). */
    int64_t usedPes() const;

    /** Structural equality. */
    bool operator==(const Mapping &other) const = default;
};

} // namespace mm
