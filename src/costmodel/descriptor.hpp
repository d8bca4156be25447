/**
 * @file
 * Stage 1 of the batched cost model: mapping -> packed descriptor.
 *
 * Mapping evaluation is split into a *lowering* pass and an *evaluation*
 * kernel (see cost_model.hpp for the pipeline overview):
 *
 *   lowerMapping()    compiles one Mapping of a fixed map space into a
 *                     lane of a DescriptorBlock — a POD,
 *                     structure-of-arrays batch of flattened loop
 *                     descriptors (trip counts, per-loop dimension
 *                     bits, residency-point extents, spatial fan-out),
 *                     validating map-space membership along the way.
 *   evalDescriptor()  runs the analytical model over one lane with
 *                     straight-line, mask-driven arithmetic (relevance
 *                     tests are bitmask AND + select, never a
 *                     data-dependent branch) into a fixed-size RawCost.
 *
 * CostTables caches everything about the map space the two stages need
 * (tensor relevance masks, flattened halo projections, factorization
 * tables, energy/bandwidth constants), so neither stage touches the
 * AlgorithmSpec's pointer-chasing std::vectors on the hot path.
 *
 * The packing follows LoopModels' bit-packed per-loop cost counters:
 * each flattened loop carries a 16-bit dimension bitmask, each tensor a
 * 16-bit relevance mask, and the three residency boundaries of a lane
 * are byte-sized prefix counts (LoopCounts).
 *
 * Bitwise contract: for every valid mapping, evalDescriptor() performs
 * the exact floating-point operations of the historical scalar
 * CostModel::evaluate in the exact order, so results are bitwise
 * identical to the scalar path — and therefore independent of batch
 * size, chunking and lane count. Tests assert this field by field.
 */
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "mapping/map_space.hpp"

namespace mm {

class FactorizationTable;

/**
 * Supported tensor count (paper workloads: <= 4). The rank limit,
 * kMaxCostRank (mapping/mapping.hpp), is enforced by MapSpace.
 */
inline constexpr size_t kMaxCostTensors = 8;
/** Flattened temporal loops per lane: three levels of `rank` loops. */
inline constexpr size_t kMaxCostLoops = 3 * kMaxCostRank;

/** Residency points at which tile extents are materialized. */
enum class ResidencyPoint : int
{
    L1 = 0,      ///< per-PE L1 tile
    Spatial = 1, ///< multicast union across the PE fan-out
    L2 = 2,      ///< staged L2 tile
    Full = 3     ///< full padded bounds
};
inline constexpr size_t kResidencyPoints = 4;

/**
 * Flattened-nest prefix lengths of one lane (outermost-first): loops
 * [0, dram) belong to the DRAM block, [0, l2) to DRAM+L2, [0, total) to
 * the whole temporal nest. Packed so a block of lanes stays cacheable.
 */
struct LoopCounts
{
    uint8_t dram = 0;
    uint8_t l2 = 0;
    uint8_t total = 0;
    uint8_t pad = 0;
};
static_assert(sizeof(LoopCounts) == 4
              && std::is_trivially_copyable_v<LoopCounts>);

/**
 * Per-map-space constants shared by lowering and evaluation: the
 * problem's tensor structure flattened into index-free arrays, the
 * per-dimension factorization tables (resolved once, not per call), and
 * the architecture's energy/bandwidth/capacity scalars.
 */
struct CostTables
{
    const MapSpace *space = nullptr;
    size_t rank = 0;
    size_t tensors = 0;

    /** Bit d set iff the tensor's projection uses loop dimension d. */
    uint16_t relevance[kMaxCostTensors] = {};
    bool isOutput[kMaxCostTensors] = {};

    /**
     * Halo-aware projections, flattened: tensor t's tensor-dimensions
     * are dimTermOffset[dimOffset[t] .. dimOffset[t]+dimCount[t]), and
     * each tensor-dimension's affine terms are
     * (termDim, termCoeff)[dimTermOffset[i] .. +dimTermCount[i]).
     */
    std::vector<uint32_t> dimOffset;     ///< per tensor
    std::vector<uint32_t> dimCount;      ///< per tensor
    std::vector<uint32_t> dimTermOffset; ///< per tensor-dimension
    std::vector<uint32_t> dimTermCount;  ///< per tensor-dimension
    std::vector<uint32_t> termDim;       ///< flattened terms
    std::vector<int64_t> termCoeff;      ///< flattened terms

    /** Per-dimension factorization tables (program-lifetime refs). */
    std::vector<const FactorizationTable *> dimTables;

    // Architecture constants, indexed by MemLevel where per-level.
    int64_t numPes = 0;
    double wordBytes = 0.0;
    int banks[kNumOnChipLevels] = {};
    double capacityBytes[kNumOnChipLevels] = {};
    double energyPerWordPj[kNumMemLevels] = {};
    double bandwidthWordsPerCycle[kNumMemLevels] = {};
    bool perPe[kNumMemLevels] = {};
    double macEnergyPj = 0.0;
    double nocEnergyPerWordPj = 0.0;
    double macsPerPePerCycle = 0.0;
    double peakMacsPerCycle = 0.0;

    // Problem constants.
    double actualMacs = 0.0;
    /** Lower-bound EDP (set by CostModel; used by normalized batches). */
    double boundEdp = 0.0;

    /** Compile the tables for @p mapSpace (called once per CostModel). */
    void build(const MapSpace &mapSpace);

    /** Halo-aware words of tensor @p t for per-dimension @p extents. */
    int64_t footprint(size_t t, const int64_t *extents) const;

    /**
     * Extent of flattened tensor-dimension @p i (an index into
     * dimTermOffset) for per-dimension @p extents; footprint() is the
     * product of a tensor's tensor-dimension extents.
     */
    int64_t
    tensorDimExtent(uint32_t i, const int64_t *extents) const
    {
        int64_t extent = 1;
        const uint32_t kEnd = dimTermOffset[i] + dimTermCount[i];
        for (uint32_t k = dimTermOffset[i]; k < kEnd; ++k)
            extent += termCoeff[k] * (extents[termDim[k]] - 1);
        return extent;
    }
};

/**
 * A structure-of-arrays batch of lowered mappings. All storage is flat
 * and reused across ensure() calls (capacity is kept), so a thread can
 * lower chunk after chunk without touching the allocator.
 */
class DescriptorBlock
{
  public:
    /** Shape the block for @p n lanes of @p tables' map space. */
    void ensure(const CostTables &tables, size_t n);

    size_t count() const { return lanes; }
    size_t loopStride() const { return stride; }

    /** Extents of @p lane at residency point @p p (rank values). */
    int64_t *extentsAt(ResidencyPoint p, size_t lane)
    {
        return extents.data() + (size_t(p) * lanes + lane) * rank;
    }
    const int64_t *extentsAt(ResidencyPoint p, size_t lane) const
    {
        return extents.data() + (size_t(p) * lanes + lane) * rank;
    }

    /**
     * Tile footprints of @p lane, [tensor][residency point], already
     * converted to double. Lowering fills them (it needs the on-chip
     * ones for capacity checks anyway) so the kernel never re-walks the
     * projection terms.
     */
    double *footAt(size_t lane)
    {
        return foot.data() + lane * tensorCount * kResidencyPoints;
    }
    const double *footAt(size_t lane) const
    {
        return foot.data() + lane * tensorCount * kResidencyPoints;
    }

    /** Spatial fan-out (used PEs) per lane. */
    std::vector<double> pes;
    /** Flattened temporal trip counts, trip > 1 only, outermost first. */
    std::vector<double> trips;
    /** 1 << dim of each flattened loop, aligned with trips. */
    std::vector<uint16_t> dimBits;
    /** Prefix lengths of the three temporal blocks, per lane. */
    std::vector<LoopCounts> counts;

  private:
    size_t lanes = 0;
    size_t rank = 0;
    size_t tensorCount = 0;
    size_t stride = 0;
    /** [residency point][lane][dim], see extentsAt(). */
    std::vector<int64_t> extents;
    /** [lane][tensor][residency point], see footAt(). */
    std::vector<double> foot;
};

/**
 * Fixed-size evaluation result of one lane; the POD mirror of
 * CostResult (no heap storage, so kernels and adapters never allocate).
 * Field semantics match CostResult exactly.
 */
struct RawCost
{
    size_t tensors = 0;
    double reads[kMaxCostTensors][kNumMemLevels];
    double writes[kMaxCostTensors][kNumMemLevels];
    double energyPj[kMaxCostTensors][kNumMemLevels];
    double nocWords;
    double paddedMacs;
    double actualMacs;
    double macEnergyPj;
    double nocEnergyPj;
    double totalEnergyPj;
    double computeCycles;
    double bandwidthCycles[kNumMemLevels];
    double cycles;
    double utilization;

    double edp() const { return totalEnergyPj * cycles; }
};
static_assert(std::is_trivially_copyable_v<RawCost>);

/**
 * Lower @p m into lane @p lane of @p block (which must already be
 * ensure()d large enough). Validates membership in the map space with
 * an allocation-free mirror of MapSpace::validityError and panics with
 * the scalar path's diagnostic on an invalid mapping.
 */
void lowerMapping(const CostTables &tables, const Mapping &m,
                  DescriptorBlock &block, size_t lane);

/** Evaluate one lowered lane into @p out (branch-free, allocation-free). */
void evalDescriptor(const CostTables &tables, const DescriptorBlock &block,
                    size_t lane, RawCost &out);

} // namespace mm
