#include "costmodel/descriptor.hpp"

#include <algorithm>

#include "common/factorization.hpp"
#include "common/permutation.hpp"

namespace mm {

namespace {

/**
 * Cold path of lowering: the mapping failed the inline membership
 * mirror. Re-derive the scalar path's exact diagnostic (string building
 * and the full validity walk are fine here; this never runs for valid
 * mappings).
 */
[[noreturn]] void
panicInvalid(const CostTables &tables, const Mapping &m)
{
    MM_ASSERT(tables.space->isMember(m),
              "cost model requires a valid mapping: "
                  + tables.space->validityError(m));
    MM_ASSERT(false, "mapping failed descriptor lowering but passes "
                     "MapSpace::validityError; lowering mirror is stale");
    std::abort(); // unreachable: both asserts above throw
}

} // namespace

void
CostTables::build(const MapSpace &mapSpace)
{
    space = &mapSpace;
    const AlgorithmSpec &algo = *mapSpace.problem().algo;
    const AcceleratorSpec &arch = mapSpace.arch();
    rank = algo.rank();
    tensors = algo.tensorCount();
    MM_ASSERT(rank >= 1 && rank <= kMaxCostRank,
              "problem rank outside descriptor limits");
    MM_ASSERT(tensors >= 1 && tensors <= kMaxCostTensors,
              "tensor count outside descriptor limits");

    dimOffset.clear();
    dimCount.clear();
    dimTermOffset.clear();
    dimTermCount.clear();
    termDim.clear();
    termCoeff.clear();
    for (size_t t = 0; t < tensors; ++t) {
        const TensorSpec &spec = algo.tensors[t];
        isOutput[t] = spec.isOutput;
        dimOffset.push_back(uint32_t(dimTermOffset.size()));
        dimCount.push_back(uint32_t(spec.dims.size()));
        uint16_t mask = 0;
        for (const TensorDim &tdim : spec.dims) {
            dimTermOffset.push_back(uint32_t(termDim.size()));
            dimTermCount.push_back(uint32_t(tdim.size()));
            for (const ProjTerm &term : tdim) {
                MM_ASSERT(term.dim >= 0 && size_t(term.dim) < rank,
                          "projection term references unknown dimension");
                mask |= uint16_t(uint16_t(1) << term.dim);
                termDim.push_back(uint32_t(term.dim));
                termCoeff.push_back(term.coeff);
            }
        }
        relevance[t] = mask;
    }

    dimTables.clear();
    dimTables.reserve(rank);
    for (size_t i = 0; i < rank; ++i)
        dimTables.push_back(&mapSpace.factorTableOf(i));

    numPes = arch.numPes;
    wordBytes = arch.wordBytes;
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        banks[lvl] = arch.levels[size_t(lvl)].banks;
        capacityBytes[lvl] = arch.levels[size_t(lvl)].capacityBytes;
    }
    for (int lvl = 0; lvl < kNumMemLevels; ++lvl) {
        energyPerWordPj[lvl] = arch.levels[size_t(lvl)].energyPerWordPj;
        bandwidthWordsPerCycle[lvl] =
            arch.levels[size_t(lvl)].bandwidthWordsPerCycle;
        perPe[lvl] = arch.levels[size_t(lvl)].perPe;
    }
    macEnergyPj = arch.macEnergyPj;
    nocEnergyPerWordPj = arch.nocEnergyPerWordPj;
    macsPerPePerCycle = double(arch.macsPerPePerCycle);
    peakMacsPerCycle = arch.peakMacsPerCycle();
    actualMacs = mapSpace.problem().totalMacs();
}

int64_t
CostTables::footprint(size_t t, const int64_t *extents) const
{
    // Mirrors AlgorithmSpec::tileFootprint operation for operation so
    // the products convert to double bitwise identically.
    int64_t words = 1;
    const uint32_t dBegin = dimOffset[t];
    const uint32_t dEnd = dBegin + dimCount[t];
    for (uint32_t d = dBegin; d < dEnd; ++d)
        words *= tensorDimExtent(d, extents);
    return words;
}

void
DescriptorBlock::ensure(const CostTables &tables, size_t n)
{
    lanes = n;
    rank = tables.rank;
    tensorCount = tables.tensors;
    stride = 3 * rank;
    pes.resize(lanes);
    trips.resize(lanes * stride);
    dimBits.resize(lanes * stride);
    counts.resize(lanes);
    extents.resize(kResidencyPoints * lanes * rank);
    foot.resize(lanes * tensorCount * kResidencyPoints);
}

void
lowerMapping(const CostTables &tables, const Mapping &m,
             DescriptorBlock &block, size_t lane)
{
    const size_t rank = tables.rank;

    // Membership mirror of MapSpace::validityError, same predicate
    // order, no allocations; any failure defers to the cold path for
    // the scalar diagnostic.
    for (const auto &t : m.tiling)
        if (t.size() != rank)
            panicInvalid(tables, m);
    if (m.spatial.size() != rank)
        panicInvalid(tables, m);

    const int64_t *t1 = m.tiling[size_t(MemLevel::L1)].data();
    const int64_t *t2 = m.tiling[size_t(MemLevel::L2)].data();
    const int64_t *td = m.tiling[size_t(MemLevel::DRAM)].data();
    const int64_t *sp = m.spatial.data();

    for (size_t i = 0; i < rank; ++i) {
        const std::array<int64_t, kFactorSlots> f = {t1[i], sp[i], t2[i],
                                                     td[i]};
        if (!tables.dimTables[i]->contains(f))
            panicInvalid(tables, m);
    }

    int64_t usedPes = 1;
    for (size_t i = 0; i < rank; ++i)
        usedPes *= sp[i];
    if (usedPes > tables.numPes)
        panicInvalid(tables, m);

    for (const auto &order : m.loopOrder)
        if (order.size() != rank || !isPermutation(order))
            panicInvalid(tables, m);

    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        const auto &alloc = m.bufferAlloc[size_t(lvl)];
        if (alloc.size() != tables.tensors)
            panicInvalid(tables, m);
        int sum = 0;
        for (int bankCount : alloc) {
            if (bankCount < 1)
                panicInvalid(tables, m);
            sum += bankCount;
        }
        if (sum > tables.banks[lvl])
            panicInvalid(tables, m);
    }

    // Residency-point extents, multiplied in the scalar path's chain
    // order (L1, then *spatial, then *L2, then *DRAM).
    int64_t *e1 = block.extentsAt(ResidencyPoint::L1, lane);
    int64_t *esp = block.extentsAt(ResidencyPoint::Spatial, lane);
    int64_t *e2 = block.extentsAt(ResidencyPoint::L2, lane);
    int64_t *full = block.extentsAt(ResidencyPoint::Full, lane);
    for (size_t i = 0; i < rank; ++i) {
        e1[i] = t1[i];
        esp[i] = e1[i] * sp[i];
        e2[i] = esp[i] * t2[i];
        full[i] = e2[i] * td[i];
    }

    // Footprints at every residency point, stored for the kernel; the
    // capacity checks need the two on-chip ones anyway.
    double *foot = block.footAt(lane);
    for (size_t t = 0; t < tables.tensors; ++t) {
        double *f = foot + t * kResidencyPoints;
        f[size_t(ResidencyPoint::L1)] = double(tables.footprint(t, e1));
        f[size_t(ResidencyPoint::Spatial)] =
            double(tables.footprint(t, esp));
        f[size_t(ResidencyPoint::L2)] = double(tables.footprint(t, e2));
        f[size_t(ResidencyPoint::Full)] =
            double(tables.footprint(t, full));
        for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
            const double tileBytes = f[lvl == 0
                                           ? size_t(ResidencyPoint::L1)
                                           : size_t(ResidencyPoint::L2)]
                                     * tables.wordBytes;
            const double allocBytes =
                tables.capacityBytes[lvl]
                * double(m.bufferAlloc[size_t(lvl)][t])
                / double(tables.banks[lvl]);
            if (tileBytes > allocBytes)
                panicInvalid(tables, m);
        }
    }

    block.pes[lane] = double(usedPes);

    // Flatten the temporal nest exactly as the scalar path appends its
    // blocks: DRAM loops, then L2, then L1, keeping only trips > 1.
    double *trips = block.trips.data() + lane * block.loopStride();
    uint16_t *bits = block.dimBits.data() + lane * block.loopStride();
    size_t n = 0;
    auto appendBlock = [&](MemLevel lvl) {
        const auto &order = m.loopOrder[size_t(lvl)];
        const int64_t *tiling = m.tiling[size_t(lvl)].data();
        for (size_t i = 0; i < rank; ++i) {
            const int dim = order[i];
            const int64_t trip = tiling[size_t(dim)];
            if (trip > 1) {
                trips[n] = double(trip);
                bits[n] = uint16_t(uint16_t(1) << dim);
                ++n;
            }
        }
    };
    LoopCounts &counts = block.counts[lane];
    appendBlock(MemLevel::DRAM);
    counts.dram = uint8_t(n);
    appendBlock(MemLevel::L2);
    counts.l2 = uint8_t(n);
    appendBlock(MemLevel::L1);
    counts.total = uint8_t(n);
}

void
evalDescriptor(const CostTables &tables, const DescriptorBlock &block,
               size_t lane, RawCost &out)
{
    const size_t tensors = tables.tensors;
    const double pes = block.pes[lane];
    const LoopCounts counts = block.counts[lane];
    const double *trips = block.trips.data() + lane * block.loopStride();
    const uint16_t *bits = block.dimBits.data() + lane * block.loopStride();

    // Prefix products of the flattened nest: prefix[i] is the product
    // of trips[0..i), accumulated left to right exactly like the scalar
    // reloadFactor loop, so selecting prefix[last] reproduces its
    // result bitwise.
    double prefix[kMaxCostLoops + 1];
    prefix[0] = 1.0;
    for (size_t i = 0; i < counts.total; ++i)
        prefix[i + 1] = prefix[i] * trips[i];

    const int64_t *full = block.extentsAt(ResidencyPoint::Full, lane);
    const double *foot = block.footAt(lane);

    out.tensors = tensors;

    out.paddedMacs = 1.0;
    for (size_t i = 0; i < tables.rank; ++i)
        out.paddedMacs *= double(full[i]);
    out.actualMacs = tables.actualMacs;
    out.nocWords = 0.0;

    for (size_t t = 0; t < tensors; ++t) {
        const uint16_t mask = tables.relevance[t];
        const double *f = foot + t * kResidencyPoints;
        const double f1 = f[size_t(ResidencyPoint::L1)];
        const double fsp = f[size_t(ResidencyPoint::Spatial)];
        const double f2 = f[size_t(ResidencyPoint::L2)];
        const double ffull = f[size_t(ResidencyPoint::Full)];

        // Reload factors as masked selects over the prefix products:
        // a relevant loop at position i advances the factor to
        // prefix[i + 1]; trailing irrelevant loops leave it unchanged
        // (stationarity). Incremental over the three block boundaries.
        double rfDram = 1.0;
        size_t i = 0;
        for (; i < counts.dram; ++i)
            rfDram = (bits[i] & mask) ? prefix[i + 1] : rfDram;
        double rfL2 = rfDram;
        for (; i < counts.l2; ++i)
            rfL2 = (bits[i] & mask) ? prefix[i + 1] : rfL2;
        double rfL1 = rfL2;
        for (; i < counts.total; ++i)
            rfL1 = (bits[i] & mask) ? prefix[i + 1] : rfL1;

        double *reads = out.reads[t];
        double *writes = out.writes[t];
        for (int lvl = 0; lvl < kNumMemLevels; ++lvl) {
            reads[lvl] = 0.0;
            writes[lvl] = 0.0;
        }
        if (!tables.isOutput[t]) {
            reads[size_t(MemLevel::DRAM)] = f2 * rfDram;
            writes[size_t(MemLevel::L2)] = f2 * rfDram;
            reads[size_t(MemLevel::L2)] = fsp * rfL2;
            writes[size_t(MemLevel::L1)] = pes * f1 * rfL2;
            reads[size_t(MemLevel::L1)] = pes * rfL1;
            out.nocWords += pes * f1 * rfL2;
        } else {
            const double updL1 = pes * rfL1;
            const double firstL1 = pes * f1 * rfL2;
            writes[size_t(MemLevel::L1)] = updL1;
            reads[size_t(MemLevel::L1)] = std::max(0.0, updL1 - firstL1);

            const double updL2 = fsp * rfL2;
            const double firstL2 = f2 * rfDram;
            writes[size_t(MemLevel::L2)] = updL2;
            reads[size_t(MemLevel::L2)] = std::max(0.0, updL2 - firstL2);

            const double updDram = f2 * rfDram;
            writes[size_t(MemLevel::DRAM)] = updDram;
            reads[size_t(MemLevel::DRAM)] =
                std::max(0.0, updDram - ffull);

            out.nocWords += pes * f1 * rfL2;
        }

        for (int lvl = 0; lvl < kNumMemLevels; ++lvl)
            out.energyPj[t][size_t(lvl)] = (reads[lvl] + writes[lvl])
                                           * tables.energyPerWordPj[lvl];
    }

    out.macEnergyPj = out.paddedMacs * tables.macEnergyPj;
    out.nocEnergyPj = out.nocWords * tables.nocEnergyPerWordPj;
    out.totalEnergyPj = out.macEnergyPj + out.nocEnergyPj;
    for (size_t t = 0; t < tensors; ++t)
        for (int lvl = 0; lvl < kNumMemLevels; ++lvl)
            out.totalEnergyPj += out.energyPj[t][size_t(lvl)];

    out.computeCycles = out.paddedMacs / (pes * tables.macsPerPePerCycle);
    for (int lvl = 0; lvl < kNumMemLevels; ++lvl) {
        double words = 0.0;
        for (size_t t = 0; t < tensors; ++t)
            words += out.reads[t][size_t(lvl)] + out.writes[t][size_t(lvl)];
        const double bw = tables.bandwidthWordsPerCycle[lvl];
        if (tables.perPe[lvl])
            words /= std::max(pes, 1.0);
        out.bandwidthCycles[size_t(lvl)] = words / bw;
    }
    out.cycles = std::max({out.computeCycles, out.bandwidthCycles[0],
                           out.bandwidthCycles[1], out.bandwidthCycles[2]});
    out.utilization =
        out.actualMacs / (out.cycles * tables.peakMacsPerCycle);
}

} // namespace mm
