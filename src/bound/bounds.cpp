#include "bound/bounds.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/factorization.hpp"

namespace mm {

namespace {

/** Tensor-dimensions (projection rows) across all of a problem's
 * tensors that the bounds engine supports (CNN-Layer has 12). */
constexpr size_t kMaxTensorDims = 64;

} // namespace

// ---------------------------------------------------------------------------
// PartialAssignment
// ---------------------------------------------------------------------------

PartialAssignment::PartialAssignment(size_t rank_) : dims(rank_)
{
    MM_ASSERT(rank_ <= kMaxCostRank, "rank exceeds cost-model limit");
    for (auto &f : fac)
        f = {1, 1, 1, 1};
}

size_t
PartialAssignment::fixedSlotCount() const
{
    size_t n = 0;
    for (size_t d = 0; d < dims; ++d)
        n += size_t(__builtin_popcount(slotMask[d]));
    return n;
}

void
PartialAssignment::fix(size_t d, FactorSlot s, int64_t value)
{
    MM_ASSERT(d < dims, "dimension out of range");
    MM_ASSERT(value >= 1, "factors are positive");
    slotMask[d] |= uint8_t(1u << int(s));
    fac[d][size_t(s)] = value;
}

void
PartialAssignment::fixDim(size_t d, const std::array<int64_t, kFactorSlots> &f)
{
    for (int s = 0; s < kFactorSlots; ++s)
        fix(d, FactorSlot(s), f[size_t(s)]);
}

PartialAssignment
PartialAssignment::levelPrefixOf(const Mapping &m, int levels)
{
    MM_ASSERT(levels >= 0 && levels <= kFactorSlots, "bad level count");
    PartialAssignment pa(m.rank());
    // Outermost-first decision order: DRAM, L2, Spatial, L1.
    const FactorSlot order[kFactorSlots] = {FactorSlot::DRAM, FactorSlot::L2,
                                            FactorSlot::Spatial,
                                            FactorSlot::L1};
    for (int l = 0; l < levels; ++l) {
        for (size_t d = 0; d < m.rank(); ++d) {
            switch (order[l]) {
            case FactorSlot::DRAM:
                pa.fix(d, FactorSlot::DRAM,
                       m.tiling[size_t(MemLevel::DRAM)][d]);
                break;
            case FactorSlot::L2:
                pa.fix(d, FactorSlot::L2, m.tiling[size_t(MemLevel::L2)][d]);
                break;
            case FactorSlot::Spatial:
                pa.fix(d, FactorSlot::Spatial, m.spatial[d]);
                break;
            case FactorSlot::L1:
                pa.fix(d, FactorSlot::L1, m.tiling[size_t(MemLevel::L1)][d]);
                break;
            }
        }
    }
    return pa;
}

PartialAssignment
PartialAssignment::dimPrefixOf(const Mapping &m, size_t dimCount)
{
    MM_ASSERT(dimCount <= m.rank(), "prefix longer than rank");
    PartialAssignment pa(m.rank());
    for (size_t d = 0; d < dimCount; ++d)
        pa.fixDim(d, {m.tiling[size_t(MemLevel::L1)][d], m.spatial[d],
                      m.tiling[size_t(MemLevel::L2)][d],
                      m.tiling[size_t(MemLevel::DRAM)][d]});
    return pa;
}

// ---------------------------------------------------------------------------
// BoundTables
// ---------------------------------------------------------------------------

BoundTables::BoundTables(const MapSpace &space_) : mapSpace(&space_)
{
    cost.build(space_);
    MM_ASSERT(cost.dimTermOffset.size() <= kMaxTensorDims,
              "too many tensor dimensions for the bounds engine");
    const AlgorithmSpec &algo = *space_.problem().algo;
    for (size_t t = 0; t < algo.tensorCount(); ++t) {
        // The reuse-limit (telescoping) form needs unit coefficients
        // and each loop dimension in at most one projection term of
        // the tensor; e.g. a halo term 2x + r would break
        // footprint(tile) * outer trips >= footprint(full).
        bool strong = true;
        uint32_t seen = 0;
        for (const TensorDim &dim : algo.tensors[t].dims) {
            for (const ProjTerm &term : dim) {
                if (term.coeff != 1 || (seen & (1u << term.dim)))
                    strong = false;
                seen |= 1u << term.dim;
            }
        }
        strongTensor[t] = strong;
    }
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        const int banks = cost.banks[lvl];
        const double cap = cost.capacityBytes[lvl];
        banksPerByte[lvl] = double(banks) / cap;
        for (int a = 0; a <= banks; ++a)
            bankBytes[size_t(lvl)].push_back(cap * double(a) / double(banks));
    }
}

namespace {

/** Depth-first legal-tuple enumeration, lexicographic in slot order. */
void
enumerateTuples(int64_t bound, int64_t padLimit, int64_t maxFactor, int slot,
                int64_t product, std::array<int64_t, kFactorSlots> &cur,
                std::vector<std::array<int64_t, kFactorSlots>> &out)
{
    if (slot == kFactorSlots - 1) {
        const int64_t lo =
            std::max<int64_t>(1, (bound + product - 1) / product);
        const int64_t hi = std::min(maxFactor, padLimit / product);
        for (int64_t f = lo; f <= hi; ++f) {
            cur[size_t(slot)] = f;
            out.push_back(cur);
        }
        return;
    }
    const int64_t hi = std::min(maxFactor, padLimit / product);
    for (int64_t f = 1; f <= hi; ++f) {
        cur[size_t(slot)] = f;
        enumerateTuples(bound, padLimit, maxFactor, slot + 1, product * f,
                        cur, out);
    }
}

} // namespace

const std::vector<std::array<int64_t, kFactorSlots>> &
BoundTables::tuples(size_t d) const
{
    MM_ASSERT(d < cost.rank, "dimension out of range");
    auto &cache = tupleCache[d];
    if (!cache.empty())
        return cache;
    const FactorizationTable &table = *cost.dimTables[d];
    cache.reserve(size_t(table.count()));
    std::array<int64_t, kFactorSlots> cur{};
    enumerateTuples(table.boundValue(), table.padLimitValue(),
                    table.maxFactorValue(), 0, 1, cur, cache);
    MM_ASSERT(int64_t(cache.size()) == table.count(),
              "tuple enumeration disagrees with the factorization table");
    return cache;
}

int64_t
BoundTables::minBanksFor(int lvl, double tileBytes) const
{
    // Smallest a >= 1 with tileBytes <= bankBytes[a], the exact double
    // arithmetic of MapSpace::allocBytes (monotone in a). The estimate
    // is within a bank of it; the table settles it without a division.
    const std::vector<double> &alloc = bankBytes[size_t(lvl)];
    const int64_t banks = cost.banks[lvl];
    int64_t a = int64_t(std::clamp(tileBytes * banksPerByte[lvl], 1.0,
                                   double(banks + 1)));
    while (a > 1 && alloc[size_t(a - 1)] >= tileBytes)
        --a;
    while (a <= banks && alloc[size_t(a)] < tileBytes)
        ++a;
    return a; // banks + 1 when no allocation fits: infeasible
}

bool
BoundTables::assignMinimalBanks(Mapping &m) const
{
    const std::array<std::vector<int64_t>, kNumOnChipLevels> ext = {
        m.extentsL1(), m.extentsL2()};
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        m.bufferAlloc[size_t(lvl)].assign(cost.tensors, 1);
        int64_t used = 0;
        for (size_t t = 0; t < cost.tensors; ++t) {
            const int64_t a = minBanksFor(
                lvl, double(cost.footprint(t, ext[size_t(lvl)].data()))
                         * cost.wordBytes);
            m.bufferAlloc[size_t(lvl)][t] = int(a);
            used += a;
        }
        if (used > cost.banks[lvl])
            return false;
    }
    return true;
}

namespace {

constexpr size_t kP1 = size_t(ResidencyPoint::L1);
constexpr size_t kPSp = size_t(ResidencyPoint::Spatial);
constexpr size_t kP2 = size_t(ResidencyPoint::L2);
constexpr size_t kPFull = size_t(ResidencyPoint::Full);

/** Residency points whose footprints a tensor's bound reads: the
 * on-chip tiles (bank demand, L1 deliveries), plus the full footprint
 * (reuse-limit form) or the spatial one (monotonicity-only form). */
constexpr std::array<size_t, 3> kStrongPoints = {kP1, kP2, kPFull};
constexpr std::array<size_t, 3> kWeakPoints = {kP1, kP2, kPSp};

/** acc times v[d] for every set bit d of @p dims, ascending. */
double
foldProduct(double acc, const double *v, uint32_t dims)
{
    for (; dims != 0; dims &= dims - 1)
        acc *= v[__builtin_ctz(dims)];
    return acc;
}

} // namespace

/** Extent floors of one dimension at the four residency points, and
 * its factor in the guaranteed and reachable spatial products. */
struct BoundTables::DimFloor
{
    int64_t ext[kResidencyPoints];
    bool spatialFixed;
    /** The fixed spatial factor, or the reachable cap of a free one. */
    double pes;
};

/**
 * A bound with one dimension (the split) left open: every other
 * dimension's floors, and every product and footprint part they
 * determine. Double products over dimensions are left folds in
 * ascending dimension order: the *Head values fold the dimensions below
 * the split, finish() multiplies in the split's value and folds the
 * dimensions above it.
 */
struct BoundTables::Split
{
    size_t dim;
    /** Per dimension: the full-extent floor and the spatial factor
     * (fixed, or the reachable cap of a free slot). */
    double full[kMaxCostRank];
    double pes[kMaxCostRank];
    /** Dimensions above the split; those with a fixed spatial slot. */
    uint32_t above, pesFixedAbove;
    double pesFixedHead, pesCapHead, macsHead;
    /** L1 refills: tensors that skip the split fold all their
     * dimensions here; the others those below it, with the ones above
     * it in refillsAbove. */
    double refillsHead[kMaxCostTensors];
    uint32_t refillsAbove[kMaxCostTensors];
    /** Product of the extents of tensor t's tensor-dimensions that do
     * not involve the split. Those that do are touch[touchEnd[t-1] ..
     * touchEnd[t]): extent rest[p] + coeff * (split extent - 1) at
     * residency point p. Exact int64 regrouping of footprint(). */
    int64_t footHead[kMaxCostTensors][kResidencyPoints];
    struct Touch
    {
        int64_t rest[kResidencyPoints];
        int64_t coeff;
    };
    Touch touch[kMaxTensorDims];
    uint32_t touchEnd[kMaxCostTensors];
    /** Minimal banks of the tensors that skip the split, per level. */
    int64_t banksUsed[kNumOnChipLevels];
};

bool
BoundTables::dimFloor(size_t d, uint8_t mask,
                      const std::array<int64_t, kFactorSlots> &fac,
                      DimFloor &out) const
{
    const FactorizationTable &table = *cost.dimTables[d];
    const int64_t boundVal = table.boundValue();
    const int64_t padLimit = table.padLimitValue();
    const int64_t maxFactor = table.maxFactorValue();

    int64_t prodFixed = 1;
    for (int s = 0; s < kFactorSlots; ++s) {
        if (!(mask >> s & 1))
            continue;
        // v * prodFixed > padLimit, without the division or overflow.
        const int64_t v = fac[size_t(s)];
        if (v > maxFactor || __builtin_mul_overflow(prodFixed, v, &prodFixed)
            || prodFixed > padLimit)
            return false;
    }
    // The free slots can reach any single multiplier in
    // [ceil(bound/prodFixed), floor(padLimit/prodFixed)]; an empty
    // range (or an all-fixed product below bound) has no legal
    // completion.
    if (mask == 0xF) {
        if (prodFixed < boundVal)
            return false;
        out.ext[kPFull] = prodFixed;
    } else {
        const int64_t mLo = std::max<int64_t>(
            1, (boundVal + prodFixed - 1) / prodFixed);
        if (mLo > padLimit / prodFixed)
            return false;
        out.ext[kPFull] = prodFixed * mLo;
    }

    const auto part = [&](uint8_t slots) {
        int64_t p = 1;
        for (int s = 0; s < kFactorSlots; ++s)
            if (slots >> s & mask >> s & 1)
                p *= fac[size_t(s)];
        return p;
    };
    constexpr uint8_t kL1 = 1u << int(FactorSlot::L1);
    constexpr uint8_t kSp = 1u << int(FactorSlot::Spatial);
    constexpr uint8_t kL2 = 1u << int(FactorSlot::L2);
    out.ext[kP1] = part(kL1);
    out.ext[kPSp] = part(kL1 | kSp);
    out.ext[kP2] = part(kL1 | kSp | kL2);

    out.spatialFixed = mask & kSp;
    out.pes = out.spatialFixed
                  ? double(fac[size_t(FactorSlot::Spatial)])
                  : double(std::max<int64_t>(
                        1, padLimit / part(uint8_t(0xF & ~kSp))));
    return true;
}

bool
BoundTables::split(const PartialAssignment &pa, size_t d, Split &s) const
{
    // Floors by residency point; the split's column stays 1, so the
    // split's projection terms add nothing to tensorDimExtent().
    int64_t ext[kResidencyPoints][kMaxCostRank] = {};
    uint32_t pesFixedDims = 0;
    s.dim = d;
    for (size_t i = 0; i < cost.rank; ++i) {
        DimFloor fl = {{1, 1, 1, 1}, false, 1.0};
        if (i != d && !dimFloor(i, pa.fixedSlots(i), pa.factors(i), fl))
            return false;
        if (fl.spatialFixed)
            pesFixedDims |= uint32_t(1) << i;
        for (size_t p = 0; p < kResidencyPoints; ++p)
            ext[p][i] = fl.ext[p];
        s.full[i] = double(fl.ext[kPFull]);
        s.pes[i] = fl.pes;
    }
    const uint32_t below = (uint32_t(1) << d) - 1;
    s.above = ((uint32_t(1) << cost.rank) - 1) & ~below & ~(uint32_t(1) << d);
    s.pesFixedAbove = pesFixedDims & s.above;
    s.pesFixedHead = foldProduct(1.0, s.pes, pesFixedDims & below);
    s.pesCapHead = foldProduct(1.0, s.pes, below);
    s.macsHead = foldProduct(1.0, s.full, below);

    s.banksUsed[0] = s.banksUsed[1] = 0;
    uint32_t touches = 0;
    for (size_t t = 0; t < cost.tensors; ++t) {
        const uint32_t relevant = cost.relevance[t];
        const bool uses = relevant >> d & 1;
        s.refillsAbove[t] = uses ? relevant & s.above : 0;
        s.refillsHead[t] =
            foldProduct(1.0, s.full, uses ? relevant & below : relevant);

        for (int64_t &f : s.footHead[t])
            f = 1;
        for (uint32_t k = 0; k < cost.dimCount[t]; ++k) {
            const uint32_t i = cost.dimOffset[t] + k;
            bool involves = false;
            int64_t coeff = 0;
            for (uint32_t j = cost.dimTermOffset[i];
                 j < cost.dimTermOffset[i] + cost.dimTermCount[i]; ++j) {
                if (cost.termDim[j] == d) {
                    involves = true;
                    coeff += cost.termCoeff[j];
                }
            }
            if (!involves) {
                for (size_t p = 0; p < kResidencyPoints; ++p)
                    s.footHead[t][p] *= cost.tensorDimExtent(i, ext[p]);
                continue;
            }
            Split::Touch &tc = s.touch[touches++];
            tc.coeff = coeff;
            for (size_t p = 0; p < kResidencyPoints; ++p)
                tc.rest[p] = cost.tensorDimExtent(i, ext[p]);
        }
        s.touchEnd[t] = touches;
        if (uses)
            continue;
        for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
            s.banksUsed[lvl] += minBanksFor(
                lvl, double(s.footHead[t][lvl == 0 ? kP1 : kP2])
                         * cost.wordBytes);
            if (s.banksUsed[lvl] > cost.banks[lvl])
                return false; // every tensor needs at least one more bank
        }
    }
    return true;
}

PartialBound
BoundTables::finish(const Split &s, const DimFloor &fd) const
{
    PartialBound out;
    const size_t d = s.dim;
    const double fullD = double(fd.ext[kPFull]);

    // The guaranteed spatial product and its reachable ceiling.
    const double pesFixed = foldProduct(
        fd.spatialFixed ? s.pesFixedHead * fd.pes : s.pesFixedHead, s.pes,
        s.pesFixedAbove);
    if (pesFixed > double(cost.numPes)) {
        out.feasible = false;
        return out;
    }
    const double pesUb =
        std::min(double(cost.numPes),
                 foldProduct(s.pesCapHead * fd.pes, s.pes, s.above));

    // Footprints at the extent floors, and the minimal bank demand they
    // imply: each tensor needs at least ceil-to-bank of its floor tile
    // at both on-chip levels, and any completion only grows the tiles.
    int64_t foot[kMaxCostTensors][kResidencyPoints];
    int64_t banksUsed[kNumOnChipLevels] = {s.banksUsed[0], s.banksUsed[1]};
    for (size_t t = 0; t < cost.tensors; ++t) {
        const uint32_t first = t == 0 ? 0 : s.touchEnd[t - 1];
        for (size_t p : strongTensor[t] ? kStrongPoints : kWeakPoints) {
            int64_t f = s.footHead[t][p];
            for (uint32_t k = first; k < s.touchEnd[t]; ++k)
                f *= s.touch[k].rest[p] + s.touch[k].coeff * (fd.ext[p] - 1);
            foot[t][p] = f;
        }
        if (!(cost.relevance[t] >> d & 1))
            continue; // counted in s.banksUsed
        for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl)
            banksUsed[lvl] += minBanksFor(
                lvl, double(foot[t][lvl == 0 ? kP1 : kP2]) * cost.wordBytes);
    }
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        if (banksUsed[lvl] > cost.banks[lvl]) {
            out.feasible = false;
            return out;
        }
    }

    const double macsLb = foldProduct(s.macsHead * fullD, s.full, s.above);

    constexpr size_t iL1 = size_t(MemLevel::L1);
    constexpr size_t iL2 = size_t(MemLevel::L2);
    constexpr size_t iDram = size_t(MemLevel::DRAM);
    double words[kNumMemLevels] = {0.0, 0.0, 0.0};
    double noc = 0.0;
    for (size_t t = 0; t < cost.tensors; ++t) {
        // L1 refills of the form pes * rf_L1 cover every relevant
        // padded bound at least once — relevance-only, any projection.
        const double refills =
            cost.relevance[t] >> d & 1
                ? foldProduct(s.refillsHead[t] * fullD, s.full,
                              s.refillsAbove[t])
                : s.refillsHead[t];

        const double f1 = double(foot[t][kP1]);
        const double deliveriesWeak = pesFixed * f1;
        if (strongTensor[t]) {
            // Reuse limit: every f_P * rf_P transfer moves at least the
            // full footprint at the extent floor.
            const double F = double(foot[t][kPFull]);
            const double deliveries = std::max(F, deliveriesWeak);
            words[iDram] += F;
            words[iL2] += cost.isOutput[t] ? F : 2.0 * F;
            words[iL1] += cost.isOutput[t] ? refills : deliveries + refills;
            noc += deliveries;
        } else {
            // Monotonicity only: footprints at the per-slot floors.
            const double f2 = double(foot[t][kP2]);
            const double fsp = double(foot[t][kPSp]);
            words[iDram] += f2;
            words[iL2] += cost.isOutput[t] ? fsp : f2 + fsp;
            words[iL1] += cost.isOutput[t] ? refills
                                           : deliveriesWeak + refills;
            noc += deliveriesWeak;
        }
    }

    double energy = macsLb * cost.macEnergyPj + noc * cost.nocEnergyPerWordPj;
    for (size_t lvl = 0; lvl < kNumMemLevels; ++lvl)
        energy += words[lvl] * cost.energyPerWordPj[lvl];

    double cycles = macsLb / (pesUb * cost.macsPerPePerCycle);
    for (size_t lvl = 0; lvl < kNumMemLevels; ++lvl) {
        double w = words[lvl];
        if (cost.perPe[lvl])
            w /= pesUb;
        cycles = std::max(cycles, w / cost.bandwidthWordsPerCycle[lvl]);
    }

    out.energyPj = energy;
    out.cycles = cycles;
    out.words = {words[0], words[1], words[2]};
    return out;
}

PartialBound
BoundTables::bound(const PartialAssignment &pa) const
{
    MM_ASSERT(pa.rank() == cost.rank, "assignment rank mismatch");
    const size_t d = cost.rank - 1;
    Split s{};
    DimFloor fd{};
    if (!split(pa, d, s) || !dimFloor(d, pa.fixedSlots(d), pa.factors(d), fd))
        return PartialBound{.feasible = false};
    return finish(s, fd);
}

void
BoundTables::childBounds(
    const PartialAssignment &base, size_t d,
    std::span<const std::array<int64_t, kFactorSlots>> tuples,
    std::span<double> out) const
{
    MM_ASSERT(base.rank() == cost.rank, "assignment rank mismatch");
    MM_ASSERT(d < cost.rank, "dimension out of range");
    MM_ASSERT(out.size() == tuples.size(), "one output per tuple");
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Split s{};
    if (!split(base, d, s)) {
        std::fill(out.begin(), out.end(), kInf);
        return;
    }
    DimFloor fd{};
    for (size_t i = 0; i < tuples.size(); ++i)
        out[i] = dimFloor(d, 0xF, tuples[i], fd) ? finish(s, fd).edp() : kInf;
}

PartialBound
BoundTables::wholeProblem() const
{
    return bound(PartialAssignment(cost.rank));
}

} // namespace mm
