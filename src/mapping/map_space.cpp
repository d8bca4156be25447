#include "mapping/map_space.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/factorization.hpp"
#include "common/permutation.hpp"
#include "common/string_util.hpp"

namespace mm {

namespace {

using Factors = std::array<int64_t, kFactorSlots>;
using Extents = std::array<int64_t, kMaxCostRank>;

/** log10 of C(n, k). */
double
log10Choose(int64_t n, int64_t k)
{
    if (k < 0 || k > n)
        return -std::numeric_limits<double>::infinity();
    return (std::lgamma(double(n) + 1.0) - std::lgamma(double(k) + 1.0)
            - std::lgamma(double(n - k) + 1.0))
           / std::log(10.0);
}

/** Mapping::extentsL2 into @p buf, multiplied in the same order. */
std::span<const int64_t>
extentsL2Of(const Mapping &m, Extents &buf)
{
    const size_t d = m.rank();
    for (size_t i = 0; i < d; ++i)
        buf[i] = m.tiling[size_t(MemLevel::L1)][i] * m.spatial[i]
                 * m.tiling[size_t(MemLevel::L2)][i];
    return {buf.data(), d};
}

} // namespace

MapSpace::MapSpace(const AcceleratorSpec &arch, const Problem &problem)
    : archSpec(&arch), prob(&problem)
{
    if (problem.rank() > kMaxCostRank)
        fatal(strCat("problem ", problem.name, " has ", problem.rank(),
                     " dimensions but a map space supports at most ",
                     kMaxCostRank));
    const size_t tensors = problem.algo->tensorCount();
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        const MemLevelSpec &spec = arch.levels[size_t(lvl)];
        if (spec.banks < int(tensors))
            fatal(strCat("level ", spec.name, " has ", spec.banks,
                         " banks but the problem has ", tensors,
                         " tensors"));
        if (spec.capacityBytes / spec.banks < arch.wordBytes)
            fatal(strCat("level ", spec.name, " banks smaller than a word"));
    }
    if (arch.levels.size() != size_t(kNumMemLevels))
        fatal("accelerator must describe exactly L1, L2 and DRAM");
    for (size_t i = 0; i < problem.rank(); ++i)
        tables[i] = &factorTable(problem.bounds[i], kFactorSlots);
    usedDims.assign(tensors, 0);
    for (size_t t = 0; t < tensors; ++t)
        for (size_t i = 0; i < problem.rank(); ++i)
            if (problem.algo->tensors[t].usesDim(int(i)))
                usedDims[t] |= uint32_t(1) << i;
}

Mapping
MapSpace::randomValid(Rng &rng) const
{
    Mapping m;
    randomValidInto(rng, m);
    return m;
}

void
MapSpace::randomValidInto(Rng &rng, Mapping &m) const
{
    const size_t d = rank();
    for (auto &t : m.tiling)
        t.assign(d, 1);
    m.spatial.assign(d, 1);

    Factors f;
    for (size_t i = 0; i < d; ++i) {
        tables[i]->sampleInto(rng, f);
        m.setFactors(i, f);
    }
    repairSpatial(m);

    for (auto &order : m.loopOrder) {
        order.resize(d);
        randomPermInto(order, rng);
    }

    const size_t tensors = tensorCount();
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        auto &alloc = m.bufferAlloc[size_t(lvl)];
        alloc.assign(tensors, 1);
        int spare = archSpec->levels[size_t(lvl)].banks - int(tensors);
        for (int i = 0; i < spare; ++i)
            ++alloc[size_t(rng.uniformInt(0, int64_t(tensors) - 1))];
    }

    repairCapacity(m);
    MM_ASSERT(isMember(m), "randomValid produced invalid mapping: "
                               + validityError(m));
}

MapSpace::Violation
MapSpace::firstViolation(const Mapping &m) const
{
    using Kind = Violation::Kind;
    const size_t d = rank();
    for (const auto &t : m.tiling)
        if (t.size() != d)
            return {Kind::TilingArity};
    if (m.spatial.size() != d)
        return {Kind::SpatialArity};

    for (size_t i = 0; i < d; ++i)
        if (!tables[i]->contains(m.factorsOf(i)))
            return {Kind::Factorization, i};

    if (m.usedPes() > archSpec->numPes)
        return {Kind::FanOut};

    for (const auto &order : m.loopOrder)
        if (order.size() != d || !isPermutation(order))
            return {Kind::LoopOrder};

    const size_t tensors = tensorCount();
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        const auto &alloc = m.bufferAlloc[size_t(lvl)];
        if (alloc.size() != tensors)
            return {Kind::AllocArity};
        int sum = 0;
        for (int banks : alloc) {
            if (banks < 1)
                return {Kind::NoBanks};
            sum += banks;
        }
        if (sum > archSpec->levels[size_t(lvl)].banks)
            return {Kind::AllocOverflow, size_t(lvl)};
    }

    const std::span<const int64_t> e1 = m.tiling[size_t(MemLevel::L1)];
    Extents buf;
    const std::span<const int64_t> e2 = extentsL2Of(m, buf);
    for (size_t t = 0; t < tensors; ++t) {
        if (tensorTileBytes(t, e1) > allocBytes(0, t, m))
            return {Kind::L1Overflow, t};
        if (tensorTileBytes(t, e2) > allocBytes(1, t, m))
            return {Kind::L2Overflow, t};
    }
    return {};
}

std::string
MapSpace::validityError(const Mapping &m) const
{
    using Kind = Violation::Kind;
    const Violation v = firstViolation(m);
    switch (v.kind) {
      case Kind::None:
        return "";
      case Kind::TilingArity:
        return "tiling arity mismatch";
      case Kind::SpatialArity:
        return "spatial arity mismatch";
      case Kind::Factorization:
        return strCat("illegal factorization for dim ",
                      prob->algo->dimNames[v.index]);
      case Kind::FanOut:
        return strCat("spatial fan-out ", m.usedPes(), " exceeds ",
                      archSpec->numPes, " PEs");
      case Kind::LoopOrder:
        return "loop order is not a permutation";
      case Kind::AllocArity:
        return "buffer allocation arity mismatch";
      case Kind::NoBanks:
        return "tensor with no banks allocated";
      case Kind::AllocOverflow:
        return strCat("allocation exceeds ", archSpec->levels[v.index].name,
                      " banks");
      case Kind::L1Overflow:
        return strCat("tensor ", prob->algo->tensors[v.index].name,
                      " overflows its L1 allocation");
      case Kind::L2Overflow:
        return strCat("tensor ", prob->algo->tensors[v.index].name,
                      " overflows its L2 allocation");
    }
    MM_ASSERT(false, "unknown violation kind");
    return "";
}

Mapping
MapSpace::project(Mapping m) const
{
    const size_t d = rank();
    const size_t tensors = tensorCount();

    // Arity repair: missing entries become unit factors / identity data.
    for (auto &t : m.tiling)
        t.resize(d, 1);
    m.spatial.resize(d, 1);

    // Per-dimension factorization repair (adjust the DRAM slot first).
    for (size_t i = 0; i < d; ++i) {
        Factors f = m.factorsOf(i);
        tables[i]->repairInto(f, int(FactorSlot::DRAM), f);
        m.setFactors(i, f);
    }
    repairSpatial(m);

    // Loop-order repair: keep the first occurrence of each dimension,
    // then append missing dimensions in index order. A permutation is
    // its own repair.
    for (auto &order : m.loopOrder) {
        if (order.size() == d && isPermutation(order))
            continue;
        std::array<double, kMaxCostRank> score;
        for (size_t i = 0; i < d; ++i)
            score[i] = double(2 * d + i);
        for (size_t pos = 0; pos < order.size(); ++pos) {
            int dim = order[pos];
            if (dim >= 0 && size_t(dim) < d
                && score[size_t(dim)] >= double(2 * d))
                score[size_t(dim)] = double(pos);
        }
        order = orderFromScores({score.data(), d});
    }

    // Allocation repair: at least one bank each, shed from the largest.
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        const int banks = archSpec->levels[size_t(lvl)].banks;
        auto &alloc = m.bufferAlloc[size_t(lvl)];
        alloc.resize(tensors, 1);
        for (auto &a : alloc)
            a = std::clamp(a, 1, banks);
        auto sum = [&]() {
            return std::accumulate(alloc.begin(), alloc.end(), 0);
        };
        while (sum() > banks) {
            auto big = std::max_element(alloc.begin(), alloc.end());
            MM_ASSERT(*big > 1, "cannot shed banks below one per tensor");
            --*big;
        }
    }

    repairCapacity(m);
    MM_ASSERT(isMember(m),
              "projection produced invalid mapping: " + validityError(m));
    return m;
}

void
MapSpace::repairSpatial(Mapping &m) const
{
    // Guard against callers handing in non-positive factors; with all
    // entries >= 1, a product above the PE budget guarantees a factor
    // above 1 to demote.
    for (auto &s : m.spatial)
        s = std::max<int64_t>(s, 1);
    while (m.usedPes() > archSpec->numPes) {
        size_t worst = 0;
        for (size_t i = 1; i < m.spatial.size(); ++i)
            if (m.spatial[i] > m.spatial[worst])
                worst = i;
        MM_ASSERT(m.spatial[worst] > 1, "spatial repair stuck");
        int64_t p = smallestPrimeFactor(m.spatial[worst]);
        m.spatial[worst] /= p;
        m.tiling[size_t(MemLevel::L2)][worst] *= p;
    }
}

void
MapSpace::repairCapacity(Mapping &m) const
{
    const auto &algo = *prob->algo;

    // L1: shrink per-PE tiles by promoting factors to L2 (keeps L2
    // extents constant, so the passes below are independent). The L1
    // extents are the L1 factors themselves.
    auto &l1 = m.tiling[size_t(MemLevel::L1)];
    for (size_t t = 0; t < algo.tensorCount(); ++t) {
        while (tensorTileBytes(t, l1) > allocBytes(0, t, m)) {
            size_t dim = size_t(-1);
            int64_t biggest = 1;
            for (size_t i = 0; i < rank(); ++i) {
                int64_t f = l1[i];
                if ((usedDims[t] >> i & 1) && f > biggest) {
                    biggest = f;
                    dim = i;
                }
            }
            MM_ASSERT(dim != size_t(-1),
                      "minimal tile exceeds an L1 bank");
            int64_t p = smallestPrimeFactor(biggest);
            l1[dim] /= p;
            m.tiling[size_t(MemLevel::L2)][dim] *= p;
        }
    }

    // L2: shrink staged tiles by promoting L2 factors (or, failing that,
    // spatial and then L1 factors) to DRAM.
    Extents buf;
    for (size_t t = 0; t < algo.tensorCount(); ++t) {
        while (tensorTileBytes(t, extentsL2Of(m, buf))
               > allocBytes(1, t, m)) {
            auto promote = [&](std::vector<int64_t> &factors) {
                size_t dim = size_t(-1);
                int64_t biggest = 1;
                for (size_t i = 0; i < rank(); ++i) {
                    if ((usedDims[t] >> i & 1) && factors[i] > biggest) {
                        biggest = factors[i];
                        dim = i;
                    }
                }
                if (dim == size_t(-1))
                    return false;
                int64_t p = smallestPrimeFactor(biggest);
                factors[dim] /= p;
                m.tiling[size_t(MemLevel::DRAM)][dim] *= p;
                return true;
            };
            bool moved = promote(m.tiling[size_t(MemLevel::L2)])
                         || promote(m.spatial)
                         || promote(m.tiling[size_t(MemLevel::L1)]);
            MM_ASSERT(moved, "minimal tile exceeds an L2 bank");
        }
    }
}

double
MapSpace::log10Size() const
{
    double lg = 0.0;
    for (size_t i = 0; i < rank(); ++i)
        lg += std::log10(double(tables[i]->count()));
    lg += double(kNumMemLevels) * std::log10(factorial(int(rank())));
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        int64_t banks = archSpec->levels[size_t(lvl)].banks;
        int64_t tensors = int64_t(tensorCount());
        lg += log10Choose(banks - 1, tensors - 1);
    }
    return lg;
}

double
MapSpace::tensorTileBytes(size_t t, std::span<const int64_t> extents) const
{
    return double(prob->algo->tileFootprint(t, extents))
           * archSpec->wordBytes;
}

double
MapSpace::allocBytes(int lvl, size_t t, const Mapping &m) const
{
    const MemLevelSpec &spec = archSpec->levels[size_t(lvl)];
    return spec.capacityBytes * double(m.bufferAlloc[size_t(lvl)].at(t))
           / double(spec.banks);
}

} // namespace mm
