#include "mapping/moves.hpp"

#include <algorithm>

#include "common/factorization.hpp"
#include "common/permutation.hpp"

namespace mm {

namespace {

/** Resample dimension @p d's four-slot factor tuple from scratch. */
void
resampleDim(const MapSpace &space, Mapping &m, size_t d, Rng &rng)
{
    std::array<int64_t, kFactorSlots> f;
    space.factorTableOf(d).sampleInto(rng, f);
    m.setFactors(d, f);
}

/** Move a small prime between a dimension's spatial and L2 factors. */
void
nudgeSpatial(Mapping &m, size_t d, Rng &rng)
{
    auto &spatial = m.spatial[d];
    auto &temporal = m.tiling[size_t(MemLevel::L2)][d];
    bool grow = rng.bernoulli(0.5);
    if (grow && temporal > 1) {
        int64_t p = smallestPrimeFactor(temporal);
        temporal /= p;
        spatial *= p;
    } else if (spatial > 1) {
        int64_t p = smallestPrimeFactor(spatial);
        spatial /= p;
        temporal *= p;
    }
}

} // namespace

void
randomNeighborInto(const MapSpace &space, const Mapping &m, Rng &rng,
                   Mapping &out)
{
    out = m;
    const size_t rank = space.rank();
    auto group = AttributeGroup(rng.uniformInt(0, 3));
    switch (group) {
      case AttributeGroup::Tiling: {
        resampleDim(space, out, size_t(rng.uniformInt(0, int64_t(rank) - 1)),
                    rng);
        break;
      }
      case AttributeGroup::Spatial: {
        nudgeSpatial(out, size_t(rng.uniformInt(0, int64_t(rank) - 1)),
                     rng);
        break;
      }
      case AttributeGroup::LoopOrder: {
        auto &order =
            out.loopOrder[size_t(rng.uniformInt(0, kNumMemLevels - 1))];
        size_t i = size_t(rng.uniformInt(0, int64_t(rank) - 1));
        size_t j = size_t(rng.uniformInt(0, int64_t(rank) - 1));
        std::swap(order[i], order[j]);
        break;
      }
      case AttributeGroup::BufferAlloc: {
        size_t lvl = size_t(rng.uniformInt(0, kNumOnChipLevels - 1));
        auto &alloc = out.bufferAlloc[lvl];
        size_t from = size_t(rng.uniformInt(0, int64_t(alloc.size()) - 1));
        size_t to = size_t(rng.uniformInt(0, int64_t(alloc.size()) - 1));
        if (alloc[from] > 1) {
            --alloc[from];
            ++alloc[to];
        }
        break;
      }
    }
    out = space.project(std::move(out));
}

void
crossoverInto(const MapSpace &space, const Mapping &a, const Mapping &b,
              Rng &rng, Mapping &out)
{
    MM_ASSERT(&out != &b, "crossoverInto: out must not alias b");
    out = a;
    const size_t rank = space.rank();

    // Whole per-dimension factor tuples travel together so a useful
    // factorization survives recombination.
    for (size_t d = 0; d < rank; ++d) {
        if (!rng.bernoulli(0.5))
            continue;
        for (int lvl = 0; lvl < kNumMemLevels; ++lvl)
            out.tiling[size_t(lvl)][d] = b.tiling[size_t(lvl)][d];
        out.spatial[d] = b.spatial[d];
    }
    for (int lvl = 0; lvl < kNumMemLevels; ++lvl)
        if (rng.bernoulli(0.5))
            out.loopOrder[size_t(lvl)] = b.loopOrder[size_t(lvl)];
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl)
        if (rng.bernoulli(0.5))
            out.bufferAlloc[size_t(lvl)] = b.bufferAlloc[size_t(lvl)];

    out = space.project(std::move(out));
}

void
mutateInPlace(const MapSpace &space, Mapping &m, double perAttrProb,
              Rng &rng)
{
    const size_t rank = space.rank();
    for (size_t d = 0; d < rank; ++d)
        if (rng.bernoulli(perAttrProb))
            resampleDim(space, m, d, rng);
    for (int lvl = 0; lvl < kNumMemLevels; ++lvl) {
        if (rng.bernoulli(perAttrProb)) {
            m.loopOrder[size_t(lvl)].resize(rank);
            randomPermInto(m.loopOrder[size_t(lvl)], rng);
        }
    }
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        if (!rng.bernoulli(perAttrProb))
            continue;
        auto &alloc = m.bufferAlloc[size_t(lvl)];
        int banks = space.arch().levels[size_t(lvl)].banks;
        alloc.assign(space.tensorCount(), 1);
        int spare = banks - int(space.tensorCount());
        for (int i = 0; i < spare; ++i)
            ++alloc[size_t(
                rng.uniformInt(0, int64_t(alloc.size()) - 1))];
    }
    m = space.project(std::move(m));
}

} // namespace mm
