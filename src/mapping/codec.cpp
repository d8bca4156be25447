#include "mapping/codec.hpp"

#include <algorithm>
#include <cmath>

#include "common/permutation.hpp"

namespace mm {

MappingCodec::MappingCodec(const MapSpace &space_)
    : space(&space_), rank(space_.rank()), tensors(space_.tensorCount())
{
    total = allocOffset() + allocCount();
}

std::vector<double>
MappingCodec::encode(const Mapping &m) const
{
    std::vector<double> f(total);
    encodeInto(m, f);
    return f;
}

void
MappingCodec::encodeInto(const Mapping &m, std::span<double> f) const
{
    MM_ASSERT(m.rank() == rank, "mapping rank mismatch");
    MM_ASSERT(f.size() == total, "feature arity mismatch");
    const Problem &pid = space->problem();

    for (size_t d = 0; d < rank; ++d)
        f[pidOffset() + d] = double(pid.bounds[d]);

    // Tile factors, level-major: L1 block, then L2, then DRAM.
    const MemLevel order[] = {MemLevel::L1, MemLevel::L2, MemLevel::DRAM};
    for (size_t l = 0; l < size_t(kNumMemLevels); ++l)
        for (size_t d = 0; d < rank; ++d)
            f[tilingOffset() + l * rank + d] =
                double(m.tiling[size_t(order[l])][d]);

    for (size_t d = 0; d < rank; ++d)
        f[spatialOffset() + d] = double(m.spatial[d]);

    // Loop orders as per-dimension ranks: rank[d] = position of dim d.
    for (size_t l = 0; l < size_t(kNumMemLevels); ++l) {
        const std::vector<int> &loops = m.loopOrder[size_t(order[l])];
        MM_ASSERT(loops.size() == rank, "loop order arity mismatch");
        double *ranks = f.data() + orderOffset() + l * rank;
        std::fill(ranks, ranks + rank, -1.0);
        for (size_t i = 0; i < rank; ++i) {
            MM_ASSERT(loops[i] >= 0 && size_t(loops[i]) < rank,
                      "order entry out of range");
            ranks[size_t(loops[i])] = double(i);
        }
    }

    for (size_t l = 0; l < size_t(kNumOnChipLevels); ++l)
        for (size_t t = 0; t < tensors; ++t)
            f[allocOffset() + l * tensors + t] =
                double(m.bufferAlloc[l][t]);
}

Mapping
MappingCodec::decode(std::span<const double> features) const
{
    Mapping m;
    decodeInto(features, m);
    return m;
}

void
MappingCodec::decodeInto(std::span<const double> features, Mapping &m) const
{
    MM_ASSERT(features.size() == total, "feature arity mismatch");
    const Problem &prob = space->problem();
    // Every entry below is written, so resizing is all the reuse needs.
    for (auto &t : m.tiling)
        t.resize(rank);
    m.spatial.resize(rank);

    // Saturate in double before rounding: llround of a value past
    // int64's range (or of +-inf/NaN) is unspecified, and on x86-64 it
    // returns INT64_MIN, which the clamp would turn into the floor.
    auto roundTo = [](double v, int64_t hi) {
        if (std::isnan(v))
            return int64_t(1);
        return int64_t(std::llround(std::clamp(v, 1.0, double(hi))));
    };

    const MemLevel order[] = {MemLevel::L1, MemLevel::L2, MemLevel::DRAM};
    for (size_t l = 0; l < size_t(kNumMemLevels); ++l)
        for (size_t d = 0; d < rank; ++d)
            m.tiling[size_t(order[l])][d] =
                roundTo(features[tilingOffset() + l * rank + d],
                        2 * prob.bounds[d]);

    for (size_t d = 0; d < rank; ++d)
        m.spatial[d] =
            roundTo(features[spatialOffset() + d], 2 * prob.bounds[d]);

    for (size_t l = 0; l < size_t(kNumMemLevels); ++l) {
        auto &loops = m.loopOrder[size_t(order[l])];
        loops.resize(rank);
        orderFromScoresInto(features.subspan(orderOffset() + l * rank, rank),
                            loops);
    }

    for (size_t l = 0; l < size_t(kNumOnChipLevels); ++l) {
        auto &alloc = m.bufferAlloc[l];
        alloc.resize(tensors);
        for (size_t t = 0; t < tensors; ++t)
            alloc[t] = int(roundTo(features[allocOffset() + l * tensors + t],
                                   space->arch().levels[l].banks));
    }
    m = space->project(std::move(m));
}

} // namespace mm
