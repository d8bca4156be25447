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
    return encodeWithPid(m, space->problem());
}

std::vector<double>
MappingCodec::encodeWithPid(const Mapping &m, const Problem &pid) const
{
    MM_ASSERT(m.rank() == rank, "mapping rank mismatch");
    MM_ASSERT(pid.rank() == rank, "problem rank mismatch");
    std::vector<double> f(total, 0.0);

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

    for (size_t l = 0; l < size_t(kNumMemLevels); ++l) {
        auto ranks = ranksOf(m.loopOrder[size_t(order[l])]);
        for (size_t d = 0; d < rank; ++d)
            f[orderOffset() + l * rank + d] = double(ranks[d]);
    }

    for (size_t l = 0; l < size_t(kNumOnChipLevels); ++l)
        for (size_t t = 0; t < tensors; ++t)
            f[allocOffset() + l * tensors + t] =
                double(m.bufferAlloc[l][t]);
    return f;
}

Mapping
MappingCodec::decode(std::span<const double> features) const
{
    MM_ASSERT(features.size() == total, "feature arity mismatch");
    const Problem &prob = space->problem();
    Mapping m;
    for (auto &t : m.tiling)
        t.assign(rank, 1);
    m.spatial.assign(rank, 1);

    auto roundFactor = [&](double v, size_t d) {
        int64_t f = int64_t(std::llround(v));
        return std::clamp<int64_t>(f, 1, 2 * prob.bounds[d]);
    };

    const MemLevel order[] = {MemLevel::L1, MemLevel::L2, MemLevel::DRAM};
    for (size_t l = 0; l < size_t(kNumMemLevels); ++l)
        for (size_t d = 0; d < rank; ++d)
            m.tiling[size_t(order[l])][d] =
                roundFactor(features[tilingOffset() + l * rank + d], d);

    for (size_t d = 0; d < rank; ++d)
        m.spatial[d] = roundFactor(features[spatialOffset() + d], d);

    for (size_t l = 0; l < size_t(kNumMemLevels); ++l)
        m.loopOrder[size_t(order[l])] =
            orderFromScores(features.subspan(orderOffset() + l * rank, rank));

    for (size_t l = 0; l < size_t(kNumOnChipLevels); ++l) {
        auto &alloc = m.bufferAlloc[l];
        alloc.assign(tensors, 1);
        for (size_t t = 0; t < tensors; ++t) {
            int64_t banks =
                int64_t(std::llround(features[allocOffset() + l * tensors
                                              + t]));
            alloc[t] = int(std::clamp<int64_t>(
                banks, 1, space->arch().levels[l].banks));
        }
    }
    return space->project(std::move(m));
}

} // namespace mm
