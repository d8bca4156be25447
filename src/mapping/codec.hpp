/**
 * @file
 * Mapping <-> feature-vector codec (Section 5.5).
 *
 * Encodes a mapping as the flat float vector the surrogate consumes:
 *
 *   [ problem id (D) | tile factors (3D: L1, L2, DRAM) | parallelism (D)
 *     | loop-order ranks (3D) | buffer allocation (2T) ]
 *
 * For CNN-Layer (D=7, T=3) this is 62 values and for MTTKRP (D=4, T=4)
 * 40 values, exactly matching the paper. Decoding rounds each entry to
 * its attribute domain (the paper's "round to the nearest value in P_d")
 * and then projects onto the valid map space; loop orders decode by
 * argsort of their rank scores, so any real-valued vector decodes.
 */
#pragma once

#include <span>
#include <vector>

#include "mapping/map_space.hpp"

namespace mm {

/** Flattens mappings into surrogate features and back. */
class MappingCodec
{
  public:
    explicit MappingCodec(const MapSpace &space);

    /** The map space is captured by reference: forbid temporaries. */
    explicit MappingCodec(MapSpace &&) = delete;

    /** Total feature count (62 for CNN-Layer, 40 for MTTKRP). */
    size_t featureCount() const { return total; }

    size_t pidOffset() const { return 0; }
    size_t pidCount() const { return rank; }
    size_t tilingOffset() const { return rank; }
    size_t tilingCount() const { return size_t(kNumMemLevels) * rank; }
    size_t spatialOffset() const { return tilingOffset() + tilingCount(); }
    size_t spatialCount() const { return rank; }
    size_t orderOffset() const { return spatialOffset() + spatialCount(); }
    size_t orderCount() const { return size_t(kNumMemLevels) * rank; }
    size_t allocOffset() const { return orderOffset() + orderCount(); }
    size_t allocCount() const { return size_t(kNumOnChipLevels) * tensors; }

    /** Encode @p m tagged with this space's problem id. */
    std::vector<double> encode(const Mapping &m) const;

    /** encode() into @p out (featureCount() entries); allocation-free. */
    void encodeInto(const Mapping &m, std::span<double> out) const;

    /**
     * Decode a feature vector (pid segment ignored) into a valid mapping:
     * round, clamp, argsort orders, then MapSpace::project. A value out
     * of an attribute's range saturates at its nearest bound (NaN at the
     * floor), so any real-valued vector decodes.
     */
    Mapping decode(std::span<const double> features) const;

    /**
     * decode() into @p m, whatever its previous contents and arity. It
     * reuses @p m's vectors, so it allocates nothing once @p m has held
     * a mapping of this space.
     */
    void decodeInto(std::span<const double> features, Mapping &m) const;

  private:
    const MapSpace *space;
    size_t rank;
    size_t tensors;
    size_t total;
};

} // namespace mm
