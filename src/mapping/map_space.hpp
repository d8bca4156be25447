/**
 * @file
 * The map space M_{a,p} (Definition 2.2) and the three routines the
 * Mind Mappings API requires of every accelerator (Appendix B):
 * getMapping (randomValid), isMember, and getProjection (project).
 */
#pragma once

#include <array>
#include <string>

#include "arch/accelerator.hpp"
#include "common/rng.hpp"
#include "mapping/mapping.hpp"
#include "workload/problem.hpp"

namespace mm {

class FactorizationTable;

/**
 * The set of valid mappings for one (accelerator, problem) pair.
 *
 * Construction compiles the space: each dimension's factorization table
 * is resolved once, so randomValid, isMember and project neither take a
 * lock nor allocate temporaries (they only allocate the Mapping they
 * return, when they build one; randomValidInto reuses the caller's).
 * A MapSpace is immutable after construction and safe to share across
 * threads.
 */
class MapSpace
{
  public:
    /** The first constraint a mapping violates, in check order. */
    struct Violation
    {
        enum class Kind : uint8_t
        {
            None,
            TilingArity,
            SpatialArity,
            Factorization, ///< index: the dimension
            FanOut,
            LoopOrder,
            AllocArity,
            NoBanks,
            AllocOverflow, ///< index: the on-chip level
            L1Overflow,    ///< index: the tensor
            L2Overflow,    ///< index: the tensor
        };
        Kind kind = Kind::None;
        size_t index = 0;

        explicit operator bool() const { return kind != Kind::None; }
    };

    /**
     * Bind an accelerator and problem. Both must outlive the MapSpace.
     * Throws FatalError if the accelerator cannot host the problem
     * (e.g. fewer allocatable banks than tensors) or the problem has
     * more than kMaxCostRank dimensions.
     */
    MapSpace(const AcceleratorSpec &arch, const Problem &problem);

    /** The spec and problem are captured by reference: forbid
     * temporaries, which would dangle. */
    MapSpace(AcceleratorSpec &&, const Problem &) = delete;
    MapSpace(const AcceleratorSpec &, Problem &&) = delete;
    MapSpace(AcceleratorSpec &&, Problem &&) = delete;

    const AcceleratorSpec &arch() const { return *archSpec; }
    const Problem &problem() const { return *prob; }
    size_t rank() const { return prob->rank(); }
    size_t tensorCount() const { return prob->algo->tensorCount(); }

    /** Uniformly sample a valid mapping (paper: getMapping). */
    Mapping randomValid(Rng &rng) const;

    /**
     * randomValid() into @p m, whatever its previous contents: the same
     * mapping and the same draws. It reuses @p m's vectors, so it
     * allocates nothing once @p m has held a mapping of this space.
     */
    void randomValidInto(Rng &rng, Mapping &m) const;

    /** Membership test (paper: isMember); allocation-free. */
    bool isMember(const Mapping &m) const { return !firstViolation(m); }

    /** The first violated constraint, or Kind::None; allocation-free. */
    Violation firstViolation(const Mapping &m) const;

    /**
     * Diagnostic version of isMember: empty string when valid, else a
     * description of the first violated constraint.
     */
    std::string validityError(const Mapping &m) const;

    /**
     * Deterministically repair an arbitrary mapping-shaped value into a
     * valid member (paper: getProjection), in place. Idempotent on valid
     * inputs except for arity fixes. Pass a temporary by std::move to
     * repair it without a copy.
     */
    Mapping project(Mapping m) const;

    /** Dimension @p d's factorization table, resolved at construction. */
    const FactorizationTable &factorTableOf(size_t d) const
    {
        return *tables[d];
    }

    /** log10 of the (upper-bound) map-space size, as in Section 5.1.3. */
    double log10Size() const;

    /** Bytes of tensor @p t's tile given per-dimension trip extents. */
    double tensorTileBytes(size_t t, std::span<const int64_t> extents) const;

    /** Bytes available to tensor @p t at on-chip level @p lvl under @p m. */
    double allocBytes(int lvl, size_t t, const Mapping &m) const;

  private:
    /** Move spatial factors into L2 until the PE budget is met. */
    void repairSpatial(Mapping &m) const;

    /** Move tile factors outward until every tensor tile fits. */
    void repairCapacity(Mapping &m) const;

    const AcceleratorSpec *archSpec;
    const Problem *prob;
    std::array<const FactorizationTable *, kMaxCostRank> tables{};
    /** usedDims[t] bit i: tensor t's footprint depends on dimension i. */
    std::vector<uint32_t> usedDims;
};

} // namespace mm
