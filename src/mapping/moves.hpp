/**
 * @file
 * Search-agnostic move operators over the map space.
 *
 * These implement the neighborhoods the black-box baselines need:
 * simulated annealing perturbs one attribute per step, the genetic
 * algorithm recombines attribute groups between parents and mutates
 * individual attributes (Appendix A). Every operator writes into a
 * mapping the caller owns and leaves a *valid* member there (it
 * finishes with MapSpace::project), so a search loop that keeps its
 * mappings across steps allocates nothing.
 */
#pragma once

#include "common/rng.hpp"
#include "mapping/map_space.hpp"

namespace mm {

/** The four programmable-attribute groups of Section 5.1.3. */
enum class AttributeGroup : int
{
    Tiling = 0,
    Spatial = 1,
    LoopOrder = 2,
    BufferAlloc = 3,
};

/**
 * One local move: copy @p m into @p out, perturb a single
 * randomly-chosen attribute (resample one dimension's factor tuple,
 * nudge one spatial factor, swap two loop positions, or shift one
 * bank), then project. @p out may be @p m. Reuses @p out's vectors, so
 * it allocates nothing once @p out has held a mapping of this space.
 */
void randomNeighborInto(const MapSpace &space, const Mapping &m, Rng &rng,
                        Mapping &out);

/**
 * GA crossover into @p out: start from @p a, take each attribute group
 * element from @p b with probability 1/2, then project. @p out may be
 * @p a but not @p b. Allocation-free like randomNeighborInto.
 */
void crossoverInto(const MapSpace &space, const Mapping &a, const Mapping &b,
                   Rng &rng, Mapping &out);

/**
 * GA mutation of @p m in place: each attribute is independently
 * re-randomized with probability @p perAttrProb, then @p m is
 * projected. Allocation-free.
 */
void mutateInPlace(const MapSpace &space, Mapping &m, double perAttrProb,
                   Rng &rng);

} // namespace mm
