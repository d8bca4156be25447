/**
 * @file
 * Loop-order permutation helpers.
 *
 * A loop order over D dimensions is stored as `order[i] = dim at nest
 * position i` with position 0 outermost. The surrogate encodes an order as
 * per-dimension ranks (`rank[d] = position of dim d`), matching the
 * paper's Section 5.5 input representation; decoding arbitrary real-valued
 * scores back to a permutation is an argsort, so any gradient update still
 * decodes to a valid order.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace mm {

/** Uniformly random permutation of {0..n-1}. */
std::vector<int> randomPerm(int n, Rng &rng);

/** randomPerm(order.size(), rng) into @p order; allocation-free. */
void randomPermInto(std::span<int> order, Rng &rng);

/**
 * Decode real-valued per-dimension scores into an order: the dimension
 * with the smallest score becomes the outermost loop. Ties break on
 * dimension index (stable), so decoding is deterministic.
 */
std::vector<int> orderFromScores(std::span<const double> scores);

/**
 * orderFromScores into @p order (same size as @p scores); allocation-
 * free. A stable insertion sort: quadratic, sized for loop orders (at
 * most kMaxCostRank dimensions), where it beats std::stable_sort's
 * buffer allocation.
 */
void orderFromScoresInto(std::span<const double> scores,
                         std::span<int> order);

/**
 * True iff @p order is a permutation of {0..n-1}, n = order.size().
 * Allocation-free for n <= 64 (every loop order).
 */
bool isPermutation(std::span<const int> order);

/** n! as a double (map-space size accounting; n is small). */
double factorial(int n);

} // namespace mm
