#include "common/permutation.hpp"

#include <numeric>

namespace mm {

std::vector<int>
randomPerm(int n, Rng &rng)
{
    std::vector<int> order(static_cast<size_t>(n));
    randomPermInto(order, rng);
    return order;
}

void
randomPermInto(std::span<int> order, Rng &rng)
{
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
}

std::vector<int>
orderFromScores(std::span<const double> scores)
{
    std::vector<int> order(scores.size());
    orderFromScoresInto(scores, order);
    return order;
}

void
orderFromScoresInto(std::span<const double> scores, std::span<int> order)
{
    MM_ASSERT(order.size() == scores.size(), "order arity mismatch");
    for (size_t i = 0; i < order.size(); ++i) {
        // Shift every strictly greater predecessor right: equal scores
        // keep their index order.
        const int dim = int(i);
        size_t j = i;
        for (; j > 0 && scores[i] < scores[size_t(order[j - 1])]; --j)
            order[j] = order[j - 1];
        order[j] = dim;
    }
}

bool
isPermutation(std::span<const int> order)
{
    if (order.size() <= 64) {
        uint64_t seen = 0;
        for (int v : order) {
            if (v < 0 || size_t(v) >= order.size())
                return false;
            const uint64_t bit = uint64_t(1) << unsigned(v);
            if (seen & bit)
                return false;
            seen |= bit;
        }
        return true;
    }
    std::vector<bool> seen(order.size(), false);
    for (int v : order) {
        if (v < 0 || size_t(v) >= order.size() || seen[size_t(v)])
            return false;
        seen[size_t(v)] = true;
    }
    return true;
}

double
factorial(int n)
{
    double f = 1.0;
    for (int i = 2; i <= n; ++i)
        f *= i;
    return f;
}

} // namespace mm
