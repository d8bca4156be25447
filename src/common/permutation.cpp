#include "common/permutation.hpp"

#include <algorithm>
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
ranksOf(std::span<const int> order)
{
    std::vector<int> ranks(order.size(), -1);
    for (size_t i = 0; i < order.size(); ++i) {
        MM_ASSERT(order[i] >= 0 && size_t(order[i]) < order.size(),
                  "order entry out of range");
        ranks[size_t(order[i])] = int(i);
    }
    return ranks;
}

std::vector<int>
orderFromRanks(std::span<const int> ranks)
{
    std::vector<int> order(ranks.size(), -1);
    for (size_t d = 0; d < ranks.size(); ++d) {
        MM_ASSERT(ranks[d] >= 0 && size_t(ranks[d]) < ranks.size(),
                  "rank entry out of range");
        order[size_t(ranks[d])] = int(d);
    }
    return order;
}

std::vector<int>
orderFromScores(std::span<const double> scores)
{
    std::vector<int> order(scores.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return scores[size_t(a)] < scores[size_t(b)];
    });
    return order;
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
