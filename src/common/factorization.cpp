#include "common/factorization.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include "common/mutex.hpp"
#include <tuple>

#include "common/string_util.hpp"

namespace mm {

std::vector<int64_t>
divisors(int64_t n)
{
    MM_ASSERT(n >= 1, "divisors of non-positive number");
    std::vector<int64_t> small, large;
    for (int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            small.push_back(d);
            if (d != n / d)
                large.push_back(n / d);
        }
    }
    small.insert(small.end(), large.rbegin(), large.rend());
    return small;
}

int64_t
smallestPrimeFactor(int64_t n)
{
    MM_ASSERT(n >= 2, "no prime factor of < 2");
    for (int64_t p = 2; p * p <= n; ++p)
        if (n % p == 0)
            return p;
    return n;
}

FactorizationTable::FactorizationTable(int64_t bound_, int slots_,
                                       int64_t maxFactor_)
    : bound(bound_), slots(slots_),
      padLimit(bound_ == 1
                   ? 1
                   : bound_ + std::max<int64_t>(1, bound_ / 4))
{
    maxFactor = maxFactor_ > 0 ? std::min(maxFactor_, padLimit) : padLimit;
    MM_ASSERT(bound >= 1, "bound must be positive");
    MM_ASSERT(slots >= 1, "slots must be positive");

    // Divisor lists for every possible product value, stored flat: count
    // each p's divisors, then fill the lists in ascending divisor order.
    divStart.assign(size_t(padLimit) + 2, 0);
    for (int64_t d = 1; d <= padLimit; ++d)
        for (int64_t p = d; p <= padLimit; p += d)
            ++divStart[size_t(p) + 1];
    for (size_t p = 1; p < divStart.size(); ++p)
        divStart[p] += divStart[p - 1];
    divList.resize(divStart.back());
    std::vector<uint32_t> fill(divStart.begin(), divStart.end() - 1);
    for (int64_t d = 1; d <= padLimit; ++d)
        for (int64_t p = d; p <= padLimit; p += d)
            divList[fill[size_t(p)]++] = int32_t(d);

    // ways[s][p]: ordered s-tuples of factors in [1, maxFactor] with
    // product exactly p.
    ways.assign(size_t(slots) + 1,
                std::vector<int64_t>(size_t(padLimit) + 1, 0));
    ways[0][1] = 1;
    for (int s = 1; s <= slots; ++s) {
        for (int64_t p = 1; p <= padLimit; ++p) {
            int64_t acc = 0;
            for (int32_t f : divisorsOf(p)) {
                if (f > maxFactor)
                    break;
                acc += ways[size_t(s) - 1][size_t(p / f)];
            }
            ways[size_t(s)][size_t(p)] = acc;
        }
    }

    total = 0;
    cumWays.reserve(size_t(padLimit - bound) + 1);
    for (int64_t p = bound; p <= padLimit; ++p) {
        total += ways[size_t(slots)][size_t(p)];
        cumWays.push_back(total);
    }

    // The repair scans compare log-distances; the table answers them
    // with the same doubles std::log returns.
    logs.resize(size_t(padLimit) + 1);
    for (int64_t p = 1; p <= padLimit; ++p)
        logs[size_t(p)] = std::log(double(p));
    MM_ASSERT(std::is_sorted(logs.begin() + 1, logs.end()),
              "log table must be monotone for the repair search");
    MM_ASSERT(total > 0, strCat("no legal factorization for bound=", bound,
                                " slots=", slots));
}

std::vector<int64_t>
FactorizationTable::sample(Rng &rng) const
{
    std::vector<int64_t> factors(static_cast<size_t>(slots));
    sampleInto(rng, factors);
    return factors;
}

void
FactorizationTable::sampleInto(Rng &rng, std::span<int64_t> factors) const
{
    MM_ASSERT(factors.size() == size_t(slots), "sample arity mismatch");
    // Pick the product proportionally to its tuple count (the first
    // product whose running count exceeds the draw), then unwind the DP
    // to pick each factor with the correct conditional probability.
    const int64_t target = rng.uniformInt(0, total - 1);
    const auto hit = std::upper_bound(cumWays.begin(), cumWays.end(), target);
    const int64_t product = bound + int64_t(hit - cumWays.begin());

    // Divisors pair up around the middle of the sorted list, so the
    // cofactor rem / d[k] is d[n - 1 - k]: no division in the scans.
    std::fill(factors.begin(), factors.end(), 1);
    int64_t rem = product;
    for (int s = slots; s >= 2; --s) {
        int64_t w = ways[size_t(s)][size_t(rem)];
        int64_t t = rng.uniformInt(0, w - 1);
        const std::span<const int32_t> d = divisorsOf(rem);
        const int64_t *prev = ways[size_t(s) - 1].data();
        for (size_t k = 0, n = d.size(); k < n; ++k) {
            if (d[k] > maxFactor)
                break;
            int64_t sub = prev[d[n - 1 - k]];
            if (t < sub) {
                factors[size_t(s) - 1] = d[k];
                rem = d[n - 1 - k];
                break;
            }
            t -= sub;
        }
    }
    // The last slot takes the cofactor: ways[1][rem] == 1, so its draw
    // is always 0 (still taken, to keep the stream aligned) and the scan
    // would stop at f == rem.
    MM_ASSERT(ways[1][size_t(rem)] == 1,
              "factor sampling failed to consume product");
    rng.uniformInt(0, 0);
    factors[0] = rem;
}

bool
FactorizationTable::contains(std::span<const int64_t> factors) const
{
    if (int(factors.size()) != slots)
        return false;
    int64_t product = 1;
    for (int64_t f : factors) {
        if (f < 1 || f > maxFactor)
            return false;
        product *= f;
        if (product > padLimit)
            return false;
    }
    return product >= bound && product <= padLimit;
}

std::vector<int64_t>
FactorizationTable::repair(std::span<const int64_t> factors,
                           int adjustSlot) const
{
    std::vector<int64_t> fixed(static_cast<size_t>(slots));
    repairInto(factors, adjustSlot, fixed);
    return fixed;
}

void
FactorizationTable::repairInto(std::span<const int64_t> factors,
                               int adjustSlot, std::span<int64_t> out) const
{
    MM_ASSERT(adjustSlot >= 0 && adjustSlot < slots, "bad adjust slot");
    MM_ASSERT(out.size() == size_t(slots), "repair arity mismatch");
    // Clamp in place; out[s] only depends on factors[s], so aliasing is
    // safe.
    for (size_t s = 0; s < out.size(); ++s)
        out[s] = std::clamp<int64_t>(s < factors.size() ? factors[s] : 1, 1,
                                     maxFactor);
    if (contains(out))
        return;

    // Choose the legal target product closest (in log space) to the
    // clamped tuple's product, the first one on ties; ways[slots][q] > 0
    // guarantees the greedy slot-by-slot reconstruction below cannot get
    // stuck. dist(q) = |logs[q] - logP| is non-increasing below the
    // first q with logs[q] >= logP and non-decreasing from it, so a scan
    // of the window in ascending q would settle on one of two
    // candidates: the first q of the lowest plateau below the crossing,
    // or the first feasible q at or above it if that is strictly closer.
    double logP = 0.0;
    for (int64_t f : out)
        logP += logs[size_t(f)];
    const std::vector<int64_t> &feasible = ways[size_t(slots)];
    auto dist = [&](int64_t q) { return std::fabs(logs[size_t(q)] - logP); };
    const int64_t cross =
        std::lower_bound(logs.begin() + bound, logs.begin() + padLimit + 1,
                         logP)
        - logs.begin();
    int64_t target = -1;
    double bestDist = std::numeric_limits<double>::infinity();
    for (int64_t q = cross - 1; q >= bound; --q) {
        if (feasible[size_t(q)] == 0)
            continue;
        if (target > 0 && dist(q) != bestDist)
            break;
        target = q;
        bestDist = dist(q);
    }
    int64_t above = cross;
    while (above <= padLimit && feasible[size_t(above)] == 0)
        ++above;
    if (above <= padLimit && dist(above) < bestDist)
        target = above;
    MM_ASSERT(target > 0, "no feasible product in the pad window");

    // Greedily rebuild each slot near its clamped value, preferring to
    // spend the adjustment on adjustSlot by fixing it last: the other
    // slots in index order, then adjustSlot. Each slot is read (as its
    // clamped value) and then overwritten exactly once.
    int64_t rem = target;
    for (int i = 0; i < slots; ++i) {
        const int slot = i == slots - 1 ? adjustSlot
                         : i < adjustSlot ? i
                                          : i + 1;
        const int remainingSlots = slots - 1 - i;
        const double logClamped = logs[size_t(out[size_t(slot)])];
        const std::span<const int32_t> d = divisorsOf(rem);
        const size_t n = d.size();
        size_t best = n;
        double bestD = std::numeric_limits<double>::infinity();
        for (size_t k = 0; k < n; ++k) {
            const int32_t f = d[k], cofactor = d[n - 1 - k];
            if (f > maxFactor)
                break;
            if (remainingSlots > 0
                && ways[size_t(remainingSlots)][size_t(cofactor)] == 0)
                continue;
            if (remainingSlots == 0 && cofactor != 1)
                continue;
            double dist = std::fabs(logs[size_t(f)] - logClamped);
            if (dist < bestD) {
                bestD = dist;
                best = k;
            }
        }
        MM_ASSERT(best < n, "repair reconstruction stuck");
        out[size_t(slot)] = d[best];
        rem = d[n - 1 - best];
    }
    MM_ASSERT(rem == 1 && contains(out),
              "repair produced illegal factorization");
}

namespace {

/**
 * Process-wide factorization-table cache. Guarded by a mutex (and
 * compiler-checked as such): dataset-labeling lanes and batched
 * searchers sample concurrently, and the first draw for a new bound
 * may land on any lane. std::map never invalidates node references, so
 * a returned reference stays valid unguarded for program lifetime; hot
 * paths (CostTables) resolve their tables once and keep the pointers.
 */
struct FactorTableCache
{
    Mutex mtx;
    std::map<std::tuple<int64_t, int, int64_t>, FactorizationTable>
        entries MM_GUARDED_BY(mtx);
};

FactorTableCache &
factorCache()
{
    static FactorTableCache cache;
    return cache;
}

} // namespace

const FactorizationTable &
factorTable(int64_t bound, int slots, int64_t maxFactor)
{
    FactorTableCache &cache = factorCache();
    auto key = std::make_tuple(bound, slots, maxFactor);
    MutexLock lock(cache.mtx);
    auto it = cache.entries.find(key);
    if (it == cache.entries.end()) {
        it = cache.entries
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(key),
                          std::forward_as_tuple(bound, slots, maxFactor))
                 .first;
    }
    return it->second;
}

} // namespace mm
