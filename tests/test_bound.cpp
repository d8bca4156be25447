/**
 * @file
 * Bounds-engine and branch-and-bound tests: tuple catalogs against the
 * factorization tables, admissibility of the partial-assignment bound
 * against the exact cost model at 10k+ random mappings and multiple
 * prefix depths, monotonicity in prefix depth, exactness of BB against
 * brute-force enumeration on a small map space, certificate validity
 * under a relative gap, determinism under step budgets, registry
 * validation, and the seedFrom=BB warm start of the baselines.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "bound/bb_search.hpp"
#include "common/error.hpp"
#include "common/factorization.hpp"
#include "search/registry.hpp"

namespace mm {
namespace {

constexpr double kRelTol = 1e-9;

/** The tiny exhaustively-enumerable space: conv1d {4, 2} on the tiny
 * accelerator (14 x 8 factor tuples, 8 loop-order combinations each). */
struct SmallSpace
{
    AcceleratorSpec arch = AcceleratorSpec::tinyDefault();
    Problem problem = makeProblem(conv1dAlgo(), "bb-small", {4, 2});
    MapSpace space{arch, problem};
    CostModel model{space};
};

/**
 * Brute-force optimum of a rank-2 space: every legal factor-tuple pair,
 * every full per-level loop order, minimal banks (bank allocation never
 * changes modeled cost, so the minimal assignment loses nothing).
 */
double
bruteForceBestNorm(const CostModel &model, const BoundTables &tables,
                   int64_t &evaluated)
{
    const MapSpace &space = model.space();
    MM_ASSERT(space.rank() == 2, "brute-force helper handles rank 2 only");
    const std::vector<int> orders[2] = {{0, 1}, {1, 0}};
    double best = std::numeric_limits<double>::infinity();
    evaluated = 0;
    for (const auto &tx : tables.tuples(0)) {
        for (const auto &tr : tables.tuples(1)) {
            Mapping m;
            m.tiling[size_t(MemLevel::L1)] = {tx[0], tr[0]};
            m.spatial = {tx[1], tr[1]};
            m.tiling[size_t(MemLevel::L2)] = {tx[2], tr[2]};
            m.tiling[size_t(MemLevel::DRAM)] = {tx[3], tr[3]};
            if (!tables.assignMinimalBanks(m))
                continue;
            for (int bits = 0; bits < 8; ++bits) {
                for (int lvl = 0; lvl < kNumMemLevels; ++lvl)
                    m.loopOrder[size_t(lvl)] = orders[bits >> lvl & 1];
                if (!space.isMember(m))
                    continue;
                best = std::min(best, model.normalizedEdp(m));
                ++evaluated;
            }
        }
    }
    return best;
}

TEST(BoundTables, TupleCatalogMatchesFactorizationTables)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem p = makeProblem(conv1dAlgo(), "tuples", {16, 4});
    MapSpace space(arch, p);
    BoundTables tables(space);
    for (size_t d = 0; d < space.rank(); ++d) {
        const FactorizationTable &table =
            factorTable(p.bounds[d], kFactorSlots);
        const auto &tuples = tables.tuples(d);
        EXPECT_EQ(int64_t(tuples.size()), table.count()) << "dim " << d;
        std::set<std::array<int64_t, kFactorSlots>> unique;
        for (const auto &t : tuples) {
            EXPECT_TRUE(table.contains(
                std::span<const int64_t>(t.data(), t.size())))
                << "dim " << d;
            unique.insert(t);
        }
        EXPECT_EQ(unique.size(), tuples.size()) << "dim " << d;
    }
}

TEST(BoundTables, WholeProblemBacksCostModelLowerBound)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    const Problem problems[] = {
        makeProblem(conv1dAlgo(), "whole-conv", {16, 4}),
        mttkrpProblem("whole-mtt", 48, 32, 64, 24),
    };
    for (const Problem &p : problems) {
        MapSpace space(arch, p);
        BoundTables tables(space);
        const PartialBound whole = tables.wholeProblem();
        EXPECT_TRUE(whole.feasible) << p.name;
        CostModel model(space);
        const LowerBound &lb = model.lowerBound();
        EXPECT_DOUBLE_EQ(whole.energyPj, lb.energyPj) << p.name;
        EXPECT_DOUBLE_EQ(whole.cycles, lb.cycles) << p.name;
        EXPECT_DOUBLE_EQ(lb.edp(), whole.edp()) << p.name;
    }
}

TEST(BoundTables, PrefixViewsPinTheRightSlots)
{
    SmallSpace s;
    Rng rng(17);
    const Mapping m = s.space.randomValid(rng);

    EXPECT_EQ(PartialAssignment::levelPrefixOf(m, 0).fixedSlotCount(), 0u);
    const PartialAssignment all = PartialAssignment::levelPrefixOf(m, 4);
    EXPECT_EQ(all.fixedSlotCount(), 4u * m.rank());
    for (size_t d = 0; d < m.rank(); ++d) {
        EXPECT_TRUE(all.dimFixed(d));
        EXPECT_EQ(all.factor(d, FactorSlot::L1),
                  m.tiling[size_t(MemLevel::L1)][d]);
        EXPECT_EQ(all.factor(d, FactorSlot::Spatial), m.spatial[d]);
        EXPECT_EQ(all.factor(d, FactorSlot::L2),
                  m.tiling[size_t(MemLevel::L2)][d]);
        EXPECT_EQ(all.factor(d, FactorSlot::DRAM),
                  m.tiling[size_t(MemLevel::DRAM)][d]);
    }

    // A one-level prefix fixes exactly the outermost (DRAM) slots.
    const PartialAssignment one = PartialAssignment::levelPrefixOf(m, 1);
    EXPECT_EQ(one.fixedSlotCount(), m.rank());
    for (size_t d = 0; d < m.rank(); ++d) {
        EXPECT_TRUE(one.fixed(d, FactorSlot::DRAM));
        EXPECT_FALSE(one.fixed(d, FactorSlot::L1));
    }

    const PartialAssignment dim1 = PartialAssignment::dimPrefixOf(m, 1);
    EXPECT_TRUE(dim1.dimFixed(0));
    EXPECT_EQ(dim1.fixedSlotCount(), size_t(kFactorSlots));
}

TEST(BoundTables, OutOfRangePinsAreInfeasible)
{
    AcceleratorSpec paper = AcceleratorSpec::paperDefault();
    Problem p = makeProblem(conv1dAlgo(), "infeasible", {16, 4});
    MapSpace space(paper, p);
    BoundTables tables(space);

    // Product exceeds the padding window of dimension 0 ([16, 20]).
    PartialAssignment over(2);
    over.fix(0, FactorSlot::DRAM, 64);
    EXPECT_FALSE(tables.bound(over).feasible);
    EXPECT_TRUE(std::isinf(tables.bound(over).edp()));

    // All slots fixed below the bound: no legal completion either.
    PartialAssignment under(2);
    under.fixDim(0, {1, 1, 1, 1});
    EXPECT_FALSE(tables.bound(under).feasible);

    // Guaranteed spatial fan-out over the tiny accelerator's 16 PEs.
    AcceleratorSpec tiny = AcceleratorSpec::tinyDefault();
    MapSpace tinySpace(tiny, p);
    BoundTables tinyTables(tinySpace);
    PartialAssignment pes(2);
    pes.fix(0, FactorSlot::Spatial, 20);
    pes.fix(1, FactorSlot::Spatial, 5);
    EXPECT_FALSE(tinyTables.bound(pes).feasible);
}

/**
 * The admissibility contract (ISSUE acceptance gate): over >= 10k
 * random mappings on CNN-Layer and MTTKRP, at every level-prefix depth
 * and two dimension-prefix depths, the bound never exceeds the exact
 * model's energy, cycles, per-level words, or EDP — and it grows
 * monotonically as more of the assignment is pinned.
 */
class BoundAdmissibility : public ::testing::TestWithParam<int>
{};

TEST_P(BoundAdmissibility, NeverExceedsExactCostAtAnyPrefixDepth)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    const Problem p =
        GetParam() == 0
            ? cnnProblem("adm-cnn", 2, 16, 8, 10, 10, 3, 3)
            : mttkrpProblem("adm-mtt", 48, 32, 64, 24);
    MapSpace space(arch, p);
    CostModel model(space);
    BoundTables tables(space);
    Rng rng(uint64_t(1234 + GetParam()));

    constexpr size_t kSamples = 5000; // x2 problems = 10k mappings
    std::vector<Mapping> maps;
    maps.reserve(kSamples);
    for (size_t i = 0; i < kSamples; ++i)
        maps.push_back(space.randomValid(rng));
    std::vector<CostResult> results(kSamples);
    model.evaluateBatch(std::span<const Mapping>(maps),
                        std::span<CostResult>(results));

    const size_t rank = space.rank();
    const size_t tensors = space.tensorCount();
    for (size_t i = 0; i < kSamples; ++i) {
        const CostResult &res = results[i];
        double actualWords[kNumMemLevels] = {};
        for (size_t t = 0; t < tensors; ++t)
            for (int lvl = 0; lvl < kNumMemLevels; ++lvl)
                actualWords[lvl] += res.access[t][size_t(lvl)].total();

        double prevEdp = 0.0;
        // ASSERT_* must live in a void callable; the EDP comes back
        // through the out-parameter.
        const auto check = [&](const PartialAssignment &pa,
                               const char *tag, int depth,
                               double &edpOut) {
            const PartialBound b = tables.bound(pa);
            ASSERT_TRUE(b.feasible)
                << p.name << " map " << i << " " << tag << depth;
            ASSERT_LE(b.energyPj, res.totalEnergyPj * (1.0 + kRelTol))
                << p.name << " map " << i << " " << tag << depth;
            ASSERT_LE(b.cycles, res.cycles * (1.0 + kRelTol))
                << p.name << " map " << i << " " << tag << depth;
            for (int lvl = 0; lvl < kNumMemLevels; ++lvl)
                ASSERT_LE(b.words[size_t(lvl)],
                          actualWords[lvl] * (1.0 + kRelTol))
                    << p.name << " map " << i << " " << tag << depth
                    << " level " << lvl;
            ASSERT_LE(b.edp(), res.edp() * (1.0 + kRelTol))
                << p.name << " map " << i << " " << tag << depth;
            edpOut = b.edp();
        };

        double e = 0.0;
        for (int depth = 0; depth <= kFactorSlots; ++depth) {
            check(PartialAssignment::levelPrefixOf(maps[i], depth),
                  "levels=", depth, e);
            if (HasFatalFailure())
                return;
            // Monotone: pinning more slots never loosens the bound.
            ASSERT_GE(e, prevEdp * (1.0 - 1e-12))
                << p.name << " map " << i << " depth " << depth;
            prevEdp = e;
        }
        check(PartialAssignment::dimPrefixOf(maps[i], rank / 2),
              "dims=", int(rank / 2), e);
        check(PartialAssignment::dimPrefixOf(maps[i], rank),
              "dims=", int(rank), e);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(CnnAndMttkrp, BoundAdmissibility,
                         ::testing::Values(0, 1));

/** What the childBounds() checks covered: children and infeasible bases. */
struct ChildTally
{
    int64_t feasible = 0;
    int64_t infeasible = 0;
    int64_t peOverBases = 0;
    int64_t bankOverBases = 0;
};

/**
 * childBounds(base, d, tuples(d)) against bound() of every child, bit
 * for bit; infeasible children must read +inf.
 */
void
expectChildBoundsMatch(const BoundTables &tables,
                       const PartialAssignment &base, size_t d,
                       const std::string &tag, ChildTally &tally)
{
    const auto &tup = tables.tuples(d);
    std::vector<double> edps(tup.size());
    tables.childBounds(base, d, tup, edps);
    for (size_t i = 0; i < tup.size(); ++i) {
        PartialAssignment child = base;
        child.fixDim(d, tup[i]);
        const PartialBound b = tables.bound(child);
        ASSERT_EQ(std::bit_cast<uint64_t>(edps[i]),
                  std::bit_cast<uint64_t>(b.edp()))
            << tag << " dim " << d << " tuple " << i << ": " << edps[i]
            << " vs " << b.edp();
        ++(b.feasible ? tally.feasible : tally.infeasible);
    }
}

/**
 * The whole-catalog differential: for every dimension of every Table-1
 * problem and of conv1d, childBounds() equals bound() of each child on
 * every tuple, over bases with random subsets of the other dimensions
 * fixed (whole tuples or single slots), and over infeasible bases — an
 * out-of-range pin, a guaranteed spatial product over the PE count,
 * and L1 tiles that overflow the banks.
 */
TEST(ChildBounds, MatchBoundBitwiseOnEveryTuple)
{
    const AcceleratorSpec paper = AcceleratorSpec::paperDefault();
    const AcceleratorSpec tiny = AcceleratorSpec::tinyDefault();
    struct Case
    {
        const AcceleratorSpec *arch;
        Problem problem;
    };
    std::vector<Case> cases;
    for (Problem &p : table1All())
        cases.push_back({&paper, std::move(p)});
    cases.push_back({&paper, makeProblem(conv1dAlgo(), "conv", {16, 4})});
    cases.push_back({&tiny, makeProblem(conv1dAlgo(), "conv-t", {16, 4})});
    cases.push_back({&tiny, makeProblem(conv1dAlgo(), "conv-s", {4, 2})});

    ChildTally tally;
    Rng rng(77);
    for (const Case &c : cases) {
        MapSpace space(*c.arch, c.problem);
        BoundTables tables(space);
        const size_t rank = space.rank();
        const std::string &name = c.problem.name;
        for (size_t d = 0; d < rank; ++d) {
            expectChildBoundsMatch(tables, PartialAssignment(rank), d, name,
                                   tally);
            for (int b = 0; b < 3; ++b) {
                PartialAssignment pa(rank);
                for (size_t o = 0; o < rank; ++o) {
                    const double u = rng.uniformReal();
                    if (o == d || u >= 0.75)
                        continue;
                    const auto &t = rng.pick(tables.tuples(o));
                    for (int s = 0; s < kFactorSlots; ++s)
                        if (u < 0.5 || rng.bernoulli(0.5))
                            pa.fix(o, FactorSlot(s), t[size_t(s)]);
                }
                expectChildBoundsMatch(tables, pa, d, name + " random",
                                       tally);
            }
            if (HasFatalFailure())
                return;
            if (rank < 2)
                continue;
            const size_t o0 = d == 0 ? 1 : 0;

            // A pin past the padding window of another dimension.
            PartialAssignment range(rank);
            range.fix(o0, FactorSlot::DRAM,
                      space.factorTableOf(o0).padLimitValue() + 1);
            ASSERT_FALSE(tables.bound(range).feasible) << name;
            expectChildBoundsMatch(tables, range, d, name + " range",
                                   tally);

            // The largest spatial factors of the other dimensions, and
            // (apart) their largest L1 factors: spatial pins alone keep
            // the tiles minimal, L1 pins alone keep one PE.
            PartialAssignment pes(rank), banks(rank);
            double pesFixed = 1.0;
            for (size_t o = 0; o < rank; ++o) {
                if (o == d)
                    continue;
                int64_t sp = 1, l1 = 1;
                for (const auto &t : tables.tuples(o)) {
                    sp = std::max(sp, t[size_t(FactorSlot::Spatial)]);
                    l1 = std::max(l1, t[size_t(FactorSlot::L1)]);
                }
                pes.fix(o, FactorSlot::Spatial, sp);
                banks.fix(o, FactorSlot::L1, l1);
                pesFixed *= double(sp);
            }
            if (pesFixed > double(c.arch->numPes)) {
                ASSERT_FALSE(tables.bound(pes).feasible) << name;
                ++tally.peOverBases;
            }
            if (!tables.bound(banks).feasible)
                ++tally.bankOverBases;
            expectChildBoundsMatch(tables, pes, d, name + " pes", tally);
            expectChildBoundsMatch(tables, banks, d, name + " banks",
                                   tally);
            if (HasFatalFailure())
                return;
        }
    }
    // Every path of the kernel ran: feasible and infeasible children,
    // and bases already infeasible by PE count or by bank demand.
    EXPECT_GT(tally.feasible, 0);
    EXPECT_GT(tally.infeasible, 0);
    EXPECT_GT(tally.peOverBases, 0);
    EXPECT_GT(tally.bankOverBases, 0);
}

TEST(BranchAndBound, ExactOnSmallMapSpace)
{
    SmallSpace s;
    BoundTables tables(s.space);
    int64_t evaluated = 0;
    const double brute = bruteForceBestNorm(s.model, tables, evaluated);
    ASSERT_GT(evaluated, 0);
    ASSERT_TRUE(std::isfinite(brute));

    const BBOutcome out = certifyOptimum(s.model, int64_t(1) << 20);
    EXPECT_TRUE(out.exact);
    EXPECT_DOUBLE_EQ(out.bestNormEdp, brute);
    EXPECT_DOUBLE_EQ(out.certifiedNormEdp, out.bestNormEdp);
    EXPECT_TRUE(s.space.isMember(out.best));
    EXPECT_DOUBLE_EQ(s.model.normalizedEdp(out.best), out.bestNormEdp);
    EXPECT_GT(out.leavesEvaluated, 0);
    EXPECT_GE(out.bestNormEdp, 1.0 - kRelTol);
}

TEST(BranchAndBound, GapPruningKeepsTheCertificateValid)
{
    SmallSpace s;
    BoundTables tables(s.space);
    int64_t evaluated = 0;
    const double brute = bruteForceBestNorm(s.model, tables, evaluated);

    const double gap = 0.5;
    const BBOutcome out = certifyOptimum(s.model, int64_t(1) << 20, gap);
    // The certificate never climbs above the true optimum...
    EXPECT_LE(out.certifiedNormEdp, brute * (1.0 + kRelTol));
    // ...and a completed gap run's incumbent is within the gap of it.
    EXPECT_LE(out.bestNormEdp,
              out.certifiedNormEdp * (1.0 + gap) * (1.0 + kRelTol));
    EXPECT_TRUE(s.space.isMember(out.best));
}

TEST(BranchAndBound, DeterministicUnderStepBudget)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem p = mttkrpProblem("bb-det", 24, 16, 32, 12);
    MapSpace space(arch, p);
    CostModel model(space);
    SearcherBuildContext ctx{model};
    auto &reg = SearcherRegistry::instance();

    Rng a(3), b(3);
    const SearchResult r1 =
        reg.make("BB:maxNodes=400", ctx)->run(SearchBudget::bySteps(250), a);
    const SearchResult r2 =
        reg.make("BB:maxNodes=400", ctx)->run(SearchBudget::bySteps(250), b);
    EXPECT_EQ(r1.method, "BB");
    EXPECT_GT(r1.steps, 0);
    EXPECT_LE(r1.steps, 250);
    EXPECT_DOUBLE_EQ(r1.bestNormEdp, r2.bestNormEdp);
    EXPECT_TRUE(r1.best == r2.best);
    EXPECT_TRUE(space.isMember(r1.best));
    EXPECT_GE(r1.bestNormEdp, 1.0 - kRelTol);
    // One reference-model query of virtual latency per charged step.
    EXPECT_NEAR(r1.virtualSec, double(r1.steps) * TimingModel{}.randomStepSec,
                1e-6);
}

TEST(SearcherRegistry, BranchAndBoundIsRegisteredAndValidated)
{
    auto &reg = SearcherRegistry::instance();
    ASSERT_TRUE(reg.contains("BB"));
    EXPECT_FALSE(reg.at("BB").needsSurrogate);
    // fig5/fig6 --list and mm_serve validation both read this schema.
    EXPECT_NE(reg.describe().find("BB"), std::string::npos);

    SmallSpace s;
    SearcherBuildContext ctx{s.model};
    EXPECT_NO_THROW(reg.make("BB:maxNodes=8,gap=0.1,leafOrders=4", ctx));
    EXPECT_THROW(reg.make("BB:maxNodes=0", ctx), FatalError);
    EXPECT_THROW(reg.make("BB:gap=-0.5", ctx), FatalError);
    EXPECT_THROW(reg.make("BB:leafOrders=0", ctx), FatalError);
    EXPECT_THROW(reg.make("SA:seedFrom=GA", ctx), FatalError);
    EXPECT_THROW(reg.make("SA:seedNodes=0", ctx), FatalError);
    EXPECT_THROW(reg.make("GA:seedFrom=nope", ctx), FatalError);
    EXPECT_THROW(reg.make("GA:seedNodes=-1", ctx), FatalError);
}

TEST(SeedFromBB, WarmStartsBaselineSearchersDeterministically)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem p = makeProblem(conv1dAlgo(), "seeded", {16, 4});
    MapSpace space(arch, p);
    CostModel model(space);
    SearcherBuildContext ctx{model};
    auto &reg = SearcherRegistry::instance();

    for (const char *spec :
         {"SA:seedFrom=BB,seedNodes=32",
          "GA:pop=8,elites=1,seedFrom=BB,seedNodes=32"}) {
        Rng a(9), b(9);
        const SearchResult r1 =
            reg.make(spec, ctx)->run(SearchBudget::bySteps(120), a);
        const SearchResult r2 =
            reg.make(spec, ctx)->run(SearchBudget::bySteps(120), b);
        EXPECT_TRUE(space.isMember(r1.best)) << spec;
        EXPECT_TRUE(std::isfinite(r1.bestNormEdp)) << spec;
        EXPECT_DOUBLE_EQ(r1.bestNormEdp, r2.bestNormEdp) << spec;
        EXPECT_TRUE(r1.best == r2.best) << spec;
        // Seeding must survive a budget smaller than the seed run.
        Rng tiny(9);
        const SearchResult r3 =
            reg.make(spec, ctx)->run(SearchBudget::bySteps(5), tiny);
        EXPECT_LE(r3.steps, 5) << spec;
    }
}

} // namespace
} // namespace mm
