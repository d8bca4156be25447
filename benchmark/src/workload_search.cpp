/**
 * @file
 * The two offline search workloads.
 *
 * paper_iso_iter is the paper's Fig. 5 experiment: every method gets
 * the same number of cost-function queries on each Table-1 problem.
 * Host time is nn-bound (MM gradient steps and the DDPG baseline); the
 * surrogates come from in-RAM Phase 1 in set-up. bound and shard_store
 * stay idle.
 *
 * blackbox_bb is the paper's baseline workload plus the certificate
 * path: a branch-and-bound certificate and the three black-box
 * searchers on each problem, with no surrogate at all. It is bound,
 * costmodel and search-bookkeeping bound; nn, shard_store and serve stay
 * idle, so an nn optimisation should show no change here.
 *
 * Both run a warm-up round first, which also gives the quality numbers,
 * then repeat the same jobs, with the same seeds, in timed rounds. Every
 * repetition must reproduce the warm-up's results bitwise.
 */
#include <bit>
#include <map>

#include "bench.hpp"
#include "bound/bb_search.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "core/phase1.hpp"
#include "search/orchestrator.hpp"

namespace mmbench {

using namespace mm;

namespace {

/** One registry spec and the short key its metrics are named by. */
struct Method
{
    std::string key;
    std::string spec;
};

/** What one method did across a run. */
struct MethodTotals
{
    double sec = 0.0;
    double steps = 0.0;
    /** Final normalized EDPs of the warm-up round. */
    std::vector<double> quality;
};

/**
 * @p runs seeded runs of @p m on problem @p pi, one after another,
 * traced as search.<key>.<problem> and added to the method's totals.
 * Run 0 is the same for every @p runs.
 */
std::vector<SearchResult>
searchRuns(Tracer &tr, const Method &m, const Targets &t, size_t pi,
           Surrogate *surrogate, int64_t steps, uint64_t seed, int runs,
           bool quality, std::map<std::string, MethodTotals> &totals)
{
    const CostModel &model = *t.models[pi];
    MultiRunOptions mo;
    mo.baseSeed = seed;
    mo.runs = runs;
    const double t0 = nowSec();
    std::vector<SearchResult> rs = [&] {
        auto s = tr.span(strCat("search.", m.key, ".", t.problems[pi].name));
        return runMany(m.spec, SearcherBuildContext{model, surrogate},
                       SearchBudget::bySteps(steps), mo)
            .runs;
    }();
    MethodTotals &mt = totals[m.key];
    mt.sec += nowSec() - t0;
    for (const SearchResult &r : rs) {
        mt.steps += double(r.steps);
        if (quality)
            mt.quality.push_back(r.bestNormEdp);
    }
    return rs;
}

/** Check every result of a job (outside its timing). */
void
checkJob(Tracer &tr, Report &rep, const CostModel &model,
         const std::vector<SearchResult> &results, int64_t steps)
{
    auto s = tr.span("check.search");
    for (const SearchResult &r : results) {
        const std::string bad = checkSearchResult(model, r, steps);
        rep.op(bad.empty(), bad);
        rep.costEvals += double(r.steps);
    }
}

/**
 * The warm-up round stores a job's outcomes in @p first; every timed
 * round must repeat them bitwise, since it runs the same seeds.
 */
void
checkRepeat(Report &rep, const std::string &job,
            const std::vector<double> &outcomes, std::vector<double> &first)
{
    if (first.empty()) {
        first = outcomes;
        return;
    }
    for (size_t i = 0; i < outcomes.size(); ++i)
        rep.op(std::bit_cast<uint64_t>(outcomes[i])
                   == std::bit_cast<uint64_t>(first[i]),
               strCat(job, ": outcome ", i, " is ", outcomes[i],
                      " on repetition, ", first[i], " in warm-up"));
}

std::vector<double>
bestEdps(const std::vector<SearchResult> &results)
{
    std::vector<double> out;
    for (const SearchResult &r : results)
        out.push_back(r.bestNormEdp);
    return out;
}

/** Per-method layer metrics; shares are of the measured window. */
void
reportMethods(const std::map<std::string, MethodTotals> &totals,
              double measuredSec, Report &rep)
{
    for (const auto &[key, mt] : totals) {
        rep.set(strCat("search.", key, ".steps_per_s"), mt.steps / mt.sec,
                "1/s");
        rep.set(strCat("search.", key, ".edp_geomean"), geomean(mt.quality),
                "x");
        rep.set(strCat("search.", key, ".pct"), 100.0 * mt.sec / measuredSec,
                "%");
    }
}

} // namespace

void
runPaperIsoIter(const Options &opt, Tracer &tr, Report &rep)
{
    struct
    {
        size_t samples;
        int epochs;
        int64_t steps;
        int setupReps, minRounds;
        int qualityRuns;
    } sc = opt.smoke ? decltype(sc){1500, 1, 100, 1, 1, 1}
                     : decltype(sc){10000, 5, 1000, 3, 8, 5};
    // RL comes last: it runs once per problem, in the warm-up round only.
    // At ~0.5 s per run it would leave room for too few timed rounds
    // (README). The warm-up runs every other method qualityRuns times.
    const std::vector<Method> methods = {
        {"MM", "MM"},
        {"MM-P", strCat("MM-P:chains=4,threads=", opt.lanes)},
        {"SA", "SA"},
        {"GA", "GA"},
        {"Random", "Random"},
        {"RL", "RL:width=96,batch=24,updateEvery=2"},
    };
    const size_t timedMethods = methods.size() - 1;
    const std::vector<const AlgorithmSpec *> algos = {&cnnLayerAlgo(),
                                                      &mttkrpAlgo()};
    const double start = nowSec();

    // Set-up, several times for the median: in-RAM Phase 1 for both
    // algorithms of Table 1. Training is deterministic, so every set-up
    // yields the same surrogates.
    std::unique_ptr<Targets> t;
    std::vector<Surrogate> surrogates;
    double testLoss = 0.0;
    for (int r = 0; r < sc.setupReps; ++r) {
        pinToQuickestCpus(opt.lanes);
        auto span = tr.span("setup.round");
        t.reset();
        surrogates.clear();
        takePeakRssMb();
        const double s0 = nowSec();
        t = std::make_unique<Targets>(table1All());
        testLoss = 0.0;
        for (size_t a = 0; a < algos.size(); ++a) {
            auto s = tr.span("setup.train." + algos[a]->name);
            Phase1Config c;
            c.data.samples = sc.samples;
            c.data.eliteFraction = 0.25;
            c.data.seed = deriveSeed(opt.seed, 0xDA7A, a);
            c.train.epochs = sc.epochs;
            c.threads = int(opt.lanes);
            c.seed = deriveSeed(opt.seed, 0x7EA1, a);
            Phase1Result p1 = trainSurrogate(t->arch, *algos[a], c);
            testLoss += p1.history.back().testLoss / double(algos.size());
            surrogates.push_back(std::move(p1.surrogate));
        }
        rep.setupSec.push_back(nowSec() - s0);
        rep.setupRssMb.push_back(takePeakRssMb());
    }

    std::map<std::string, MethodTotals> totals;
    std::vector<std::vector<double>> firstBest(t->problems.size());
    double measuredSec = 0.0;
    for (int round = 0;; ++round) {
        const double roundStart = nowSec();
        pinToQuickestCpus(opt.lanes);
        const bool warmUp = round == 0;
        for (size_t pi = 0; pi < t->problems.size(); ++pi) {
            Surrogate *sur =
                &surrogates[t->problems[pi].algo == &cnnLayerAlgo() ? 0 : 1];
            const uint64_t seed = deriveSeed(opt.seed, 0x150, pi);
            const size_t n = warmUp ? methods.size() : timedMethods;
            std::vector<SearchResult> results;
            std::vector<double> outcomes;
            {
                auto job = tr.span("job.problem");
                for (size_t mi = 0; mi < n; ++mi) {
                    const int runs = warmUp && mi < timedMethods
                                         ? sc.qualityRuns
                                         : 1;
                    const double t0 = nowSec();
                    std::vector<SearchResult> rs =
                        searchRuns(tr, methods[mi], *t, pi, sur, sc.steps,
                                   seed, runs, warmUp, totals);
                    if (!warmUp)
                        rep.partSec[t->problems[pi].name][methods[mi].key]
                            .push_back(nowSec() - t0);
                    if (mi < timedMethods)
                        outcomes.push_back(rs.front().bestNormEdp);
                    results.insert(results.end(), rs.begin(), rs.end());
                }
            }
            checkJob(tr, rep, *t->models[pi], results, sc.steps);
            checkRepeat(rep, t->problems[pi].name, outcomes, firstBest[pi]);
            if (warmUp)
                for (const SearchResult &r : results)
                    rep.quality.push_back(r.bestNormEdp);
        }
        rep.runRssMb.push_back(takePeakRssMb());
        const double roundSec = nowSec() - roundStart;
        measuredSec += roundSec;
        if (roundsDone(opt, round, sc.minRounds, nowSec() - start, roundSec))
            break;
    }
    rep.jobsFromPartLatencies();
    rep.endSec = nowSec();
    if (!tr.enabled())
        return;

    reportMethods(totals, measuredSec, rep);
    const double mm = geomean(totals["MM"].quality);
    rep.set("search.sa_over_mm", geomean(totals["SA"].quality) / mm, "x");
    rep.set("search.ga_over_mm", geomean(totals["GA"].quality) / mm, "x");
    rep.set("search.rl_over_mm", geomean(totals["RL"].quality) / mm, "x");
    rep.set("nn.test_loss", testLoss, "huber");
    runProbes(opt, t->problems, surrogates[0], true, rep);
}

void
runBlackboxBB(const Options &opt, Tracer &tr, Report &rep)
{
    struct
    {
        int64_t bbNodes;
        int64_t steps;
        int minRounds;
    } sc = opt.smoke ? decltype(sc){5, 500, 1} : decltype(sc){10, 5000, 8};
    const std::vector<Method> methods = {
        {"SA", "SA"}, {"GA", "GA"}, {"Random", "Random"}};

    std::unique_ptr<Targets> t;
    std::vector<std::unique_ptr<BoundTables>> tables;
    std::map<std::string, MethodTotals> totals;
    std::vector<std::vector<double>> firstBest;
    // Certificates are deterministic per problem: counts of the warm-up.
    double certSec = 0.0, allNodes = 0.0;
    double nodes = 0.0, pruned = 0.0, leaves = 0.0;
    double exact = 0.0;
    std::vector<double> gaps;
    double measuredSec = 0.0;
    const double start = nowSec();
    for (int round = 0;; ++round) {
        const double roundBegin = nowSec();
        pinToQuickestCpus(opt.lanes);
        // Set-up, before every round so that setup_s, the median, spans
        // the whole run: compile the bounds engine of every problem,
        // factor catalogs included; the round's certificates reuse it.
        {
            auto s = tr.span("setup.bound_tables");
            tables.clear();
            t.reset();
            takePeakRssMb();
            const double s0 = nowSec();
            t = std::make_unique<Targets>(table1All());
            for (const auto &space : t->spaces) {
                tables.push_back(std::make_unique<BoundTables>(*space));
                for (size_t d = 0; d < space->rank(); ++d)
                    tables.back()->tuples(d);
            }
            rep.setupSec.push_back(nowSec() - s0);
            rep.setupRssMb.push_back(takePeakRssMb());
        }
        firstBest.resize(t->problems.size());

        const double roundStart = nowSec();
        const bool warmUp = round == 0;
        for (size_t pi = 0; pi < t->problems.size(); ++pi) {
            const uint64_t seed = deriveSeed(opt.seed, 0xBB, pi);
            const CostModel &model = *t->models[pi];
            std::map<std::string, std::vector<double>> &parts =
                rep.partSec[t->problems[pi].name];
            std::vector<SearchResult> results;
            BBOutcome cert;
            {
                auto job = tr.span("job.problem");
                double t0 = nowSec();
                {
                    // certifyOptimum() on the prebuilt tables.
                    auto s = tr.span("bound.certify." + t->problems[pi].name);
                    SearchRecorder rec(
                        model, SearchBudget{},
                        TimingModel::paperCalibrated().randomStepSec);
                    BBOptions bb;
                    bb.maxNodes = sc.bbNodes;
                    cert = branchAndBound(model, *tables[pi], rec, bb);
                }
                certSec += nowSec() - t0;
                allNodes += double(cert.nodesExpanded);
                if (!warmUp)
                    parts["certificate"].push_back(nowSec() - t0);
                for (const Method &m : methods) {
                    t0 = nowSec();
                    results.push_back(searchRuns(tr, m, *t, pi, nullptr,
                                                 sc.steps, seed, 1, warmUp,
                                                 totals)
                                          .front());
                    if (!warmUp)
                        parts[m.key].push_back(nowSec() - t0);
                }
            }
            checkJob(tr, rep, model, results, sc.steps);

            double best = cert.bestNormEdp;
            for (const SearchResult &r : results)
                best = std::min(best, r.bestNormEdp);
            const bool sound = cert.certifiedNormEdp <= best;
            rep.op(sound, strCat(t->problems[pi].name, ": certificate ",
                                 cert.certifiedNormEdp,
                                 " exceeds the best EDP found ", best));
            std::vector<double> outcomes = bestEdps(results);
            outcomes.push_back(cert.certifiedNormEdp);
            outcomes.push_back(cert.bestNormEdp);
            checkRepeat(rep, t->problems[pi].name, outcomes, firstBest[pi]);
            rep.costEvals += double(cert.leavesEvaluated);
            if (warmUp) {
                nodes += double(cert.nodesExpanded);
                pruned += double(cert.nodesPruned);
                leaves += double(cert.leavesEvaluated);
                exact += cert.exact ? 1.0 : 0.0;
                for (const SearchResult &r : results)
                    rep.quality.push_back(r.bestNormEdp);
                gaps.push_back(best / cert.certifiedNormEdp);
            }
        }
        rep.runRssMb.push_back(takePeakRssMb());
        measuredSec += nowSec() - roundStart;
        if (roundsDone(opt, round, sc.minRounds, nowSec() - start,
                       nowSec() - roundBegin))
            break;
    }
    rep.jobsFromPartLatencies();
    rep.endSec = nowSec();
    if (!tr.enabled())
        return;

    reportMethods(totals, measuredSec, rep);
    rep.set("bound.nodes_per_s", allNodes / certSec, "1/s");
    rep.set("bound.nodes_expanded", nodes, "count");
    rep.set("bound.pruned_per_node", pruned / nodes, "ratio");
    rep.set("bound.leaves", leaves, "count");
    rep.set("bound.exact_certs", exact, "count");
    rep.set("bound.gap_geomean", geomean(gaps), "x");
    Surrogate probe = untrainedCnnSurrogate(deriveSeed(opt.seed, 0x5A));
    runProbes(opt, t->problems, probe, false, rep);
}

} // namespace mmbench
