/**
 * @file
 * Shared types of mmbench: run options, the per-run report every
 * workload fills, and the span tracer around its calls into mm.
 *
 * Every number mmbench reports comes from its own calls into a
 * module's public API; nothing inside src/ is instrumented. A workload
 * lasts --seconds, set-up included: an offline one repeats rounds of
 * fixed jobs until another round would overrun, with a minimum number
 * of rounds; serve_mixed sets up several times, then serves until the
 * time is up. setup_s is the median set-up. Quality numbers come from
 * fixed rounds only (the first Phase-1 passes, the search workloads'
 * warm-up round), so they depend on the seed alone and never on how
 * fast the machine is.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "costmodel/cost_model.hpp"

namespace mm {
class Surrogate;
struct SearchResult;
}

namespace mmbench {

/** Problems with their map spaces and cost models on the paper's
 * accelerator. The spaces point into this object: it never moves. */
struct Targets
{
    explicit Targets(const std::vector<mm::Problem> &ps)
        : arch(mm::AcceleratorSpec::paperDefault()), problems(ps)
    {
        for (const mm::Problem &p : problems) {
            spaces.push_back(std::make_unique<mm::MapSpace>(arch, p));
            models.push_back(std::make_unique<mm::CostModel>(*spaces.back()));
        }
    }
    Targets(const Targets &) = delete;
    Targets &operator=(const Targets &) = delete;

    mm::AcceleratorSpec arch;
    std::vector<mm::Problem> problems;
    std::vector<std::unique_ptr<mm::MapSpace>> spaces;
    std::vector<std::unique_ptr<mm::CostModel>> models;
};

/** Parsed command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace-event output of a traced run. */
    std::string traceFile;
    /** Tiny sizes for the ctest smoke run. */
    bool smoke = false;
    /** Parent of the per-run scratch directory (shards, caches). */
    std::string workDir = ".bench_build/work";
    /** Execution lanes: half the vCPUs, 1 to 4 (see pinToQuickestCpus). */
    size_t lanes = 1;
};

/** Monotonic seconds since an arbitrary process-wide epoch. */
double nowSec();

/** Independent seed for (@p base, @p a, @p b) (splitmix64 mixing). */
uint64_t deriveSeed(uint64_t base, uint64_t a, uint64_t b = 0);

/**
 * True once @p roundsRun timed rounds reach @p minRounds and one more
 * round, taking @p roundSec, would take the run past --seconds
 * @p elapsedSec after the workload began (set-up included).
 */
bool roundsDone(const Options &opt, int roundsRun, int minRounds,
                double elapsedSec, double roundSec);

/**
 * Pin the calling thread, and every thread it starts from now on, to
 * the @p lanes vCPUs of the process that run a short integer probe
 * fastest. A busy sibling hyperthread on the host slows one vCPU at a
 * time by up to 1.8x, for seconds to minutes; the offline workloads
 * call this before each round, so their fastest repetitions come from
 * the vCPUs it spares (README). Does nothing where affinity cannot be
 * set.
 */
void pinToQuickestCpus(size_t lanes);

/**
 * Peak resident set, in MiB, since the previous call (or process
 * start), after which the kernel's high-water mark is reset to the
 * current resident set. Each call thus closes one phase of the run.
 */
double takePeakRssMb();

/** One named value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * What one run produced. Workloads append jobs, quality values and
 * check outcomes; main() turns them into the end-to-end metrics, and
 * traced runs add per-layer metrics.
 */
struct Report
{
    std::vector<double> setupSec;
    /** Latency of every measured job. */
    std::vector<double> jobSec;
    /** Jobs per second over the measured window. */
    double jobsPerSec = 0.0;
    /** Offline workloads: latencies of the repeated parts of each job
     * (a search method, a certificate, a Phase-1 step), by job class (a
     * Table-1 problem, or the one Phase-1 pass) and part. */
    std::map<std::string, std::map<std::string, std::vector<double>>>
        partSec;
    /**
     * takePeakRssMb() of every set-up and of every measured round (or,
     * on serve_mixed, second of load). glibc keeps freed memory by rules
     * that depend on thread timing, so one phase's peak varies by ~25 %
     * run to run; peak_rss_mb is the larger of the two medians.
     */
    std::vector<double> setupRssMb, runRssMb;
    /** Factors >= 1 whose geomean is quality_x (first rounds only):
     * normalized EDPs of searches, or surrogate EDP errors. */
    std::vector<double> quality;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> failures;
    /** Per-layer metrics (traced runs). */
    std::map<std::string, Metric> layer;
    /** Modelled cost-model queries the workload issued. */
    double costEvals = 0.0;
    /** nowSec() when the last measured job (and its checks) ended;
     * traced runs probe layers after it. */
    double endSec = 0.0;

    /** Count one operation; @p ok false (with @p why) marks it failed. */
    void op(bool ok, const std::string &why = "");

    /**
     * Fill jobSec and jobsPerSec from partSec: each job counts with the
     * sum, over its parts, of the part's fastest repetition in the run.
     * The host runs this code at two speeds ~1.6x apart and switches
     * between them every fraction of a second to tens of seconds, so a
     * median lands on either speed. A part's fastest repetition is its
     * cost at the fast speed, which repeats within a few percent between
     * runs (README).
     */
    void jobsFromPartLatencies();

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        layer[name] = Metric{value, unit};
    }
};

/**
 * In-memory span recorder. Spans nest per thread (a span's parent is
 * the innermost span open on the same thread when it began); a layer
 * is the span name up to its first '.'. Disabled tracers record
 * nothing, so untraced runs pay one branch per span.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** RAII span; closes on destruction. */
    class Span
    {
      public:
        Span(Tracer *t, int64_t id) : tracer(t), spanId(id) {}
        Span(Span &&o) noexcept : tracer(o.tracer), spanId(o.spanId)
        {
            o.tracer = nullptr;
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        Span &operator=(Span &&) = delete;
        ~Span() { end(); }

        /** Close now (idempotent). */
        void end();

        int64_t id() const { return spanId; }

      private:
        Tracer *tracer;
        int64_t spanId;
    };

    /** Open a span named @p name on the calling thread. */
    Span span(const std::string &name);

    /** An instant mark (e.g. "accepted") inside span @p id. */
    void mark(int64_t id, const std::string &name);

    struct Record
    {
        std::string name;
        double start = 0.0;
        double end = -1.0;
        int64_t parent = -1;
        int tid = 0;
    };

    /** Self time (span time not covered by its children) per layer. */
    std::map<std::string, double> selfTimeByLayer() const;

    /** Seconds of [t0, t1] covered by no top-level span. */
    double untracedSec(double t0, double t1) const;

    size_t spanCount() const;

    /** Write Chrome trace-event JSON (Perfetto opens it). */
    void writeChrome(const std::string &path, const std::string &workload,
                     uint64_t seed) const;

  private:
    void close(int64_t id);

    bool on;
    mutable mm::Mutex mtx;
    std::vector<Record> spans MM_GUARDED_BY(mtx);
    std::vector<std::pair<int64_t, std::pair<std::string, double>>>
        marks MM_GUARDED_BY(mtx);
};

/**
 * Correctness gate shared by every search: exact step budget, a best
 * mapping that is a member of the map space and re-evaluates bitwise
 * to the reported bestNormEdp. Returns "" when it holds.
 */
std::string checkSearchResult(const mm::CostModel &model,
                              const mm::SearchResult &r, int64_t steps);

/** A randomly initialised CNN-Layer surrogate of the Fast topology
 * (timing probes of workloads that train none). */
mm::Surrogate untrainedCnnSurrogate(uint64_t seed);

/**
 * Per-layer probes of the traced run: time the public entry points of
 * mapping, costmodel, surrogate, tensor and (unless the workload
 * measured it itself) bound on the workload's own problems and seed.
 */
void runProbes(const Options &opt, const std::vector<mm::Problem> &problems,
               mm::Surrogate &surrogate, bool probeBound, Report &rep);

/** The four workloads. */
void runPhase1OutOfCore(const Options &opt, Tracer &tr, Report &rep);
void runPaperIsoIter(const Options &opt, Tracer &tr, Report &rep);
void runBlackboxBB(const Options &opt, Tracer &tr, Report &rep);
void runServeMixed(const Options &opt, Tracer &tr, Report &rep);

} // namespace mmbench
