/**
 * @file
 * Search framework shared by Mind Mappings and the black-box baselines
 * (Section 5.2): budgets, traces, observers, cancellation, the Searcher
 * interface, and the virtual clock that reproduces the paper's iso-time
 * methodology.
 *
 * Iteration semantics follow the paper: one "step" is one cost-function
 * query — a Timeloop-stand-in query for the baselines, a surrogate
 * query for Mind Mappings (Section 5.2, "Iso-iteration"). Every
 * searcher charges its queries through one path, SearchRecorder::record:
 * a block of proposals scored by one batched cost-model call and
 * charged in order, a single proposal being a block of one.
 *
 * Virtual time: our analytical cost model evaluates in microseconds,
 * orders of magnitude faster than the Timeloop queries the paper
 * measures, so raw wall-clock would invert the iso-time premise. Each
 * searcher therefore charges a per-step latency to a virtual clock; the
 * defaults are calibrated to the per-step ratios the paper reports
 * (Mind Mappings 153.7x / 286.8x / 425.5x faster per step than SA / GA /
 * RL, converging in 62.5 s at ~1000 steps). Real wall time is recorded
 * alongside for transparency. See DESIGN.md, "Substitutions".
 *
 * Wall-clock budgets: alongside steps and virtual seconds, a budget can
 * bound *real* elapsed seconds (SearchBudget::byWallTime). This is the
 * iso-wall-clock mode of the fig6 bench, where the threaded backend's
 * genuine throughput advantage — invisible under the virtual clock —
 * shows up directly. Wall/stop-token exhaustion is checked without
 * touching any RNG, so step- and virtual-time-budgeted runs are bitwise
 * unaffected by the machinery.
 *
 * Run contract: Searcher::run(SearchContext &) bundles the budget with
 * the RNG, an optional SearchObserver (on-improvement and periodic
 * progress callbacks) and an optional cooperative StopToken. Callers
 * that need none of that use the run(budget, rng) convenience wrapper.
 *
 * Measurement: the quality traces record the best-so-far *true*
 * normalized EDP of the candidates a method proposes, matching how the
 * paper plots all methods on one axis; for Mind Mappings these trace
 * probes are instrumentation only — its search decisions see surrogate
 * predictions exclusively.
 */
#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "costmodel/cost_model.hpp"

namespace mm {

/**
 * Stop condition: step count (iso-iteration), virtual time (iso-time),
 * or real elapsed seconds (iso-wall-clock).
 */
struct SearchBudget
{
    int64_t maxSteps = std::numeric_limits<int64_t>::max();
    double maxVirtualSec = std::numeric_limits<double>::infinity();
    /** Real elapsed seconds; measured by the recorder's wall timer. */
    double maxWallSec = std::numeric_limits<double>::infinity();

    /** Deterministic (step / virtual-time) exhaustion only; the wall
     * clock is the recorder's to watch. */
    bool
    done(int64_t steps, double virtualSec) const
    {
        return steps >= maxSteps || virtualSec >= maxVirtualSec;
    }

    static SearchBudget
    bySteps(int64_t steps)
    {
        SearchBudget b;
        b.maxSteps = steps;
        return b;
    }

    static SearchBudget
    byVirtualTime(double seconds)
    {
        SearchBudget b;
        b.maxVirtualSec = seconds;
        return b;
    }

    static SearchBudget
    byWallTime(double seconds)
    {
        SearchBudget b;
        b.maxWallSec = seconds;
        return b;
    }
};

/** Best-so-far sample (recorded on improvement and at exhaustion). */
struct TracePoint
{
    int64_t step;
    double virtualSec;
    double bestNormEdp;
};

/** Outcome of one search run. */
struct SearchResult
{
    std::string method;
    Mapping best;
    double bestNormEdp = std::numeric_limits<double>::infinity();
    std::vector<TracePoint> trace;
    int64_t steps = 0;
    double virtualSec = 0.0;
    double wallSec = 0.0;
    /** True when a StopToken ended the run before the budget did. */
    bool cancelled = false;
    /**
     * Non-empty when the repetition died with an exception instead of
     * finishing: the what() of the error, captured by runMany so one
     * failing run never takes the fleet down. A failed result carries
     * no best mapping and is skipped by every aggregate.
     */
    std::string error;

    /** True when this repetition failed (see error). */
    bool failed() const { return !error.empty(); }

    /** Best-so-far value at step @p s (step-function interpolation). */
    double bestAtStep(int64_t s) const;

    /** Best-so-far value at virtual time @p t. */
    double bestAtVirtualTime(double t) const;
};

/** Per-step virtual latencies, calibrated to the paper (Section 5.4.2). */
struct TimingModel
{
    double surrogateStepSec = 0.0625; ///< MM: 62.5 s / 1000 steps
    double saStepSec = 9.60;          ///< 153.7x slower than MM
    double gaStepSec = 17.93;         ///< 286.8x
    double rlStepSec = 26.59;         ///< 425.5x
    double randomStepSec = 9.60;      ///< one reference-model query

    static TimingModel paperCalibrated() { return {}; }
};

/**
 * Cooperative cancellation flag. The owner (an orchestrator, a signal
 * handler, a future server endpoint) calls requestStop() from any
 * thread; the running searcher observes it at its next recorder check
 * and returns its valid best-so-far result. Checking never consumes
 * randomness, so un-stopped runs are bitwise unaffected.
 */
class StopToken
{
  public:
    StopToken() = default;
    StopToken(const StopToken &) = delete;
    StopToken &operator=(const StopToken &) = delete;

    void requestStop() { flag.store(true, std::memory_order_relaxed); }
    bool stopRequested() const
    {
        return flag.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> flag{false};
};

/** Snapshot handed to SearchObserver callbacks. */
struct SearchProgress
{
    int64_t steps = 0;
    double virtualSec = 0.0;
    double wallSec = 0.0;
    double bestNormEdp = std::numeric_limits<double>::infinity();
    /** Best mapping so far; null until the first improvement. */
    const Mapping *best = nullptr;
};

/**
 * Callbacks streamed out of a running search. Invoked synchronously on
 * the searching thread; implementations must be cheap (they sit on the
 * step path) and, when one observer instance is shared across
 * concurrently running searches, thread-safe.
 */
class SearchObserver
{
  public:
    virtual ~SearchObserver() = default;

    /** The best-so-far true normalized EDP just improved. */
    virtual void onImprovement(const SearchProgress &) {}

    /** Periodic heartbeat every SearchContext::progressEvery steps. */
    virtual void onProgress(const SearchProgress &) {}
};

/**
 * Everything one search run executes against: the budget, the RNG
 * stream, and the optional observer / cancellation hooks. The rng
 * pointer is required; observer and stop may stay null.
 */
struct SearchContext
{
    SearchBudget budget;
    Rng *rng = nullptr;
    SearchObserver *observer = nullptr;
    StopToken *stop = nullptr;
    /** Steps between SearchObserver::onProgress calls (0 = off). */
    int64_t progressEvery = 0;
    /**
     * Materialize the best-so-far trace vector in the result. Streaming
     * consumers (the serve frontend) take improvements through the
     * observer instead and switch this off so long runs hold no
     * per-improvement state; bestNormEdp/best are unaffected.
     */
    bool collectTrace = true;
};

/**
 * How a SearchRecorder::record() call charges the virtual clock.
 * PerCandidate: one step latency per candidate, the sequential
 * searchers' unit. Shared: one latency for the whole call, for P
 * concurrent chains whose proposals the surrogate scores as one batch.
 * Either way the step counter advances once per candidate — a step
 * remains one cost-function query, the paper's iteration unit.
 */
enum class Latency
{
    PerCandidate,
    Shared,
};

/**
 * Budget/trace bookkeeping shared by all searcher implementations.
 *
 * record() is the one place a cost-function query is charged: it scores
 * the candidates a searcher proposed with one batched cost-model call,
 * charges virtual time, maintains the best-so-far trace, drives the
 * observer callbacks, and watches the wall clock and the stop token.
 * step() is its one-candidate form. The wall timer starts at
 * construction, so wall budgets cover a searcher's setup work too.
 */
class SearchRecorder
{
  public:
    SearchRecorder(const CostModel &model, const SearchContext &ctx,
                   double stepLatencySec);

    /** Observer-less convenience used by tests and simple callers. */
    SearchRecorder(const CostModel &model, const SearchBudget &budget,
                   double stepLatencySec);

    /**
     * True when the budget (steps, virtual or wall seconds) is
     * exhausted or a stop was requested.
     */
    bool exhausted() const;

    /**
     * Charge a block of proposed @p candidates, in order, and write the
     * true normalized EDP of each charged one to @p norms (which
     * baselines are entitled to see — it is their cost-function query;
     * Mind Mappings ignores it). Returns the number charged, a prefix
     * of the block; the tail is dropped unseen.
     *
     * PerCandidate: the prefix the deterministic budgets admit (see
     * plannedSteps) is scored in one batch and charged one candidate
     * at a time until exhausted() — a block reproduces a loop of
     * one-candidate calls bitwise. Shared: one latency for the call,
     * truncated only at maxSteps so an iso-iteration count is exact.
     * An already exhausted budget returns 0 and charges nothing.
     */
    size_t record(std::span<const Mapping *const> candidates,
                  std::span<double> norms,
                  Latency latency = Latency::PerCandidate);

    /**
     * record() of the single @p candidate; returns its true normalized
     * EDP. The deterministic budgets must not be exhausted. A wall or
     * stop exhaustion racing the caller's check (or the scoring itself)
     * charges nothing and returns +infinity, which callers must not
     * learn from.
     */
    double step(const Mapping &candidate);

    /**
     * Largest block size <= @p maxBlock such that that many
     * one-candidate steps are guaranteed not to overrun the
     * deterministic budgets (steps / virtual time), found by replaying
     * the virtual clock's exact accumulation. Searchers that must size
     * an RNG draw before proposing use it, so a block of draws consumes
     * RNG exactly as the same number of sequential steps would.
     * Returns 0 when already exhausted; wall-clock/stop-token
     * exhaustion may still end a run mid-block, exactly as it may
     * between sequential steps.
     */
    int64_t plannedSteps(int64_t maxBlock) const;

    int64_t steps() const { return stepCount; }
    double virtualSec() const { return virtualClock; }
    double bestNormEdp() const { return best; }
    double wallSec() const { return timer.elapsedSec(); }

    /** Finalize into a result tagged with @p method. */
    SearchResult finish(std::string method) const;

  private:
    void recordProbe(const Mapping &candidate, double norm);
    SearchProgress progressNow() const;

    const CostModel *model;
    SearchBudget budget;
    SearchObserver *observer = nullptr;
    StopToken *stop = nullptr;
    int64_t progressEvery = 0;
    bool collectTrace = true;
    double stepLatency;
    WallTimer timer;
    int64_t stepCount = 0;
    double virtualClock = 0.0;
    double best = std::numeric_limits<double>::infinity();
    Mapping bestMapping;
    std::vector<TracePoint> trace;
};

/** Interface for every mapping-space search method. */
class Searcher
{
  public:
    virtual ~Searcher() = default;

    /** Short method tag ("MM", "SA", "GA", "RL", "Random"). */
    virtual std::string name() const = 0;

    /** Execute one independent search run under @p ctx. */
    virtual SearchResult run(SearchContext &ctx) = 0;

    /** Convenience wrapper: budget + RNG, no observer, no stop. */
    SearchResult
    run(const SearchBudget &budget, Rng &rng)
    {
        SearchContext ctx;
        ctx.budget = budget;
        ctx.rng = &rng;
        return run(ctx);
    }
};

} // namespace mm
