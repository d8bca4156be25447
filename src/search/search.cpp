#include "search/search.hpp"

#include <algorithm>

namespace mm {

namespace {

double
bestAt(const std::vector<TracePoint> &trace, double key,
       double TracePoint::*timeField, int64_t TracePoint::*stepField,
       bool byStep, int64_t stepKey)
{
    double best = std::numeric_limits<double>::infinity();
    for (const auto &pt : trace) {
        bool within = byStep ? (pt.*stepField <= stepKey)
                             : (pt.*timeField <= key);
        if (within)
            best = std::min(best, pt.bestNormEdp);
    }
    return best;
}

} // namespace

double
SearchResult::bestAtStep(int64_t s) const
{
    return bestAt(trace, 0.0, &TracePoint::virtualSec, &TracePoint::step,
                  true, s);
}

double
SearchResult::bestAtVirtualTime(double t) const
{
    return bestAt(trace, t, &TracePoint::virtualSec, &TracePoint::step,
                  false, 0);
}

SearchRecorder::SearchRecorder(const CostModel &model_,
                               const SearchContext &ctx,
                               double stepLatencySec)
    : model(&model_), budget(ctx.budget), observer(ctx.observer),
      stop(ctx.stop), progressEvery(ctx.progressEvery),
      collectTrace(ctx.collectTrace), stepLatency(stepLatencySec)
{
    MM_ASSERT(stepLatency >= 0.0, "negative step latency");
}

SearchRecorder::SearchRecorder(const CostModel &model_,
                               const SearchBudget &budget_,
                               double stepLatencySec)
    : model(&model_), budget(budget_), stepLatency(stepLatencySec)
{
    MM_ASSERT(stepLatency >= 0.0, "negative step latency");
}

bool
SearchRecorder::exhausted() const
{
    if (budget.done(stepCount, virtualClock))
        return true;
    if (stop != nullptr && stop->stopRequested())
        return true;
    // Only pay for a clock read when a wall budget is actually set.
    if (std::isfinite(budget.maxWallSec)
        && timer.elapsedSec() >= budget.maxWallSec)
        return true;
    return false;
}

SearchProgress
SearchRecorder::progressNow() const
{
    SearchProgress p;
    p.steps = stepCount;
    p.virtualSec = virtualClock;
    p.wallSec = timer.elapsedSec();
    p.bestNormEdp = best;
    // Infinity means no improvement was recorded yet; the trace cannot
    // stand in for that test because streaming runs never collect one.
    p.best = std::isfinite(best) ? &bestMapping : nullptr;
    return p;
}

void
SearchRecorder::recordProbe(const Mapping &candidate, double norm)
{
    if (norm < best) {
        best = norm;
        bestMapping = candidate;
        if (collectTrace)
            trace.push_back({stepCount, virtualClock, best});
        if (observer != nullptr)
            observer->onImprovement(progressNow());
    }
    if (observer != nullptr && progressEvery > 0
        && stepCount % progressEvery == 0)
        observer->onProgress(progressNow());
}

size_t
SearchRecorder::record(std::span<const Mapping *const> candidates,
                       std::span<double> norms, Latency latency)
{
    MM_ASSERT(candidates.size() == norms.size(),
              "record() spans must have equal length");
    if (exhausted())
        return 0;
    const int64_t n = int64_t(candidates.size());
    const size_t admitted = size_t(
        latency == Latency::Shared ? std::min(n, budget.maxSteps - stepCount)
                                   : plannedSteps(n));
    if (admitted == 0)
        return 0;
    model->normalizedEdpBatch(candidates.first(admitted),
                              norms.first(admitted));
    if (latency == Latency::Shared) {
        virtualClock += stepLatency;
        for (size_t i = 0; i < admitted; ++i) {
            ++stepCount;
            recordProbe(*candidates[i], norms[i]);
        }
        return admitted;
    }
    // Wall-clock or stop-token exhaustion (an observer may request the
    // stop from inside recordProbe) ends the block where a sequential
    // loop would have stopped proposing.
    size_t used = 0;
    while (used < admitted && !exhausted()) {
        ++stepCount;
        virtualClock += stepLatency;
        recordProbe(*candidates[used], norms[used]);
        ++used;
    }
    return used;
}

double
SearchRecorder::step(const Mapping &candidate)
{
    // The deterministic budgets are hard preconditions; wall-clock or
    // stop-token exhaustion may race past the caller's exhausted()
    // check, and then nothing is charged. That includes a stop landing
    // while the candidate is scored: its value is dropped with it.
    MM_ASSERT(!budget.done(stepCount, virtualClock),
              "step() called after budget exhaustion");
    const Mapping *one = &candidate;
    double norm = std::numeric_limits<double>::infinity();
    const size_t charged = record(std::span<const Mapping *const>(&one, 1),
                                  std::span<double>(&norm, 1));
    return charged == 1 ? norm : std::numeric_limits<double>::infinity();
}

int64_t
SearchRecorder::plannedSteps(int64_t maxBlock) const
{
    // Replay the per-candidate accumulation bitwise: the virtual clock
    // is a running double sum, so a closed-form division could disagree
    // with it at the boundary; the loop cannot.
    int64_t planned = 0;
    int64_t steps = stepCount;
    double clock = virtualClock;
    while (planned < maxBlock && !budget.done(steps, clock)) {
        ++steps;
        clock += stepLatency;
        ++planned;
    }
    return planned;
}

SearchResult
SearchRecorder::finish(std::string method) const
{
    SearchResult result;
    result.method = std::move(method);
    result.best = bestMapping;
    result.bestNormEdp = best;
    result.trace = trace;
    result.steps = stepCount;
    result.virtualSec = virtualClock;
    result.wallSec = timer.elapsedSec();
    result.cancelled = stop != nullptr && stop->stopRequested();
    // Guarantee a terminal point so time/step interpolation saturates.
    // Streaming (collectTrace == false) results stay trace-free.
    if (collectTrace
        && (result.trace.empty() || result.trace.back().step != stepCount))
        result.trace.push_back({stepCount, virtualClock, best});
    return result;
}

} // namespace mm
