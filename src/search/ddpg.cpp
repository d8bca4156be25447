#include "search/ddpg.hpp"

#include <algorithm>
#include <cmath>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "search/registry.hpp"

namespace mm {

namespace {

/**
 * Maps codec features (minus the constant pid segment) into [0, 1] and
 * back: factors on a log scale, order ranks and bank counts linearly.
 */
class FeatureScaler
{
  public:
    FeatureScaler(const MapSpace &space, const MappingCodec &codec)
        : space(&space), codec(&codec)
    {
        // Per-state-entry scale: the max value each feature can take.
        const auto &bounds = space.problem().bounds;
        const size_t rank = space.rank();
        for (size_t l = 0; l < size_t(kNumMemLevels); ++l)
            for (size_t d = 0; d < rank; ++d)
                logMax.push_back(std::log2(double(2 * bounds[d])));
        for (size_t d = 0; d < rank; ++d)
            logMax.push_back(std::log2(double(2 * bounds[d])));
    }

    size_t stateDim() const { return codec->featureCount() - codec->pidCount(); }

    /** features (with pid) -> normalized state (without pid). */
    std::vector<double>
    scale(const std::vector<double> &features) const
    {
        const size_t rank = space->rank();
        std::vector<double> s;
        s.reserve(stateDim());
        size_t li = 0;
        for (size_t i = 0; i < codec->tilingCount() + codec->spatialCount();
             ++i, ++li) {
            double f = features[codec->tilingOffset() + i];
            double denom = std::max(logMax[li], 1e-9);
            s.push_back(std::log2(std::max(f, 1.0)) / denom);
        }
        for (size_t i = 0; i < codec->orderCount(); ++i) {
            double denom = std::max(double(rank) - 1.0, 1.0);
            s.push_back(features[codec->orderOffset() + i] / denom);
        }
        for (size_t l = 0; l < size_t(kNumOnChipLevels); ++l) {
            double banks = double(space->arch().levels[l].banks);
            for (size_t t = 0; t < space->tensorCount(); ++t)
                s.push_back(features[codec->allocOffset()
                                     + l * space->tensorCount() + t]
                            / banks);
        }
        MM_ASSERT(s.size() == stateDim(), "scaler arity bug");
        return s;
    }

    /** normalized state -> features (pid restored from the problem). */
    std::vector<double>
    unscale(const std::vector<double> &state) const
    {
        const size_t rank = space->rank();
        std::vector<double> f(codec->featureCount(), 0.0);
        for (size_t d = 0; d < rank; ++d)
            f[codec->pidOffset() + d] =
                double(space->problem().bounds[d]);
        size_t li = 0;
        size_t si = 0;
        for (size_t i = 0; i < codec->tilingCount() + codec->spatialCount();
             ++i, ++li, ++si) {
            double clamped = std::clamp(state[si], 0.0, 1.0);
            f[codec->tilingOffset() + i] =
                std::exp2(clamped * logMax[li]);
        }
        for (size_t i = 0; i < codec->orderCount(); ++i, ++si)
            f[codec->orderOffset() + i] =
                state[si] * std::max(double(rank) - 1.0, 1.0);
        for (size_t l = 0; l < size_t(kNumOnChipLevels); ++l) {
            double banks = double(space->arch().levels[l].banks);
            for (size_t t = 0; t < space->tensorCount(); ++t, ++si)
                f[codec->allocOffset() + l * space->tensorCount() + t] =
                    std::clamp(state[si], 0.0, 1.0) * banks;
        }
        return f;
    }

  private:
    const MapSpace *space;
    const MappingCodec *codec;
    std::vector<double> logMax;
};

/** One replay transition. */
struct Transition
{
    std::vector<float> state;
    std::vector<float> action;
    float reward;
    std::vector<float> nextState;
    bool terminal;
};

std::vector<float>
toFloat(const std::vector<double> &v)
{
    std::vector<float> out(v.size());
    for (size_t i = 0; i < v.size(); ++i)
        out[i] = float(v[i]);
    return out;
}

} // namespace

DdpgSearcher::DdpgSearcher(const CostModel &model_, DdpgConfig cfg_,
                           const TimingModel &timing)
    : model(&model_), cfg(cfg_), stepLatency(timing.rlStepSec)
{}

SearchResult
DdpgSearcher::run(SearchContext &ctx)
{
    // Constructed first so wall-clock budgets cover the net setup too.
    SearchRecorder rec(*model, ctx, stepLatency);
    Rng &rng = *ctx.rng;
    const MapSpace &space = model->space();
    MappingCodec codec(space);
    FeatureScaler scaler(space, codec);
    const size_t sDim = scaler.stateDim();
    const size_t aDim = sDim;

    Mlp actor(sDim,
              {{size_t(cfg.hiddenWidth), Activation::ReLU},
               {size_t(cfg.hiddenWidth), Activation::ReLU},
               {aDim, Activation::Tanh}},
              rng);
    Mlp critic(sDim + aDim,
               {{size_t(cfg.hiddenWidth), Activation::ReLU},
                {size_t(cfg.hiddenWidth), Activation::ReLU},
                {1, Activation::Identity}},
               rng);
    Mlp actorTarget = actor;
    Mlp criticTarget = critic;

    AdamOptimizer actorOpt(cfg.actorLr);
    actorOpt.attach(actor.params(), actor.grads());
    AdamOptimizer criticOpt(cfg.criticLr);
    criticOpt.attach(critic.params(), critic.grads());

    std::vector<Transition> replay;
    replay.reserve(cfg.replayCapacity);
    size_t replayHead = 0;

    double noise = cfg.noiseStd;

    Mapping current = space.randomValid(rng);
    std::vector<double> state = scaler.scale(codec.encode(current));
    int episodeStep = 0;

    Matrix actorIn(1, sDim);

    // One environment action for `state`, where @p stepIdx is the
    // pre-step charged-query count (warmup exploration is counted in
    // charged steps, not episodes).
    auto drawAction = [&](int64_t stepIdx, std::vector<double> &action) {
        if (stepIdx < cfg.warmupSteps) {
            for (auto &a : action)
                a = rng.uniformReal(-1.0, 1.0);
        } else {
            for (size_t i = 0; i < sDim; ++i)
                actorIn(0, i) = float(state[i]);
            const Matrix &out = actor.forward(actorIn);
            for (size_t i = 0; i < aDim; ++i)
                action[i] = std::clamp(
                    double(out(0, i)) + rng.gaussian(0.0, noise), -1.0,
                    1.0);
            noise = std::max(noise * cfg.noiseDecay, cfg.noiseMin);
        }
    };

    auto pushTransition = [&](Transition tr) {
        if (replay.size() < cfg.replayCapacity) {
            replay.push_back(std::move(tr));
        } else {
            replay[replayHead] = std::move(tr);
            replayHead = (replayHead + 1) % cfg.replayCapacity;
        }
    };

    // Learn predicate against the *post-step* charged-query count.
    auto canLearnNow = [&] {
        return replay.size() >= cfg.batchSize
               && rec.steps() >= cfg.warmupSteps
               && rec.steps() % cfg.updateEvery == 0;
    };

    auto learn = [&] {
        const size_t b = cfg.batchSize;
        Matrix s(b, sDim), a(b, aDim), s2(b, sDim);
        std::vector<float> r(b);
        std::vector<float> notDone(b);
        for (size_t i = 0; i < b; ++i) {
            const Transition &t = replay[size_t(
                rng.uniformInt(0, int64_t(replay.size()) - 1))];
            std::copy(t.state.begin(), t.state.end(), s.row(i).begin());
            std::copy(t.action.begin(), t.action.end(),
                      a.row(i).begin());
            std::copy(t.nextState.begin(), t.nextState.end(),
                      s2.row(i).begin());
            r[i] = t.reward;
            notDone[i] = t.terminal ? 0.0f : 1.0f;
        }

        // Critic target: y = r + gamma * (1-done) * Qt(s2, At(s2)).
        const Matrix &a2 = actorTarget.forward(s2);
        Matrix x2(b, sDim + aDim);
        for (size_t i = 0; i < b; ++i) {
            std::copy(s2.row(i).begin(), s2.row(i).end(),
                      x2.row(i).begin());
            std::copy(a2.row(i).begin(), a2.row(i).end(),
                      x2.row(i).begin() + long(sDim));
        }
        const Matrix &q2 = criticTarget.forward(x2);
        Matrix y(b, 1);
        for (size_t i = 0; i < b; ++i)
            y(i, 0) = r[i] + float(cfg.gamma) * notDone[i] * q2(i, 0);

        // Critic regression step.
        Matrix x(b, sDim + aDim);
        for (size_t i = 0; i < b; ++i) {
            std::copy(s.row(i).begin(), s.row(i).end(), x.row(i).begin());
            std::copy(a.row(i).begin(), a.row(i).end(),
                      x.row(i).begin() + long(sDim));
        }
        const Matrix &q = critic.forward(x);
        Matrix dq(b, 1);
        for (size_t i = 0; i < b; ++i)
            dq(i, 0) = (q(i, 0) - y(i, 0)) / float(b);
        critic.zeroGrad();
        critic.backwardInPlace(dq);
        criticOpt.step();

        // Actor step: ascend Q(s, actor(s)) through the critic's input
        // gradient.
        const Matrix &aPred = actor.forward(s);
        Matrix xa(b, sDim + aDim);
        for (size_t i = 0; i < b; ++i) {
            std::copy(s.row(i).begin(), s.row(i).end(),
                      xa.row(i).begin());
            std::copy(aPred.row(i).begin(), aPred.row(i).end(),
                      xa.row(i).begin() + long(sDim));
        }
        critic.forward(xa);
        Matrix dOut(b, 1);
        dOut.fill(-1.0f / float(b));
        const Matrix &dx = critic.inputGradient(dOut);
        Matrix da(b, aDim);
        for (size_t i = 0; i < b; ++i)
            std::copy(dx.row(i).begin() + long(sDim), dx.row(i).end(),
                      da.row(i).begin());
        actor.zeroGrad();
        actor.backwardInPlace(da);
        actorOpt.step();

        actorTarget.softUpdateFrom(actor, float(cfg.tau));
        criticTarget.softUpdateFrom(critic, float(cfg.tau));
    };

    if (cfg.stepBlock <= 1) {
        // Reference per-step loop: one scalar cost query per
        // environment step. Kept selectable (RL:block=1) so the
        // batched path below can be pinned bitwise against it.
        while (!rec.exhausted()) {
            std::vector<double> action(aDim, 0.0);
            drawAction(rec.steps(), action);

            // --- Environment transition.
            std::vector<double> nextStateRaw(sDim);
            for (size_t i = 0; i < sDim; ++i)
                nextStateRaw[i] = std::clamp(
                    state[i] + cfg.actionScale * action[i], 0.0, 1.0);
            Mapping next = codec.decode(scaler.unscale(nextStateRaw));
            double normEdp = rec.step(next);
            // A wall or stop exhaustion that raced the loop check
            // charged nothing and returned +inf: the run is over, and
            // its -inf reward must not reach the replay buffer.
            if (!std::isfinite(normEdp))
                break;
            float reward = float(-std::log10(std::max(normEdp, 1e-12)));

            // Re-encode the *projected* mapping so the stored next
            // state is consistent with where the environment actually
            // landed.
            std::vector<double> nextState =
                scaler.scale(codec.encode(next));
            ++episodeStep;
            bool terminal = episodeStep >= cfg.episodeLength;

            pushTransition({toFloat(state), toFloat(action), reward,
                            toFloat(nextState), terminal});

            if (terminal) {
                current = space.randomValid(rng);
                state = scaler.scale(codec.encode(current));
                episodeStep = 0;
            } else {
                current = std::move(next);
                state = std::move(nextState);
            }

            if (canLearnNow())
                learn();
        }
        return rec.finish(name());
    }

    // Batched loop. Action drawing is the only RNG consumer between
    // cost queries, and the next state is a pure function of the
    // current one, so a run of steps can be rolled forward and charged
    // with a single record() call — as long as the block never crosses
    // a point where the sequential loop would have drawn RNG out of
    // order (an episode-terminal reset) or changed the actor's weights
    // (a learn step). nextBoundary() caps blocks at exactly those
    // points, which keeps the stream bitwise identical to the per-step
    // loop above.
    auto nextBoundary = [&]() -> int64_t {
        int64_t bound = std::min<int64_t>(
            cfg.stepBlock, int64_t(cfg.episodeLength) - episodeStep);
        const int64_t s0 = rec.steps();
        for (int64_t k = 1; k < bound; ++k) {
            const size_t replayAt = std::min(replay.size() + size_t(k),
                                             cfg.replayCapacity);
            const int64_t post = s0 + k;
            if (replayAt >= cfg.batchSize && post >= cfg.warmupSteps
                && post % cfg.updateEvery == 0) {
                bound = k;
                break;
            }
        }
        return bound;
    };

    std::vector<Mapping> block;
    std::vector<const Mapping *> blockPtrs;
    std::vector<double> norms;
    std::vector<std::vector<float>> blockStates;
    std::vector<std::vector<float>> blockActions;
    std::vector<std::vector<float>> blockNextStates;
    std::vector<double> action(aDim, 0.0);
    while (!rec.exhausted()) {
        const int64_t plan = rec.plannedSteps(nextBoundary());
        if (plan == 0)
            break;

        // --- Roll the environment forward without scoring.
        block.clear();
        blockStates.clear();
        blockActions.clear();
        blockNextStates.clear();
        for (int64_t k = 0; k < plan; ++k) {
            drawAction(rec.steps() + k, action);
            std::vector<double> nextStateRaw(sDim);
            for (size_t i = 0; i < sDim; ++i)
                nextStateRaw[i] = std::clamp(
                    state[i] + cfg.actionScale * action[i], 0.0, 1.0);
            Mapping next = codec.decode(scaler.unscale(nextStateRaw));
            std::vector<double> nextState =
                scaler.scale(codec.encode(next));
            blockStates.push_back(toFloat(state));
            blockActions.push_back(toFloat(action));
            blockNextStates.push_back(toFloat(nextState));
            block.push_back(std::move(next));
            // Mid-block steps are never terminal (blocks end at
            // episode boundaries), so the projected state simply
            // becomes the current state.
            state = std::move(nextState);
        }

        // --- Score and charge the whole block with one record() call.
        blockPtrs.clear();
        for (const Mapping &m : block)
            blockPtrs.push_back(&m);
        norms.resize(block.size());
        const size_t charged = rec.record(blockPtrs, norms);

        // --- Replay bookkeeping for the charged prefix. A wall-clock
        // budget or stop token may cut the block short; the dropped
        // tail matches the steps the sequential loop would never have
        // taken, and the run ends right after.
        for (size_t k = 0; k < charged; ++k) {
            const float reward =
                float(-std::log10(std::max(norms[k], 1e-12)));
            ++episodeStep;
            const bool terminal = episodeStep >= cfg.episodeLength;
            pushTransition({std::move(blockStates[k]),
                            std::move(blockActions[k]), reward,
                            std::move(blockNextStates[k]), terminal});
            if (terminal) {
                current = space.randomValid(rng);
                state = scaler.scale(codec.encode(current));
                episodeStep = 0;
            }
        }
        if (charged > 0 && canLearnNow())
            learn();
    }

    return rec.finish(name());
}

namespace {
const SearcherRegistrar registrar({
    "RL",
    "deep deterministic policy gradient over the map space "
    "(HAQ-derived setup, Appendix A)",
    /*needsSurrogate=*/false,
    {
        {"width", "hidden width of actor/critic (paper: 300)"},
        {"episode", "environment steps per episode"},
        {"replay", "replay buffer capacity"},
        {"batch", "replay minibatch size"},
        {"warmup", "random-exploration steps before learning"},
        {"updateEvery", "environment steps per gradient update"},
        {"block", "environment steps scored per batched cost-model "
                  "query (<= 1 = per-step reference loop)"},
    },
    [](const SearcherBuildContext &ctx, SearcherOptions &opt) {
        DdpgConfig cfg;
        cfg.hiddenWidth = opt.getInt("width", cfg.hiddenWidth);
        cfg.episodeLength = opt.getInt("episode", cfg.episodeLength);
        // Validate in the signed domain before the size_t conversion
        // can turn a negative option into a huge capacity.
        int64_t replay = opt.getInt("replay", int64_t(cfg.replayCapacity));
        int64_t batch = opt.getInt("batch", int64_t(cfg.batchSize));
        cfg.warmupSteps = opt.getInt("warmup", cfg.warmupSteps);
        cfg.updateEvery = opt.getInt("updateEvery", cfg.updateEvery);
        cfg.stepBlock = opt.getInt("block", cfg.stepBlock);
        if (cfg.hiddenWidth < 1 || cfg.episodeLength < 1 || batch < 1
            || replay < batch || cfg.warmupSteps < 0
            || cfg.updateEvery < 1)
            fatal("searcher 'RL': need width/episode/updateEvery >= 1, "
                  "batch >= 1, replay >= batch, warmup >= 0");
        cfg.replayCapacity = size_t(replay);
        cfg.batchSize = size_t(batch);
        return std::make_unique<DdpgSearcher>(ctx.model, cfg, ctx.timing);
    },
});
} // namespace

namespace detail {
extern const int ddpgSearcherRegistered;
const int ddpgSearcherRegistered = 1;
} // namespace detail

} // namespace mm
