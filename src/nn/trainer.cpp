#include "nn/trainer.hpp"

#include <algorithm>
#include <numeric>

namespace mm {

namespace {

/**
 * Per-epoch shuffle state. With one window this is exactly the
 * historical `rng.shuffle(idx)` (the window-order shuffle of a
 * single-element vector consumes zero draws, and the in-place row
 * shuffle is cumulative across epochs); with several windows, rows
 * stay within their window and only the visit order mixes globally,
 * so an out-of-core source touches one window's worth of shards at a
 * time.
 */
class WindowedShuffle
{
  public:
    WindowedShuffle(size_t rows, size_t windowRows) : n(rows)
    {
        window = (windowRows == 0 || windowRows >= n) ? n : windowRows;
        idx.resize(n);
        std::iota(idx.begin(), idx.end(), size_t(0));
        visit.resize((n + window - 1) / window);
        std::iota(visit.begin(), visit.end(), size_t(0));
    }

    /** Reshuffle for the next epoch; returns the epoch's index order. */
    const std::vector<size_t> &
    next(Rng &rng)
    {
        rng.shuffle(visit);
        for (size_t w : visit) {
            size_t lo = w * window;
            size_t hi = std::min(n, lo + window);
            rng.shuffle(std::span<size_t>(idx.data() + lo, hi - lo));
        }
        if (visit.size() == 1)
            return idx;
        epochIdx.clear();
        epochIdx.reserve(n);
        for (size_t w : visit) {
            size_t lo = w * window;
            size_t hi = std::min(n, lo + window);
            epochIdx.insert(epochIdx.end(), idx.begin() + long(lo),
                            idx.begin() + long(hi));
        }
        return epochIdx;
    }

  private:
    size_t n;
    size_t window;
    std::vector<size_t> idx;      ///< persistent, shuffled in place
    std::vector<size_t> visit;    ///< persistent window visit order
    std::vector<size_t> epochIdx; ///< materialized order (multi-window)
};

/**
 * The lanes a batch of @p rows splits across: below two gather chunks
 * a fork-join costs more than the rows, so the batch runs inline.
 */
ParallelContext *
batchLanes(ParallelContext *par, size_t rows)
{
    return rows >= 2 * kGatherChunkRows ? par : nullptr;
}

} // namespace

RegressionTrainer::RegressionTrainer(Mlp &net_, TrainConfig cfg_,
                                     ParallelContext *par_)
    : net(net_), cfg(cfg_), par(par_)
{
    MM_ASSERT(cfg.epochs > 0 && cfg.batchSize > 0, "bad train config");
}

std::vector<EpochReport>
RegressionTrainer::fit(BatchSource &train, BatchSource *test, Rng &rng,
                       const std::function<void(const EpochReport &)> &onEpoch)
{
    MM_ASSERT(train.rows() > 0, "empty training source");
    MM_ASSERT(train.xCols() == net.inputDim(), "X width != net input");
    MM_ASSERT(train.yCols() == net.outputDim(), "Y width != net output");

    SgdOptimizer opt(cfg.schedule.initial, cfg.momentum);
    opt.attach(net.params(), net.grads());

    WindowedShuffle shuffle(train.rows(), cfg.shuffleWindow);

    // Pre-size the batch workspaces once; the batch loop only ever
    // adjusts the row count (final partial batch), never reallocates.
    Matrix bx, by;
    bx.ensureShape(std::min(cfg.batchSize, train.rows()), train.xCols());
    by.ensureShape(std::min(cfg.batchSize, train.rows()), train.yCols());

    std::vector<EpochReport> reports;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        opt.setLr(cfg.schedule.at(epoch));
        const std::vector<size_t> &idx = shuffle.next(rng);

        double lossAcc = 0.0;
        size_t batches = 0;
        for (size_t begin = 0; begin < idx.size();
             begin += cfg.batchSize) {
            size_t count = std::min(cfg.batchSize, idx.size() - begin);
            train.gather(idx, begin, count, bx, by, par);
            lossAcc += net.trainStep(bx, by, cfg.loss, cfg.huberDelta,
                                     batchLanes(par, count));
            ++batches;
            opt.step();
        }

        EpochReport report;
        report.epoch = epoch;
        report.trainLoss = batches > 0 ? lossAcc / double(batches) : 0.0;
        report.testLoss =
            test != nullptr && test->rows() > 0
                ? evaluate(net, *test, cfg.loss, cfg.huberDelta, 256, par)
                : 0.0;
        report.lr = opt.lr();
        reports.push_back(report);
        if (onEpoch)
            onEpoch(report);
    }
    return reports;
}

double
RegressionTrainer::evaluate(Mlp &net, BatchSource &src, LossKind loss,
                            double huberDelta, size_t batchSize,
                            ParallelContext *par)
{
    if (src.rows() == 0)
        return 0.0;
    Matrix bx, by;
    double acc = 0.0;
    size_t total = 0;
    std::vector<size_t> idx(src.rows());
    std::iota(idx.begin(), idx.end(), size_t(0));
    for (size_t begin = 0; begin < idx.size(); begin += batchSize) {
        size_t count = std::min(batchSize, idx.size() - begin);
        src.gather(idx, begin, count, bx, by, par);
        const Matrix &pred = net.predict(bx, batchLanes(par, count));
        acc += lossValue(loss, pred, by, huberDelta) * double(count);
        total += count;
    }
    return acc / double(total);
}

} // namespace mm
