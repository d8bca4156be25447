#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace mm {

namespace {

/** One element's loss value and gradient. */
inline double
lossElem(LossKind kind, float e, float delta, float &g)
{
    switch (kind) {
      case LossKind::MSE:
        g = e;
        return 0.5 * double(e) * double(e);
      case LossKind::MAE:
        g = e > 0.0f ? 1.0f : (e < 0.0f ? -1.0f : 0.0f);
        return std::fabs(double(e));
      case LossKind::Huber:
        if (std::fabs(e) <= delta) {
            g = e;
            return 0.5 * double(e) * double(e);
        }
        g = e > 0.0f ? delta : -delta;
        return double(delta) * (std::fabs(double(e)) - 0.5 * double(delta));
    }
    g = 0.0f;
    return 0.0;
}

/** Shared walk; grad may be null for value-only queries. */
double
lossImpl(LossKind kind, const Matrix &pred, const Matrix &target,
         double huberDelta, Matrix *grad)
{
    if (grad != nullptr)
        grad->resize(pred.rows(), pred.cols());
    thread_local std::vector<double> values;
    values.resize(pred.size());
    lossElements(kind, pred, target, huberDelta, 0, pred.size(),
                 values.data(), grad);
    return lossMean(values.data(), values.size());
}

} // namespace

double
lossForward(LossKind kind, const Matrix &pred, const Matrix &target,
            double huberDelta, Matrix &grad)
{
    return lossImpl(kind, pred, target, huberDelta, &grad);
}

double
lossValue(LossKind kind, const Matrix &pred, const Matrix &target,
          double huberDelta)
{
    return lossImpl(kind, pred, target, huberDelta, nullptr);
}

void
lossElements(LossKind kind, const Matrix &pred, const Matrix &target,
             double huberDelta, size_t begin, size_t end, double *values,
             Matrix *grad)
{
    MM_ASSERT(pred.rows() == target.rows() && pred.cols() == target.cols(),
              "loss shape mismatch");
    MM_ASSERT(pred.size() > 0, "loss over empty matrix");
    MM_ASSERT(grad == nullptr || grad->size() == pred.size(),
              "loss gradient shape mismatch");
    MM_ASSERT(begin <= end && end <= pred.size(), "loss element range");
    const double inv = 1.0 / double(pred.size());
    const float delta = float(huberDelta);
    for (size_t i = begin; i < end; ++i) {
        float e = pred.data()[i] - target.data()[i];
        float g = 0.0f;
        values[i] = lossElem(kind, e, delta, g);
        if (grad != nullptr)
            grad->data()[i] = float(double(g) * inv);
    }
}

double
lossMean(const double *values, size_t n)
{
    double total = 0.0;
    for (size_t i = 0; i < n; ++i)
        total += values[i];
    return total * (1.0 / double(n));
}

LossKind
lossFromName(const std::string &name)
{
    if (name == "mse")
        return LossKind::MSE;
    if (name == "mae")
        return LossKind::MAE;
    if (name == "huber")
        return LossKind::Huber;
    fatal("unknown loss: " + name);
}

const char *
lossName(LossKind kind)
{
    switch (kind) {
      case LossKind::MSE:
        return "mse";
      case LossKind::MAE:
        return "mae";
      case LossKind::Huber:
        return "huber";
    }
    return "?";
}

} // namespace mm
