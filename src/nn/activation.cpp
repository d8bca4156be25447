#include "nn/activation.hpp"

#include <cmath>

namespace mm {

void
applyActivation(Activation act, Matrix &m)
{
    float *p = m.data();
    switch (act) {
      case Activation::Identity:
        return;
      case Activation::ReLU:
        for (size_t i = 0; i < m.size(); ++i)
            p[i] = p[i] > 0.0f ? p[i] : 0.0f;
        return;
      case Activation::Tanh:
        for (size_t i = 0; i < m.size(); ++i)
            p[i] = std::tanh(p[i]);
        return;
    }
    MM_ASSERT(false, "unknown activation");
}

namespace {

/** Entry guard for the row helpers: their per-row switches have no
 * room for a trailing assert, so reject unknown enum values up front
 * instead of silently skipping the bias/activation work. */
void
assertKnownActivation(Activation act)
{
    MM_ASSERT(act == Activation::Identity || act == Activation::ReLU
                  || act == Activation::Tanh,
              "unknown activation");
}

} // namespace

void
applyActivationGrad(Activation act, const Matrix &out, Matrix &grad,
                    size_t r0, size_t r1)
{
    assertKnownActivation(act);
    MM_ASSERT(out.rows() == grad.rows() && out.cols() == grad.cols(),
              "activation grad shape mismatch");
    MM_ASSERT(r0 <= r1 && r1 <= out.rows(), "activation row range");
    const float *o = out.data() + r0 * out.cols();
    float *g = grad.data() + r0 * out.cols();
    const size_t n = (r1 - r0) * out.cols();
    switch (act) {
      case Activation::Identity:
        return;
      case Activation::ReLU:
        for (size_t i = 0; i < n; ++i)
            g[i] = o[i] > 0.0f ? g[i] : 0.0f;
        return;
      case Activation::Tanh:
        for (size_t i = 0; i < n; ++i)
            g[i] *= 1.0f - o[i] * o[i];
        return;
    }
}

void
applyBiasActivation(Activation act, const Matrix &bias, Matrix &m,
                    size_t r0, size_t r1)
{
    assertKnownActivation(act);
    MM_ASSERT(bias.rows() == 1 && bias.cols() == m.cols(),
              "bias shape mismatch");
    MM_ASSERT(r0 <= r1 && r1 <= m.rows(), "activation row range");
    const float *bp = bias.data();
    const size_t cols = m.cols();
    for (size_t r = r0; r < r1; ++r) {
        float *row = m.data() + r * cols;
        switch (act) {
          case Activation::Identity:
            for (size_t c = 0; c < cols; ++c)
                row[c] += bp[c];
            break;
          case Activation::ReLU:
            for (size_t c = 0; c < cols; ++c) {
                const float z = row[c] + bp[c];
                row[c] = z > 0.0f ? z : 0.0f;
            }
            break;
          case Activation::Tanh:
            for (size_t c = 0; c < cols; ++c)
                row[c] = std::tanh(row[c] + bp[c]);
            break;
        }
    }
}

const char *
activationName(Activation act)
{
    switch (act) {
      case Activation::Identity:
        return "identity";
      case Activation::ReLU:
        return "relu";
      case Activation::Tanh:
        return "tanh";
    }
    return "?";
}

} // namespace mm
