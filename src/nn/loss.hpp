/**
 * @file
 * Regression losses (Section 5.5: MSE, MAE, Huber).
 *
 * The paper trains the surrogate with Huber loss after finding MSE too
 * outlier-sensitive and MAE too flat (Figure 7b); all three are provided
 * so the ablation bench can reproduce that comparison.
 */
#pragma once

#include <cstdint>
#include <string>

#include "tensor/matrix.hpp"

namespace mm {

/** Supported regression losses. */
enum class LossKind : uint8_t { MSE = 0, MAE = 1, Huber = 2 };

/**
 * Mean loss over all elements; fills @p grad with dLoss/dPred (same
 * normalization).
 *
 * @param huberDelta Transition point between quadratic and linear regime
 *                   (only used for Huber).
 */
double lossForward(LossKind kind, const Matrix &pred, const Matrix &target,
                   double huberDelta, Matrix &grad);

/** Loss value only (no gradient). */
double lossValue(LossKind kind, const Matrix &pred, const Matrix &target,
                 double huberDelta);

/**
 * Elements [begin, end) (row-major) of lossForward()'s elementwise
 * pass: values[i] = element i's loss and, when @p grad is non-null
 * (already shaped like @p pred), its element i = dLoss/dPred over all
 * of pred's elements. Disjoint ranges write disjoint elements, so they
 * may run on different threads.
 */
void lossElements(LossKind kind, const Matrix &pred, const Matrix &target,
                  double huberDelta, size_t begin, size_t end,
                  double *values, Matrix *grad);

/**
 * The mean of @p n element losses, summed serially in element order:
 * lossForward()'s reduction, bitwise.
 */
double lossMean(const double *values, size_t n);

/** Parse "mse" / "mae" / "huber". */
LossKind lossFromName(const std::string &name);

/** Inverse of lossFromName. */
const char *lossName(LossKind kind);

} // namespace mm
