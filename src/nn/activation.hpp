/**
 * @file
 * Pointwise activation functions.
 *
 * Derivatives are computed from the activation *output*, which every
 * supported function permits; this halves the caching a layer must do.
 */
#pragma once

#include <cstdint>

#include "tensor/matrix.hpp"

namespace mm {

/** Supported pointwise nonlinearities. */
enum class Activation : uint8_t { Identity = 0, ReLU = 1, Tanh = 2 };

/** Apply @p act elementwise in place. */
void applyActivation(Activation act, Matrix &m);

/**
 * Rows [r0, r1) of grad <- grad * act'(out), with act' expressed
 * through the cached activation output @p out.
 */
void applyActivationGrad(Activation act, const Matrix &out, Matrix &grad,
                         size_t r0, size_t r1);

/**
 * Epilogue of a dense forward: m[r][c] = act(m[r][c] + bias[0][c]) for
 * rows [r0, r1), in a single pass (one memory sweep instead of a bias
 * pass plus an activation pass).
 */
void applyBiasActivation(Activation act, const Matrix &bias, Matrix &m,
                         size_t r0, size_t r1);

/** Human-readable name (serialization and diagnostics). */
const char *activationName(Activation act);

} // namespace mm
