/**
 * @file
 * The differentiable surrogate f* (Section 4.1).
 *
 * Wraps the trained MLP with the feature conditioning (see
 * core/feature_transform.hpp) and the input/output whitening, and
 * exposes the two operations Phase 2 needs:
 *   - predict the (lower-bound-)normalized EDP of an encoded mapping,
 *   - the gradient of log(predicted EDP) with respect to the normalized
 *     input features — the approximate gradients that guide the search.
 *
 * The network regresses the log of every lower-bound-normalized
 * meta-statistic (Section 4.1.3), so predicted log-EDP is simply the
 * sum of the de-whitened total-energy and total-cycles heads, and its
 * gradient with respect to those heads is constant — the backward pass
 * through the MLP does all the work.
 *
 * The network is frozen on construction (Mlp::freeze): its weights are
 * packed for the GEMM once, copies of the surrogate share those packed
 * panels, and gradient queries form input gradients only — no weight
 * gradient is ever computed or touched.
 */
#pragma once

#include <iosfwd>
#include <optional>
#include <span>

#include "arch/accelerator.hpp"
#include "core/feature_transform.hpp"
#include "core/normalizer.hpp"
#include "nn/mlp.hpp"

namespace mm {

/** Trained surrogate: MLP + conditioning + whitening + layout. */
class Surrogate
{
  public:
    /**
     * @param net         Trained MLP (moved in).
     * @param transform   Feature conditioning used during training.
     * @param inputNorm   Feature z-scorer fitted on the training set.
     * @param outputNorm  Target z-scorer fitted on the training set.
     * @param tensorCount Tensors of the target algorithm (fixes the
     *                    meta-statistics layout). Pass 0 for direct-EDP
     *                    ablation models (single log-EDP output).
     */
    Surrogate(Mlp net, FeatureTransform transform, Normalizer inputNorm,
              Normalizer outputNorm, size_t tensorCount);

    size_t featureCount() const { return inputNorm.dim(); }
    size_t outputCount() const { return outputNorm.dim(); }
    bool isMetaStatModel() const { return tensors > 0; }

    /** Raw codec features -> conditioned, z-scored network inputs. */
    std::vector<double> normalizeInput(std::span<const double> raw) const;

    /** normalizeInput() into @p out (may be @p raw itself);
     * allocation-free. */
    void normalizeInputInto(std::span<const double> raw,
                            std::span<double> out) const;

    /** Inverse of normalizeInput. */
    std::vector<double> denormalizeInput(std::span<const double> z) const;

    /** denormalizeInput() into @p out (may be @p z itself);
     * allocation-free. */
    void denormalizeInputInto(std::span<const double> z,
                              std::span<double> out) const;

    /**
     * Predicted EDP normalized by the problem's algorithmic minimum,
     * from z-scored features.
     */
    double predictNormEdp(std::span<const double> zFeatures);

    /**
     * Gradient of log(predicted normalized EDP) with respect to the
     * z-scored features. Returns the predicted normalized EDP.
     */
    double gradient(std::span<const double> zFeatures,
                    std::vector<double> &gradOut);

    /**
     * Batched prediction: one z-scored feature row per candidate, one
     * MLP forward for the whole batch. Every row's arithmetic is
     * independent and identically ordered, so results are bitwise equal
     * to the per-sample path.
     */
    std::vector<double> predictNormEdpBatch(const Matrix &zRows);

    /** predictNormEdpBatch() into @p predsOut (no allocation at
     * capacity). */
    void predictNormEdpBatch(const Matrix &zRows,
                             std::vector<double> &predsOut);

    /**
     * Batched gradient of log(predicted normalized EDP): one row per
     * candidate, one MLP forward and input-gradient pass for the whole
     * batch. Fills @p predsOut with each row's predicted normalized EDP
     * and returns the per-row input gradients as a reference to an
     * internal workspace, valid until the next surrogate call.
     */
    const Matrix &gradientBatch(const Matrix &zRows,
                                std::vector<double> &predsOut);

    /**
     * Predicted lower-bound-normalized meta-statistics (de-whitened,
     * de-logged; diagnostics and tests).
     */
    std::vector<double> predictMetaStats(std::span<const double> zFeatures);

    /**
     * Run the MLP's GEMMs on @p ctx's pool (nullptr = serial; results
     * are bitwise identical at any lane count). The context must
     * outlive the surrogate or be reset before it is destroyed.
     */
    void setParallel(ParallelContext *ctx) { mlp.setParallel(ctx); }

    /** The trained network, frozen for inference (Mlp::freeze). */
    const Mlp &net() const { return mlp; }
    const Normalizer &inputNormalizer() const { return inputNorm; }
    const Normalizer &outputNormalizer() const { return outputNorm; }
    const FeatureTransform &featureTransform() const { return transform; }

    /**
     * Serialize as a magic/version/size-framed, checksummed blob, so
     * torn or corrupted files are detectable on load.
     */
    void save(std::ostream &os) const;

    /**
     * Deserialize a file image written by save() (e.g. a MappedFile).
     * The envelope (magic, version, size footer, checksum) is verified
     * over @p bytes in place first; a truncated, corrupt or
     * wrong-version image returns std::nullopt instead of deserializing
     * garbage. The weights deserialize straight out of @p bytes — no
     * stream buffer or body-string copies.
     */
    static std::optional<Surrogate> tryLoad(std::span<const char> bytes);

  private:
    /** Fill the batch-1 workspace from one z-scored feature row. */
    void packInputRow(std::span<const double> zFeatures);

    /** Forward the MLP on one z-scored feature row. */
    const Matrix &forwardOne(std::span<const double> zFeatures);

    /** De-whitened predicted normalized EDP of row @p r of @p out. */
    double headEdp(const Matrix &out, size_t r) const;

    /** Output indices of total energy / cycles in the meta layout. */
    size_t totalEnergyIdx() const { return tensors * size_t(kNumMemLevels); }
    size_t cyclesIdx() const { return totalEnergyIdx() + 2; }

    Mlp mlp;
    FeatureTransform transform;
    Normalizer inputNorm;
    Normalizer outputNorm;
    size_t tensors;
    Matrix inputRow;  ///< batch-1 workspace
    Matrix headGrad;  ///< dL/d(output) workspace
};

} // namespace mm
