#include "costmodel/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "bound/bounds.hpp"
#include "common/parallel_context.hpp"
#include "nn/trainer.hpp"

namespace mm {

namespace {

/**
 * Mappings evaluated per descriptor block. Fixed (not tunable) so batch
 * results never depend on configuration, and equal to the trainer's
 * gather chunk so the evaluation and training pipelines agree on one
 * blocking unit.
 */
constexpr size_t kCostEvalChunk = 16;
static_assert(kCostEvalChunk == kGatherChunkRows,
              "evaluation chunk must match the trainer's gather chunk");

/**
 * Per-thread descriptor scratch: chunk after chunk reuses one block's
 * storage, and pool threads each get their own (no sharing, no locks).
 */
thread_local DescriptorBlock tlsBlock;

/**
 * Chunked batch driver: lower then evaluate kCostEvalChunk mappings at
 * a time, fanning chunks out over @p par when provided. mappingAt(i)
 * yields the i-th mapping; emit(i, raw) consumes its result. Chunks are
 * independent and every index is written exactly once, so results are
 * identical (bitwise) at any lane count.
 */
template <typename MappingAt, typename Emit>
void
runBatch(const CostTables &tables, size_t n, const MappingAt &mappingAt,
         const Emit &emit, ParallelContext *par)
{
    if (n == 0)
        return;
    const size_t chunks = (n + kCostEvalChunk - 1) / kCostEvalChunk;
    auto runChunk = [&](size_t c) {
        const size_t begin = c * kCostEvalChunk;
        const size_t end = std::min(n, begin + kCostEvalChunk);
        DescriptorBlock &block = tlsBlock;
        block.ensure(tables, end - begin);
        for (size_t i = begin; i < end; ++i)
            lowerMapping(tables, mappingAt(i), block, i - begin);
        RawCost raw;
        for (size_t i = begin; i < end; ++i) {
            evalDescriptor(tables, block, i - begin, raw);
            emit(i, raw);
        }
    };
    if (par != nullptr)
        par->parallelFor(chunks, runChunk);
    else
        for (size_t c = 0; c < chunks; ++c)
            runChunk(c);
}

/** Copy a RawCost into a (capacity-reusing) CostResult. */
void
rawToResult(const RawCost &raw, CostResult &res)
{
    const size_t tensors = raw.tensors;
    res.access.resize(tensors);
    res.energyPj.resize(tensors);
    for (size_t t = 0; t < tensors; ++t) {
        for (int lvl = 0; lvl < kNumMemLevels; ++lvl) {
            res.access[t][size_t(lvl)].reads = raw.reads[t][size_t(lvl)];
            res.access[t][size_t(lvl)].writes = raw.writes[t][size_t(lvl)];
            res.energyPj[t][size_t(lvl)] = raw.energyPj[t][size_t(lvl)];
        }
    }
    res.nocWords = raw.nocWords;
    res.paddedMacs = raw.paddedMacs;
    res.actualMacs = raw.actualMacs;
    res.macEnergyPj = raw.macEnergyPj;
    res.nocEnergyPj = raw.nocEnergyPj;
    res.totalEnergyPj = raw.totalEnergyPj;
    res.computeCycles = raw.computeCycles;
    for (int lvl = 0; lvl < kNumMemLevels; ++lvl)
        res.bandwidthCycles[size_t(lvl)] = raw.bandwidthCycles[size_t(lvl)];
    res.cycles = raw.cycles;
    res.utilization = raw.utilization;
}

} // namespace

size_t
CostResult::metaStatCount(size_t tensorCount)
{
    return tensorCount * size_t(kNumMemLevels) + 3;
}

std::vector<double>
CostResult::metaStats() const
{
    std::vector<double> stats;
    metaStats(stats);
    return stats;
}

void
CostResult::metaStats(std::vector<double> &out) const
{
    out.clear();
    out.reserve(metaStatCount(energyPj.size()));
    for (const auto &perLevel : energyPj)
        for (double e : perLevel)
            out.push_back(e);
    out.push_back(totalEnergyPj);
    out.push_back(utilization);
    out.push_back(cycles);
}

CostModel::CostModel(const MapSpace &space) : mapSpace(&space)
{
    const PartialBound whole = BoundTables(space).wholeProblem();
    bound.energyPj = whole.energyPj;
    bound.cycles = whole.cycles;
    tables.build(space);
    tables.boundEdp = bound.edp();
}

CostResult
CostModel::evaluate(const Mapping &m) const
{
    CostResult res;
    evaluate(m, res);
    return res;
}

void
CostModel::evaluate(const Mapping &m, CostResult &out) const
{
    DescriptorBlock &block = tlsBlock;
    block.ensure(tables, 1);
    lowerMapping(tables, m, block, 0);
    RawCost raw;
    evalDescriptor(tables, block, 0, raw);
    rawToResult(raw, out);
}

void
CostModel::evaluateBatch(std::span<const Mapping> mappings,
                         std::span<CostResult> results,
                         ParallelContext *par) const
{
    MM_ASSERT(mappings.size() == results.size(),
              "evaluateBatch spans must have equal length");
    runBatch(
        tables, mappings.size(),
        [&](size_t i) -> const Mapping & { return mappings[i]; },
        [&](size_t i, const RawCost &raw) { rawToResult(raw, results[i]); },
        par);
}

void
CostModel::evaluateBatch(std::span<const Mapping *const> mappings,
                         std::span<CostResult *const> results,
                         ParallelContext *par) const
{
    MM_ASSERT(mappings.size() == results.size(),
              "evaluateBatch spans must have equal length");
    runBatch(
        tables, mappings.size(),
        [&](size_t i) -> const Mapping & { return *mappings[i]; },
        [&](size_t i, const RawCost &raw) { rawToResult(raw, *results[i]); },
        par);
}

void
CostModel::edpBatch(std::span<const Mapping> mappings,
                    std::span<double> out, ParallelContext *par) const
{
    MM_ASSERT(mappings.size() == out.size(),
              "edpBatch spans must have equal length");
    runBatch(
        tables, mappings.size(),
        [&](size_t i) -> const Mapping & { return mappings[i]; },
        [&](size_t i, const RawCost &raw) { out[i] = raw.edp(); }, par);
}

void
CostModel::edpBatch(std::span<const Mapping *const> mappings,
                    std::span<double> out, ParallelContext *par) const
{
    MM_ASSERT(mappings.size() == out.size(),
              "edpBatch spans must have equal length");
    runBatch(
        tables, mappings.size(),
        [&](size_t i) -> const Mapping & { return *mappings[i]; },
        [&](size_t i, const RawCost &raw) { out[i] = raw.edp(); }, par);
}

void
CostModel::normalizedEdpBatch(std::span<const Mapping> mappings,
                              std::span<double> out,
                              ParallelContext *par) const
{
    MM_ASSERT(mappings.size() == out.size(),
              "normalizedEdpBatch spans must have equal length");
    runBatch(
        tables, mappings.size(),
        [&](size_t i) -> const Mapping & { return mappings[i]; },
        [&](size_t i, const RawCost &raw) {
            out[i] = raw.edp() / tables.boundEdp;
        },
        par);
}

void
CostModel::normalizedEdpBatch(std::span<const Mapping *const> mappings,
                              std::span<double> out,
                              ParallelContext *par) const
{
    MM_ASSERT(mappings.size() == out.size(),
              "normalizedEdpBatch spans must have equal length");
    runBatch(
        tables, mappings.size(),
        [&](size_t i) -> const Mapping & { return *mappings[i]; },
        [&](size_t i, const RawCost &raw) {
            out[i] = raw.edp() / tables.boundEdp;
        },
        par);
}

double
CostModel::edp(const Mapping &m) const
{
    double out = 0.0;
    edpBatch(std::span<const Mapping>(&m, 1), std::span<double>(&out, 1));
    return out;
}

double
CostModel::normalizedEdp(const Mapping &m) const
{
    return edp(m) / bound.edp();
}

} // namespace mm
