/**
 * @file
 * Shared infrastructure for the figure/table bench harnesses.
 *
 * Every bench binary reproduces one table or figure of the paper's
 * evaluation (see DESIGN.md, "Per-experiment index"). Binaries print
 * aligned tables with machine-readable csv blocks, answer `--list`
 * (fig5/fig6) with the registered searchers and their option schemas,
 * and scale through environment knobs:
 *
 *   MM_RUNS           independent search repetitions per point (def. 3;
 *                     the paper uses 100)
 *   MM_ITERS          iso-iteration step budget (def. 1000)
 *   MM_VTIME          iso-time virtual horizon in seconds (def. 3000)
 *   MM_WALL           iso-wall-clock budget in *real* seconds per run
 *                     (fig6; def. 0.25, 0 disables the wall-clock table)
 *   MM_SEED           base seed for all repetitions (def. 0 = the
 *                     historical per-problem seeds); recorded in every
 *                     BENCH_*.json blob
 *   MM_METHODS        comma-separated registry keys (e.g. "MM,SA")
 *                     restricting which methods fig5/fig6 run
 *   MM_RUN_THREADS    concurrent repetitions per method (def. 1 =
 *                     serial; results are bitwise thread-invariant)
 *   MM_TRAIN_SAMPLES  Phase-1 dataset size override
 *   MM_EPOCHS         Phase-1 epoch override
 *   MM_PRESET         fast (default) | paper
 *   MM_CACHE_DIR      surrogate cache location (def. ./mm_cache)
 *   MM_NO_CACHE       1 disables the cache
 *   MM_STREAM_DIR     non-empty: run Phase 1 out-of-core, streaming
 *                     labeled shards through this directory
 *   MM_SHARD_ROWS     rows per dataset shard
 *   MM_SHUFFLE_WINDOW shuffle-window rows (0 = global shuffle)
 *   MM_SHARD_CACHE    decoded shards the streamed trainer caches
 *                     (def. 8)
 *   MM_NO_MMAP        1 forces stream-read fallbacks instead of mmap
 *                     for shard and surrogate-cache loads
 *   MM_EVAL_BATCH     samples per batched labeling block in Phase 1
 *                     (def. 4096; dataset bytes are identical at any
 *                     value — this only trades peak block memory
 *                     against CostModel::evaluateBatch amortization)
 *   MM_EVAL_THREADS   lanes for costmodel_perf's threaded rows (def. 1,
 *                     0 = hardware concurrency)
 *   MM_EVAL_N         mappings per shape in costmodel_perf (def. 4096)
 *   MM_EVAL_SECS      target seconds per costmodel_perf measurement
 *                     (def. 0.2)
 *   MM_BB_NODES       branch-and-bound node cap for the optimality
 *                     certificates in fig5/fig6 and for bound_perf
 *                     (def. 2000; the certificate stays valid at any
 *                     cap, it is just looser when the run is cut short)
 *
 * Searchers are constructed through the library's SearcherRegistry
 * (search/registry.hpp) and repeated through runMany
 * (search/orchestrator.hpp); the env knobs above only decide which
 * specs and budgets the benches hand to those APIs.
 *
 * Phase-1 surrogates are provisioned once per algorithm through the
 * MindMappings facade and shared across benches via the disk cache.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/mind_mappings.hpp"
#include "search/ddpg.hpp"
#include "search/orchestrator.hpp"
#include "search/registry.hpp"

namespace mm::bench {

/** Env-derived bench scale. */
struct BenchEnv
{
    int runs = int(envInt("MM_RUNS", 3));
    int64_t iters = envInt("MM_ITERS", 2000);
    double vtime = envDouble("MM_VTIME", 3000.0);
    /** Iso-wall-clock budget in real seconds (0 disables fig6's table). */
    double wallSecs = envDouble("MM_WALL", 0.25);
    /** Base seed; 0 keeps the historical per-problem seeding. */
    uint64_t seed = uint64_t(envSize("MM_SEED", 0));
    /** Comma-separated registry keys filtering fig5/fig6 methods. */
    std::string methods = envStr("MM_METHODS", "");
    /** Concurrent repetitions per method (1 = serial). */
    int runThreads = int(envInt("MM_RUN_THREADS", 1));
    /** Restart chains of the parallel Phase-2 driver ("MM-P" method). */
    int chains = int(envInt("MM_CHAINS", 4));
    /** Fork-join lanes for MM-P; 0 = hardware concurrency. */
    int threads = int(envInt("MM_THREADS", 0));
    /** Phase-1 lanes (dataset labeling + training GEMMs); 0 = hw. */
    int trainThreads = int(envInt("MM_TRAIN_THREADS", 0));
    bool paperPreset = envStr("MM_PRESET", "fast") == "paper";
    /** Non-empty runs Phase 1 out-of-core through this directory. */
    std::string streamDir = envStr("MM_STREAM_DIR", "");
    /** Node cap of the certificate branch-and-bound runs. */
    int64_t bbNodes = envInt("MM_BB_NODES", 2000);
};

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** The method names of Section 5.2, in the paper's order. */
const std::vector<std::string> &methodNames();

/**
 * The methods a bench should run: the paper's list (plus "MM-P" when
 * @p includeParallel), or the MM_METHODS subset when set. Unknown keys
 * raise FatalError naming the registered ones.
 */
std::vector<std::string> activeMethods(const BenchEnv &env,
                                       bool includeParallel);

/**
 * Registry spec for @p method with the bench env's options applied
 * ("MM-P" gets chains/threads, "RL" the preset-sized net).
 */
std::string methodSpec(const std::string &method, const BenchEnv &env);

/**
 * Handle shared bench CLI flags; returns true when the invocation was
 * fully served (e.g. `--list` printed the registered searchers and
 * their option schemas) and the bench should exit successfully.
 */
bool handleBenchArgs(int argc, char **argv);

/** Phase-1 options used by all benches (preset + env overrides). */
MindMappingsOptions benchOptions(const BenchEnv &env);

/**
 * Train-or-load the shared surrogate for @p algo, reporting progress to
 * stderr. Returned facade owns the surrogate.
 */
std::unique_ptr<MindMappings> provisionSurrogate(const AlgorithmSpec &algo,
                                                 const BenchEnv &env);

/** DDPG configuration sized for the bench environment. */
DdpgConfig benchDdpgConfig(const BenchEnv &env);

/** Geomean of best-so-far values at a step checkpoint across runs. */
double geomeanAtStep(const std::vector<SearchResult> &runs, int64_t step);

/** Geomean of best-so-far values at a virtual-time checkpoint. */
double geomeanAtTime(const std::vector<SearchResult> &runs, double sec);

/** Geomean of final best values across runs. */
double geomeanFinal(const std::vector<SearchResult> &runs);

/**
 * Run @p method on @p model for env.runs independent repetitions, with
 * per-run seeds derived from @p baseSeed (shifted by MM_SEED when set)
 * and MM_RUN_THREADS repetitions in flight at a time.
 */
std::vector<SearchResult>
runMethod(const std::string &method, const CostModel &model,
          Surrogate *surrogate, const SearchBudget &budget,
          const BenchEnv &env, uint64_t baseSeed);

/** Standard header line announcing a bench. */
void banner(const std::string &title, const std::string &paperRef);

// ---------------------------------------------------------------------------
// Machine-readable perf trajectory: every bench can drop a
// BENCH_<name>.json next to its table output so successive PRs have
// numbers to compare against (see README "Performance").
// ---------------------------------------------------------------------------

/** Insertion-ordered JSON object builder (values pre-serialized). */
class JsonObject
{
  public:
    JsonObject &set(const std::string &key, const std::string &v);
    JsonObject &set(const std::string &key, const char *v);
    /** Non-finite doubles serialize as null. */
    JsonObject &set(const std::string &key, double v);
    JsonObject &set(const std::string &key, int64_t v);
    JsonObject &
    set(const std::string &key, int v)
    {
        return set(key, int64_t(v));
    }
    /** Attach an already-serialized JSON value (object/array). */
    JsonObject &setRaw(const std::string &key, std::string rawJson);
    std::string str() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields;
};

/** JSON array of pre-serialized values. */
class JsonArray
{
  public:
    JsonArray &add(const JsonObject &obj);
    JsonArray &addRaw(std::string rawJson);
    std::string str() const;

  private:
    std::vector<std::string> items;
};

/**
 * An object pre-filled with the bench name, the shared scale knobs
 * (preset, runs, iters, seed, threads, chains) and the provenance a
 * number needs to be compared: git_sha (HEAD when CMake last
 * configured, "unknown" outside a git checkout), compiler, build_type,
 * cxx_flags, cpu_model, nproc, cpu_flags (avx2/avx512f/fma) and
 * gemm_path, the GEMM kernel set this host dispatches to
 * (gemmIsaPath()).
 */
JsonObject benchJsonHeader(const std::string &bench, const BenchEnv &env);

/**
 * Write BENCH_<name>.json into MM_BENCH_JSON_DIR (default "."); returns
 * the path written.
 */
std::string writeBenchJson(const std::string &name, const JsonObject &obj);

} // namespace mm::bench
