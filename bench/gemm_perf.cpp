/**
 * @file
 * GEMM backend throughput: blocked+packed kernel vs the scalar baseline.
 *
 * Measures the MLP-shaped sizes that dominate Phase-1 training and the
 * batched Phase-2 driver (the 128-row batch against the fast- and
 * paper-preset weight shapes), plus the Phase-2 query shapes: 1 and 4
 * rows through a layer's forward (x * W^T) and input-gradient (dZ * W)
 * products, with the weights packed on the fly vs prepacked once
 * (PackedB, the frozen surrogate's path), the small input layer also at
 * the 128-row training batch, and two transposed-A weight gradients:
 * the hidden layer's at the training batch (blocked) and one below the
 * blocked cutoff. Every kernel is verified
 * against gemmReference; results go to BENCH_gemm.json.
 *
 * Knobs: MM_GEMM_SECS (target seconds per measurement, default 0.25),
 * MM_THREADS (lanes for the threaded rows, 0 = hardware concurrency).
 */
#include <iostream>
#include <limits>

#include "bench/bench_util.hpp"
#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace mm;
using namespace mm::bench;

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = float(rng.uniformReal(-1.0, 1.0));
    return m;
}

struct Shape
{
    const char *name;
    size_t m, k, n;
};

using GemmFn = std::function<void(const Matrix &, const Matrix &, Matrix &)>;

/** Median-of-3 wall seconds per call, each sample >= targetSecs long. */
double
timeGemm(const GemmFn &fn, const Matrix &a, const Matrix &b, Matrix &c,
         double targetSecs)
{
    // Warm up and estimate a single-call cost.
    WallTimer probe;
    fn(a, b, c);
    double once = std::max(probe.elapsedSec(), 1e-7);
    const int reps = std::max(1, int(targetSecs / once));
    double best = std::numeric_limits<double>::infinity();
    for (int sample = 0; sample < 3; ++sample) {
        WallTimer timer;
        for (int r = 0; r < reps; ++r)
            fn(a, b, c);
        best = std::min(best, timer.elapsedSec() / double(reps));
    }
    return best;
}

} // namespace

int
main()
{
    BenchEnv env;
    banner("GEMM backend: blocked+packed+threaded vs scalar baseline",
           "perf infrastructure (ISSUE 2); MLP-shaped sizes");

    const double targetSecs = envDouble("MM_GEMM_SECS", 0.25);
    size_t lanes = env.threads <= 0 ? std::thread::hardware_concurrency()
                                    : size_t(env.threads);
    if (lanes == 0)
        lanes = 1;
    ThreadPool pool(lanes);

    const std::vector<Shape> shapes = {
        {"batch128_fast_hidden", 128, 128, 128},
        {"batch128_wide", 128, 512, 512},
        {"batch128_paper_hidden", 128, 2048, 2048},
    };

    Table table({"shape", "kernel", "threads", "ms/call", "gflops",
                 "speedup_vs_naive"});
    JsonArray series;
    Rng rng(42);
    for (const Shape &s : shapes) {
        Matrix a = randomMatrix(s.m, s.k, rng);
        Matrix b = randomMatrix(s.k, s.n, rng);
        Matrix c(s.m, s.n);
        const double flops = 2.0 * double(s.m) * double(s.k) * double(s.n);

        // Correctness gate before timing anything.
        Matrix ref(s.m, s.n);
        gemmReference(false, false, 1.0f, a, b, 0.0f, ref);
        gemm(false, false, 1.0f, a, b, 0.0f, c, &pool);
        double err = maxAbsDiff(c, ref);
        MM_ASSERT(err < 1e-2 * double(s.k),
                  strCat("blocked gemm mismatch on ", s.name));

        struct Variant
        {
            const char *kernel;
            int threads;
            GemmFn fn;
        };
        std::vector<Variant> variants = {
            {"naive", 1,
             [](const Matrix &a_, const Matrix &b_, Matrix &c_) {
                 gemmNaive(false, false, 1.0f, a_, b_, 0.0f, c_);
             }},
            {"blocked", 1,
             [](const Matrix &a_, const Matrix &b_, Matrix &c_) {
                 gemm(false, false, 1.0f, a_, b_, 0.0f, c_);
             }},
        };
        if (lanes > 1)
            variants.push_back(
                {"blocked", int(lanes),
                 [&pool](const Matrix &a_, const Matrix &b_, Matrix &c_) {
                     gemm(false, false, 1.0f, a_, b_, 0.0f, c_, &pool);
                 }});

        double naiveSec = 0.0;
        for (const Variant &v : variants) {
            double sec = timeGemm(v.fn, a, b, c, targetSecs);
            if (std::string(v.kernel) == "naive")
                naiveSec = sec;
            double speedup = naiveSec > 0.0 ? naiveSec / sec : 1.0;
            table.addRow({s.name, v.kernel, strCat(v.threads),
                          fmtDouble(sec * 1e3, 4),
                          fmtDouble(flops / sec * 1e-9, 3),
                          fmtDouble(speedup, 3)});
            JsonObject point;
            point.set("shape", s.name)
                .set("m", int64_t(s.m))
                .set("k", int64_t(s.k))
                .set("n", int64_t(s.n))
                .set("kernel", v.kernel)
                .set("threads", v.threads)
                .set("sec_per_call", sec)
                .set("gflops", flops / sec * 1e-9)
                .set("speedup_vs_naive", speedup);
            series.add(point);
            std::cerr << "[gemm] " << s.name << " " << v.kernel << " t="
                      << v.threads << " " << fmtDouble(flops / sec * 1e-9, 3)
                      << " GFLOP/s" << std::endl;
        }
    }

    // The Fast net's hidden-layer weight gradient at the training batch:
    // dW(128 x 128) = dZ^T * X over 128 rows, op(A) transposed, so the
    // blocked tier writes op(A) out before it runs. Its own Rng keeps
    // the later rows' inputs as they were.
    {
        Rng wrng(43);
        const size_t batch = 128, width = 128;
        Matrix dz = randomMatrix(batch, width, wrng);
        Matrix x = randomMatrix(batch, width, wrng);
        Matrix dw(width, width), ref(width, width);
        gemmReference(true, false, 1.0f, dz, x, 0.0f, ref);
        GemmFn fn = [](const Matrix &a_, const Matrix &b_, Matrix &c_) {
            gemm(true, false, 1.0f, a_, b_, 0.0f, c_);
        };
        fn(dz, x, dw);
        MM_ASSERT(maxAbsDiff(dw, ref) < 1e-4 * double(batch),
                  "gemm mismatch on the blocked weight gradient");
        const double sec = timeGemm(fn, dz, x, dw, targetSecs);
        const double flops = 2.0 * double(width * batch * width);
        table.addRow({"batch128_fast_hidden_weight_grad", "blocked", "1",
                      fmtDouble(sec * 1e3, 4),
                      fmtDouble(flops / sec * 1e-9, 3), "-"});
        JsonObject point;
        point.set("shape", "batch128_fast_hidden_weight_grad")
            .set("m", int64_t(width))
            .set("k", int64_t(batch))
            .set("n", int64_t(width))
            .setRaw("trans_a", "true")
            .setRaw("trans_b", "false")
            .set("kernel", "blocked")
            .set("threads", 1)
            .set("sec_per_call", sec)
            .set("gflops", flops / sec * 1e-9);
        series.add(point);
    }
    table.print(std::cout);

    // Phase-2 queries: a layer of `in` inputs and `out` outputs, its
    // weights W stored out x in as in DenseLayer. fast_input is below
    // the blocked cutoff at every row count, so it also runs the
    // training batch of 128 rows.
    struct Layer
    {
        const char *name;
        size_t in, out;
        std::vector<size_t> rows;
    };
    const std::vector<Layer> layers = {
        {"fast_input", 62, 64, {1, 4, 128}},
        {"fast_hidden", 128, 128, {1, 4}},
        {"paper_hidden", 2048, 2048, {1, 4}},
    };
    Table qtable({"layer", "rows", "op", "kernel", "us/call", "gflops",
                  "speedup_vs_on_the_fly"});
    auto record = [&](const char *layer, const char *op, const char *kernel,
                      size_t rows, size_t m, size_t k, size_t n, bool transA,
                      bool transB, double sec, double onTheFlySec) {
        const double flops = 2.0 * double(m * k * n);
        qtable.addRow({layer, strCat(rows), op, kernel,
                       fmtDouble(sec * 1e6, 3),
                       fmtDouble(flops / sec * 1e-9, 3),
                       fmtDouble(onTheFlySec / sec, 3)});
        JsonObject point;
        point.set("shape", strCat("phase2_", layer, "_", op))
            .set("m", int64_t(m))
            .set("k", int64_t(k))
            .set("n", int64_t(n))
            .setRaw("trans_a", transA ? "true" : "false")
            .setRaw("trans_b", transB ? "true" : "false")
            .set("kernel", kernel)
            .set("threads", 1)
            .set("sec_per_call", sec)
            .set("gflops", flops / sec * 1e-9)
            .set("speedup_vs_on_the_fly", onTheFlySec / sec);
        series.add(point);
    };
    for (const Layer &l : layers) {
        Matrix w = randomMatrix(l.out, l.in, rng);
        for (bool forward : {true, false}) {
            // forward: x(m x in) * W^T; input gradient: dZ(m x out) * W.
            const size_t k = forward ? l.in : l.out;
            const size_t n = forward ? l.out : l.in;
            const PackedB packed(w, forward);
            for (size_t m : l.rows) {
                Matrix a = randomMatrix(m, k, rng);
                Matrix c(m, n), ref(m, n);
                gemmReference(false, forward, 1.0f, a, w, 0.0f, ref);
                double onTheFlySec = 0.0;
                for (bool prepacked : {false, true}) {
                    GemmFn fn = [&](const Matrix &a_, const Matrix &w_,
                                    Matrix &c_) {
                        if (prepacked)
                            gemm(1.0f, a_, packed, 0.0f, c_);
                        else
                            gemm(false, forward, 1.0f, a_, w_, 0.0f, c_);
                    };
                    fn(a, w, c);
                    MM_ASSERT(maxAbsDiff(c, ref) < 1e-4 * double(k),
                              strCat("gemm mismatch on ", l.name));
                    const double sec = timeGemm(fn, a, w, c, targetSecs);
                    if (!prepacked)
                        onTheFlySec = sec;
                    record(l.name, forward ? "forward" : "input_grad",
                           prepacked ? "prepacked" : "on_the_fly", m, m, k,
                           n, false, forward, sec, onTheFlySec);
                }
            }
        }
    }

    // A weight gradient below the blocked cutoff: dW(out x in) =
    // dZ^T * X over a DDPG replay batch of 32 rows, op(A) transposed.
    {
        const size_t batch = 32, in = 62, out = 64;
        Matrix dz = randomMatrix(batch, out, rng);
        Matrix x = randomMatrix(batch, in, rng);
        Matrix dw(out, in), ref(out, in);
        gemmReference(true, false, 1.0f, dz, x, 0.0f, ref);
        GemmFn fn = [](const Matrix &a_, const Matrix &b_, Matrix &c_) {
            gemm(true, false, 1.0f, a_, b_, 0.0f, c_);
        };
        fn(dz, x, dw);
        MM_ASSERT(maxAbsDiff(dw, ref) < 1e-4 * double(batch),
                  "gemm mismatch on the weight gradient");
        const double sec = timeGemm(fn, dz, x, dw, targetSecs);
        record("fast_input", "weight_grad", "on_the_fly", batch, out, batch,
               in, true, false, sec, sec);
    }
    qtable.print(std::cout);

    JsonObject json = benchJsonHeader("gemm", env);
    json.set("lanes", int64_t(lanes)).setRaw("series", series.str());
    writeBenchJson("gemm", json);
    return 0;
}
