/**
 * @file
 * Bench-harness tests: every BENCH_*.json header carries the provenance
 * a committed number needs before it can be compared with another.
 */
#include <gtest/gtest.h>

#include "bench/bench_util.hpp"
#include "serve/json.hpp"
#include "tensor/gemm.hpp"

namespace mm::bench {
namespace {

using serve::JsonValue;

TEST(BenchJsonHeader, RecordsScaleAndProvenance)
{
    BenchEnv env;
    std::string err;
    std::optional<JsonValue> header =
        serve::parseJson(benchJsonHeader("probe", env).str(), &err);
    ASSERT_TRUE(header.has_value()) << err;
    EXPECT_EQ(header->getStr("bench", ""), "probe");

    for (const char *key :
         {"preset", "runs", "iters", "vtime", "wall", "seed", "chains",
          "threads", "train_threads", "run_threads"})
        EXPECT_NE(header->find(key), nullptr) << key;

    // Provenance: strings that may say "unknown" (a source tree outside
    // git) but are never missing or empty where the build knows them.
    for (const char *key :
         {"git_sha", "compiler", "build_type", "cpu_model", "gemm_path"}) {
        const JsonValue *v = header->find(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_TRUE(v->isString()) << key;
    }
    for (const char *key : {"git_sha", "compiler"})
        EXPECT_FALSE(header->getStr(key, "").empty()) << key;
    const std::string gemmPath = header->getStr("gemm_path", "");
    EXPECT_TRUE(gemmPath == "avx512" || gemmPath == "avx2"
                || gemmPath == "portable" || gemmPath == "native")
        << gemmPath;
    EXPECT_EQ(gemmPath, gemmIsaPath());
    const JsonValue *flags = header->find("cxx_flags");
    ASSERT_NE(flags, nullptr);
    EXPECT_TRUE(flags->isString());
    EXPECT_GE(header->getInt("nproc", 0), 1);

    const JsonValue *cpu = header->find("cpu_flags");
    ASSERT_NE(cpu, nullptr);
    for (const char *isa : {"avx2", "avx512f", "fma"}) {
        const JsonValue *v = cpu->find(isa);
        ASSERT_NE(v, nullptr) << isa;
        EXPECT_TRUE(v->isBool()) << isa;
    }
}

TEST(BenchJsonObject, EscapesEveryControlByte)
{
    // A carriage return or other control byte in a value (a cxx_flags
    // string, an MM_METHODS entry) must not reach the file raw: strict
    // JSON parsers reject it.
    const std::string value = "a\rb\x01" "c"; // \x01c would be one escape
    const std::string text = JsonObject().set("k\r", value).str();
    for (char c : text)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << text;

    std::string err;
    std::optional<JsonValue> parsed = serve::parseJson(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(parsed->getStr("k\r", ""), value);
}

} // namespace
} // namespace mm::bench
