/**
 * @file
 * Wire protocol of the serve frontend: newline-delimited JSON, one
 * document per line, requests flowing client -> server and a stream of
 * tagged events flowing back.
 *
 * Request (one line):
 *
 *   {"id":"r1","arch":"paper","algo":"cnn","problem":"vgg-2",
 *    "bounds":[64,128,64,112,112,3,3],"method":"MM-P:chains=4",
 *    "steps":1000,"runs":3,"seed":42,"progressEvery":100,"trace":false}
 *
 * Responses, each tagged with "type" and the request's "id":
 *
 *   accepted  — admitted to the queue
 *   rejected  — admission control refused (queue full, bad request)
 *   progress  — streamed heartbeat / improvement ("event" field)
 *   result    — terminal success, carries the full MultiRunResult
 *   error     — terminal failure, carries the message
 *
 * Doubles that must survive bit-exactly (normalized EDP, virtual time)
 * travel as hexfloat strings; see serve/json.hpp. A request's search
 * outcome is therefore byte-comparable with an offline runMany of the
 * same spec and seed.
 *
 * Framing: each line leaves as one send() of the document plus its
 * '\n', and both ends set TCP_NODELAY, so a small event is never held
 * back waiting for the peer's delayed ACK.
 *
 * Decoding: parseRequest and mappingFromJson read the compact
 * JsonValue (serve/json.hpp) through its checked accessors only. A
 * field of the wrong kind reads as empty or zero, so a malformed or
 * hostile document is refused, never misread. A parsed `result` line
 * costs about five times its wire size in heap, almost all of it the
 * mapping's integers at 16 bytes each, so clients can keep replies.
 */
#pragma once

#include <optional>
#include <string>

#include "search/orchestrator.hpp"
#include "serve/json.hpp"
#include "workload/algorithm.hpp"
#include "workload/problem.hpp"

namespace mm::serve {

/** Hard cap on one wire line in either direction. A peer that streams
 * past this without a newline is dropped rather than buffered — no
 * legitimate request or event comes close. */
inline constexpr size_t kMaxLineBytes = size_t(1) << 20;

/** Most repetitions one request may ask for (each run pre-allocates a
 * streaming sink and a result slot). */
inline constexpr int64_t kMaxRuns = 1024;

/** One parsed, validated search request. */
struct ServeRequest
{
    std::string id;
    std::string arch = "paper";     ///< "paper" | "tiny"
    std::string algo = "cnn";       ///< "conv1d" | "cnn" | "mttkrp"
    std::string problemName = "served";
    std::vector<int64_t> bounds;    ///< per-dimension loop bounds
    std::string method = "MM";      ///< registry spec, e.g. "MM-P:chains=4"
    int64_t steps = 0;              ///< 0 = no step bound
    double virtualSec = 0.0;        ///< 0 = no virtual-time bound
    double wallSec = 0.0;           ///< 0 = server default cap only
    int runs = 1;
    uint64_t seed = 1;
    int64_t progressEvery = 0;      ///< 0 = no heartbeat
    bool trace = false;             ///< materialize + return full traces
};

/**
 * Parse and validate one request line. Returns nullopt and fills
 * @p error with a client-presentable message on any malformed field.
 */
std::optional<ServeRequest> parseRequest(const std::string &line,
                                         std::string *error);

/** Accelerator preset by name; nullopt for unknown names. */
std::optional<AcceleratorSpec> resolveArch(const std::string &name);

/** Algorithm preset by name; null for unknown names. */
const AlgorithmSpec *resolveAlgo(const std::string &name);

/**
 * Budget from the request's bounds intersected with the server-side
 * wall cap (@p maxWallSec, <= 0 for none): the tightest of each wins.
 */
SearchBudget budgetFor(const ServeRequest &req, double maxWallSec);

/** Canonical JSON of a mapping (integers only — bit-exact by nature). */
std::string mappingToJson(const Mapping &m);

/** Inverse of mappingToJson; nullopt on a malformed document. */
std::optional<Mapping> mappingFromJson(const JsonValue &v);

/** Canonical JSON of one repetition's result. */
std::string searchResultToJson(const SearchResult &r, bool includeTrace);

/** Response lines (no trailing newline; the writer appends it). */
std::string makeAccepted(const std::string &id);
std::string makeRejected(const std::string &id, const std::string &reason);
std::string makeError(const std::string &id, const std::string &message);
std::string makeProgress(const std::string &id, const char *event, int run,
                         const SearchProgress &p);
std::string makeResult(const std::string &id, const MultiRunResult &r,
                       bool includeTrace);

} // namespace mm::serve
