#include "serve/protocol.hpp"

#include <cmath>

#include "arch/accelerator.hpp"

namespace mm::serve {

namespace {

std::string
joinInts(const std::vector<int64_t> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            out.push_back(',');
        out += std::to_string(v[i]);
    }
    out.push_back(']');
    return out;
}

std::string
joinInts(const std::vector<int> &v)
{
    std::vector<int64_t> wide(v.begin(), v.end());
    return joinInts(wide);
}

} // namespace

std::optional<ServeRequest>
parseRequest(const std::string &line, std::string *error)
{
    std::string parseErr;
    std::optional<JsonValue> doc = parseJson(line, &parseErr);
    if (!doc.has_value()) {
        if (error != nullptr)
            *error = "malformed request: " + parseErr;
        return std::nullopt;
    }
    if (!doc->isObject()) {
        if (error != nullptr)
            *error = "request must be a JSON object";
        return std::nullopt;
    }

    ServeRequest req;
    req.id = doc->getStr("id", "");
    if (req.id.empty()) {
        if (error != nullptr)
            *error = "request needs a non-empty string \"id\"";
        return std::nullopt;
    }
    req.arch = doc->getStr("arch", req.arch);
    req.algo = doc->getStr("algo", req.algo);
    req.problemName = doc->getStr("problem", req.problemName);
    req.method = doc->getStr("method", req.method);
    req.steps = doc->getInt("steps", req.steps);
    req.virtualSec = doc->getDouble("virtualSec", req.virtualSec);
    req.wallSec = doc->getDouble("wallSec", req.wallSec);
    // Validate at full width BEFORE narrowing: int(2^32 + 1) would
    // silently truncate to 1 and sail past the range check.
    const int64_t runsRaw = doc->getInt("runs", req.runs);
    if (runsRaw < 1 || runsRaw > kMaxRuns) {
        if (error != nullptr)
            *error = "\"runs\" must be in [1, " + std::to_string(kMaxRuns)
                     + "]";
        return std::nullopt;
    }
    req.runs = int(runsRaw);
    // Seeds span all of uint64 (ServeClient sends any it is given);
    // anything else is refused rather than swapped for the default.
    if (const JsonValue *seed = doc->find("seed")) {
        std::optional<uint64_t> value = seed->asUint64();
        if (!value.has_value()) {
            if (error != nullptr)
                *error = "\"seed\" must be an integer in [0, 2^64)";
            return std::nullopt;
        }
        req.seed = *value;
    }
    req.progressEvery = doc->getInt("progressEvery", req.progressEvery);
    req.trace = doc->getBool("trace", req.trace);

    const JsonValue *bounds = doc->find("bounds");
    if (bounds == nullptr || !bounds->isArray() || bounds->array.empty()) {
        if (error != nullptr)
            *error = "request needs a non-empty integer array \"bounds\"";
        return std::nullopt;
    }
    for (const JsonValue &b : bounds->array) {
        if (!b.isInt() || b.integer() < 1) {
            if (error != nullptr)
                *error = "\"bounds\" entries must be integers >= 1";
            return std::nullopt;
        }
        req.bounds.push_back(b.integer());
    }

    if (!resolveArch(req.arch).has_value()) {
        if (error != nullptr)
            *error = "unknown arch '" + req.arch + "' (paper, tiny)";
        return std::nullopt;
    }
    const AlgorithmSpec *algo = resolveAlgo(req.algo);
    if (algo == nullptr) {
        if (error != nullptr)
            *error = "unknown algo '" + req.algo
                     + "' (conv1d, cnn, mttkrp)";
        return std::nullopt;
    }
    if (req.bounds.size() != algo->rank()) {
        if (error != nullptr)
            *error = "algo '" + req.algo + "' needs "
                     + std::to_string(algo->rank()) + " bounds, got "
                     + std::to_string(req.bounds.size());
        return std::nullopt;
    }
    if (req.steps < 0 || req.virtualSec < 0.0 || req.wallSec < 0.0
        || req.progressEvery < 0) {
        if (error != nullptr)
            *error = "budgets and progressEvery must be >= 0";
        return std::nullopt;
    }
    if (req.steps == 0 && req.virtualSec == 0.0 && req.wallSec == 0.0) {
        if (error != nullptr)
            *error = "request needs a budget: steps, virtualSec or "
                     "wallSec > 0";
        return std::nullopt;
    }
    return req;
}

std::optional<AcceleratorSpec>
resolveArch(const std::string &name)
{
    if (name == "paper")
        return AcceleratorSpec::paperDefault();
    if (name == "tiny")
        return AcceleratorSpec::tinyDefault();
    return std::nullopt;
}

const AlgorithmSpec *
resolveAlgo(const std::string &name)
{
    if (name == "conv1d")
        return &conv1dAlgo();
    if (name == "cnn")
        return &cnnLayerAlgo();
    if (name == "mttkrp")
        return &mttkrpAlgo();
    return nullptr;
}

SearchBudget
budgetFor(const ServeRequest &req, double maxWallSec)
{
    SearchBudget b;
    if (req.steps > 0)
        b.maxSteps = req.steps;
    if (req.virtualSec > 0.0)
        b.maxVirtualSec = req.virtualSec;
    if (req.wallSec > 0.0)
        b.maxWallSec = req.wallSec;
    if (maxWallSec > 0.0)
        b.maxWallSec = std::min(b.maxWallSec, maxWallSec);
    return b;
}

std::string
mappingToJson(const Mapping &m)
{
    std::string out = "{\"tiling\":[";
    for (size_t l = 0; l < m.tiling.size(); ++l) {
        if (l > 0)
            out.push_back(',');
        out += joinInts(m.tiling[l]);
    }
    out += "],\"spatial\":" + joinInts(m.spatial) + ",\"order\":[";
    for (size_t l = 0; l < m.loopOrder.size(); ++l) {
        if (l > 0)
            out.push_back(',');
        out += joinInts(m.loopOrder[l]);
    }
    out += "],\"alloc\":[";
    for (size_t l = 0; l < m.bufferAlloc.size(); ++l) {
        if (l > 0)
            out.push_back(',');
        out += joinInts(m.bufferAlloc[l]);
    }
    out += "]}";
    return out;
}

namespace {

template <typename Int>
bool
intVectorFromJson(const JsonValue &v, std::vector<Int> &out)
{
    if (!v.isArray())
        return false;
    out.clear();
    for (const JsonValue &e : v.array) {
        if (!e.isInt())
            return false;
        out.push_back(Int(e.integer()));
    }
    return true;
}

template <typename Int, size_t N>
bool
levelVectorsFromJson(const JsonValue *v,
                     std::array<std::vector<Int>, N> &out)
{
    if (v == nullptr || !v->isArray() || v->array.size() != N)
        return false;
    for (size_t l = 0; l < N; ++l)
        if (!intVectorFromJson(v->array[l], out[l]))
            return false;
    return true;
}

} // namespace

std::optional<Mapping>
mappingFromJson(const JsonValue &v)
{
    if (!v.isObject())
        return std::nullopt;
    Mapping m;
    const JsonValue *spatial = v.find("spatial");
    if (spatial == nullptr || !intVectorFromJson(*spatial, m.spatial))
        return std::nullopt;
    if (!levelVectorsFromJson(v.find("tiling"), m.tiling)
        || !levelVectorsFromJson(v.find("order"), m.loopOrder)
        || !levelVectorsFromJson(v.find("alloc"), m.bufferAlloc))
        return std::nullopt;
    return m;
}

std::string
searchResultToJson(const SearchResult &r, bool includeTrace)
{
    std::string out = "{\"method\":";
    out += jsonQuote(r.method);
    out += ",\"steps\":";
    out += std::to_string(r.steps);
    out += ",\"bestNormEdp\":";
    out += jsonHexDouble(r.bestNormEdp);
    out += ",\"virtualSec\":";
    out += jsonHexDouble(r.virtualSec);
    out += ",\"cancelled\":";
    out += r.cancelled ? "true" : "false";
    if (r.failed())
        out += ",\"error\":" + jsonQuote(r.error);
    else if (std::isfinite(r.bestNormEdp))
        out += ",\"best\":" + mappingToJson(r.best);
    if (includeTrace && !r.failed()) {
        out += ",\"trace\":[";
        for (size_t i = 0; i < r.trace.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            out.push_back('[');
            out += std::to_string(r.trace[i].step);
            out.push_back(',');
            out += jsonHexDouble(r.trace[i].virtualSec);
            out.push_back(',');
            out += jsonHexDouble(r.trace[i].bestNormEdp);
            out.push_back(']');
        }
        out += "]";
    }
    out.push_back('}');
    return out;
}

std::string
makeAccepted(const std::string &id)
{
    return "{\"type\":\"accepted\",\"id\":" + jsonQuote(id) + "}";
}

std::string
makeRejected(const std::string &id, const std::string &reason)
{
    return "{\"type\":\"rejected\",\"id\":" + jsonQuote(id)
           + ",\"reason\":" + jsonQuote(reason) + "}";
}

std::string
makeError(const std::string &id, const std::string &message)
{
    return "{\"type\":\"error\",\"id\":" + jsonQuote(id)
           + ",\"message\":" + jsonQuote(message) + "}";
}

std::string
makeProgress(const std::string &id, const char *event, int run,
             const SearchProgress &p)
{
    return "{\"type\":\"progress\",\"id\":" + jsonQuote(id)
           + ",\"event\":\"" + event + "\",\"run\":" + std::to_string(run)
           + ",\"step\":" + std::to_string(p.steps)
           + ",\"virtualSec\":" + jsonHexDouble(p.virtualSec)
           + ",\"bestNormEdp\":" + jsonHexDouble(p.bestNormEdp) + "}";
}

std::string
makeResult(const std::string &id, const MultiRunResult &r,
           bool includeTrace)
{
    std::string out = "{\"type\":\"result\",\"id\":";
    out += jsonQuote(id);
    out += ",\"method\":";
    out += jsonQuote(r.method);
    out += ",\"failedRuns\":";
    out += std::to_string(r.failedRuns);
    out += ",\"bestNormEdp\":";
    out += jsonHexDouble(r.bestNormEdp);
    out += ",\"medianNormEdp\":";
    out += jsonHexDouble(r.medianNormEdp);
    out += ",\"runs\":[";
    for (size_t i = 0; i < r.runs.size(); ++i) {
        if (i > 0)
            out.push_back(',');
        out += searchResultToJson(r.runs[i], includeTrace);
    }
    out += "]}";
    return out;
}

} // namespace mm::serve
