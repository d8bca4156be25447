#include "search/registry.hpp"

#include <charconv>
#include <limits>

#include "common/string_util.hpp"

namespace mm {

// ---------------------------------------------------------------------------
// Force-link anchors.
//
// The built-in searchers register themselves from their own translation
// units, but nothing else necessarily references those TUs once callers
// construct through the registry — and a static-library link drops
// unreferenced objects, registrars included. Naming one symbol from
// each registering TU here pulls them all in whenever the registry
// itself is used.
// ---------------------------------------------------------------------------

namespace detail {
extern const int randomSearcherRegistered;
extern const int annealingSearcherRegistered;
extern const int geneticSearcherRegistered;
extern const int ddpgSearcherRegistered;
extern const int parallelGradientSearcherRegistered; ///< MM and MM-P
extern const int boundSearcherRegistered;            ///< BB

/**
 * Never called; its external linkage keeps the references below alive
 * through optimization, so linking registry.o out of the static
 * library transitively pulls in every registering TU. (An unused
 * internal-linkage anchor array gets optimized away and the archive
 * members with it.)
 */
int
builtinSearcherAnchors()
{
    return randomSearcherRegistered + annealingSearcherRegistered
           + geneticSearcherRegistered + ddpgSearcherRegistered
           + parallelGradientSearcherRegistered + boundSearcherRegistered;
}
} // namespace detail

// ---------------------------------------------------------------------------
// SearcherOptions
// ---------------------------------------------------------------------------

SearcherOptions
SearcherOptions::parse(const std::string &text, const std::string &spec)
{
    SearcherOptions opts;
    opts.origin = spec;
    for (const std::string &item : split(text, ',')) {
        if (item.empty())
            fatal("searcher spec '" + spec
                  + "': empty option (stray comma?)");
        size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 || eq == item.size() - 1)
            fatal("searcher spec '" + spec + "': option '" + item
                  + "' is not of the form key=value");
        opts.kv[item.substr(0, eq)] = item.substr(eq + 1);
    }
    return opts;
}

namespace {

[[noreturn]] void
badValue(const std::string &origin, const std::string &name,
         const std::string &value, const char *wanted)
{
    fatal("searcher spec '" + origin + "': option '" + name + "' value '"
          + value + "' is not " + wanted);
}

} // namespace

int64_t
SearcherOptions::getInt(const std::string &name, int64_t fallback)
{
    auto it = kv.find(name);
    if (it == kv.end())
        return fallback;
    used.insert(name);
    const std::string &v = it->second;
    int64_t out = 0;
    auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || ptr != v.data() + v.size())
        badValue(origin, name, v, "an integer");
    return out;
}

int
SearcherOptions::getInt(const std::string &name, int fallback)
{
    const int64_t out = getInt(name, int64_t(fallback));
    if (out < std::numeric_limits<int>::min()
        || out > std::numeric_limits<int>::max())
        badValue(origin, name, kv.at(name), "an integer in int range");
    return int(out);
}

double
SearcherOptions::getDouble(const std::string &name, double fallback)
{
    auto it = kv.find(name);
    if (it == kv.end())
        return fallback;
    used.insert(name);
    const std::string &v = it->second;
    try {
        size_t consumed = 0;
        double out = std::stod(v, &consumed);
        if (consumed != v.size())
            badValue(origin, name, v, "a number");
        return out;
    } catch (const std::logic_error &) {
        badValue(origin, name, v, "a number");
    }
}

bool
SearcherOptions::getBool(const std::string &name, bool fallback)
{
    auto it = kv.find(name);
    if (it == kv.end())
        return fallback;
    used.insert(name);
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    badValue(origin, name, v, "a boolean (1/0/true/false)");
}

std::string
SearcherOptions::getStr(const std::string &name, std::string fallback)
{
    auto it = kv.find(name);
    if (it == kv.end())
        return fallback;
    used.insert(name);
    return it->second;
}

void
SearcherOptions::finish() const
{
    std::vector<std::string> unknown;
    for (const auto &[name, value] : kv)
        if (used.count(name) == 0)
            unknown.push_back(name);
    if (!unknown.empty())
        fatal("searcher spec '" + origin + "': unknown option"
              + (unknown.size() > 1 ? "s '" : " '") + join(unknown, "', '")
              + "' (run a bench with --list for the option schemas)");
}

// ---------------------------------------------------------------------------
// SearcherRegistry
// ---------------------------------------------------------------------------

SearcherRegistry &
SearcherRegistry::instance()
{
    static SearcherRegistry registry;
    return registry;
}

void
SearcherRegistry::add(Entry entry)
{
    MM_ASSERT(!entry.key.empty() && entry.factory != nullptr,
              "malformed registry entry");
    if (entries.count(entry.key) > 0)
        fatal("searcher key '" + entry.key + "' registered twice");
    entries.emplace(entry.key, std::move(entry));
}

bool
SearcherRegistry::contains(const std::string &key) const
{
    return entries.count(key) > 0;
}

std::vector<std::string>
SearcherRegistry::keys() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &[key, entry] : entries)
        out.push_back(key);
    return out;
}

const SearcherRegistry::Entry &
SearcherRegistry::at(const std::string &key) const
{
    auto it = entries.find(key);
    if (it == entries.end())
        fatal("unknown search method '" + key + "'; registered: "
              + join(keys(), ", "));
    return it->second;
}

std::unique_ptr<Searcher>
SearcherRegistry::make(const std::string &spec,
                       const SearcherBuildContext &ctx) const
{
    size_t colon = spec.find(':');
    std::string key = spec.substr(0, colon);
    std::string optText =
        colon == std::string::npos ? "" : spec.substr(colon + 1);

    const Entry &entry = at(key);
    if (entry.needsSurrogate && ctx.surrogate == nullptr)
        fatal("searcher '" + key + "' requires a trained Phase-1 "
              "surrogate, but none was provided");

    SearcherOptions opts = SearcherOptions::parse(optText, spec);
    std::unique_ptr<Searcher> searcher = entry.factory(ctx, opts);
    MM_ASSERT(searcher != nullptr, "factory returned null searcher");
    opts.finish();
    return searcher;
}

std::string
SearcherRegistry::describe() const
{
    std::string out;
    for (const auto &[key, entry] : entries) {
        out += key;
        if (entry.needsSurrogate)
            out += "  (requires surrogate)";
        out += "\n    ";
        out += entry.description;
        out += "\n";
        for (const auto &opt : entry.options) {
            out += "      ";
            out += opt.name;
            out += ": ";
            out += opt.description;
            out += "\n";
        }
    }
    return out;
}

SearcherRegistrar::SearcherRegistrar(SearcherRegistry::Entry entry)
{
    SearcherRegistry::instance().add(std::move(entry));
}

} // namespace mm
