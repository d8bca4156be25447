/**
 * @file
 * Library-level searcher registry: every search method (Random, SA, GA,
 * RL, MM, MM-P) self-registers a string-keyed factory with a declarative
 * option schema, so benches, examples, tests and future server endpoints
 * all construct searchers the same way:
 *
 *   SearcherBuildContext ctx{model, &surrogate};
 *   auto sa = SearcherRegistry::instance().make("SA:tMax=4,pilot=64", ctx);
 *   auto mmp = SearcherRegistry::instance().make("MM-P:chains=8", ctx);
 *
 * A spec is "KEY" or "KEY:opt=value,opt=value". Unknown keys, unknown
 * or malformed options, and missing surrogates raise FatalError with
 * messages that name the valid alternatives — registry errors are user
 * errors, never asserts.
 *
 * Registration happens in each searcher's own translation unit through
 * a static SearcherRegistrar (see e.g. annealing.cpp); registry.cpp
 * anchors those TUs so static-library linking cannot drop them.
 */
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "search/search.hpp"

namespace mm {

class Surrogate; // core/surrogate.hpp; held by pointer only

/**
 * Parsed "key=value" options of a searcher spec with typed accessors.
 * Every get*() marks its option consumed; finish() rejects leftovers so
 * a misspelled option fails loudly instead of silently using defaults.
 */
class SearcherOptions
{
  public:
    /** Parse "a=1,b=2.5"; @p spec names the searcher for error text. */
    static SearcherOptions parse(const std::string &text,
                                 const std::string &spec);

    bool has(const std::string &name) const { return kv.count(name) > 0; }

    int64_t getInt(const std::string &name, int64_t fallback);
    /** getInt() for an int-typed field: FatalError outside int range. */
    int getInt(const std::string &name, int fallback);
    double getDouble(const std::string &name, double fallback);
    bool getBool(const std::string &name, bool fallback);
    std::string getStr(const std::string &name, std::string fallback);

    /** FatalError on any option no accessor consumed. */
    void finish() const;

  private:
    std::string origin; ///< the spec, for error messages
    std::map<std::string, std::string> kv;
    std::set<std::string> used;
};

/** One documented option of a registered searcher (for --list modes). */
struct SearcherOptionSpec
{
    std::string name;
    std::string description;
};

/** Inputs every factory constructs from. */
struct SearcherBuildContext
{
    const CostModel &model;
    /** Trained Phase-1 surrogate; required by MM / MM-P only. */
    Surrogate *surrogate = nullptr;
    TimingModel timing = TimingModel::paperCalibrated();
};

/** String-keyed searcher factories with declarative option schemas. */
class SearcherRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<Searcher>(
        const SearcherBuildContext &, SearcherOptions &)>;

    struct Entry
    {
        std::string key;
        std::string description;
        bool needsSurrogate = false;
        std::vector<SearcherOptionSpec> options;
        Factory factory;
    };

    /** The process-wide registry all registrars add to. */
    static SearcherRegistry &instance();

    /** Register @p entry; FatalError on a duplicate key. */
    void add(Entry entry);

    bool contains(const std::string &key) const;

    /** Registered keys, sorted. */
    std::vector<std::string> keys() const;

    /** Entry for @p key; FatalError naming the known keys otherwise. */
    const Entry &at(const std::string &key) const;

    /**
     * Construct from a spec "KEY" or "KEY:opt=v,...". FatalError on
     * unknown key, unknown/malformed option, or a surrogate-requiring
     * key built without one.
     */
    std::unique_ptr<Searcher> make(const std::string &spec,
                                   const SearcherBuildContext &ctx) const;

    /** Multi-line human-readable key + option-schema listing. */
    std::string describe() const;

  private:
    std::map<std::string, Entry> entries;
};

/** Static-initialization helper: file-scope instances register at load. */
struct SearcherRegistrar
{
    explicit SearcherRegistrar(SearcherRegistry::Entry entry);
};

} // namespace mm
