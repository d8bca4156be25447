/**
 * @file
 * Minimal JSON codec for the serve frontend's newline-delimited wire
 * protocol. Deliberately tiny: objects, arrays, strings, numbers,
 * booleans and null — no comments, no trailing commas, no external
 * dependency.
 *
 * Numbers keep their integral identity (any integer in [-2^63, 2^64)
 * round-trips exactly); doubles that must survive bitwise travel as
 * C99 hexfloat *strings* ("0x1.8p-3"), written by jsonHexDouble and
 * read back by parseHexDouble, because decimal JSON numbers cannot
 * guarantee bit-exact round-trips across formatters.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mm::serve {

/** One parsed JSON value (a small recursive variant). */
struct JsonValue
{
    /** Int holds integers that fit int64; Uint the larger ones. */
    enum class Kind { Null, Bool, Int, Uint, Double, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    int64_t integer = 0;
    uint64_t uinteger = 0; ///< Kind::Uint only
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isInt() const { return kind == Kind::Int; }
    bool isNumber() const
    {
        return kind == Kind::Int || kind == Kind::Uint
               || kind == Kind::Double;
    }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Number as double (Int widens, Uint rounds). */
    double asDouble() const
    {
        return kind == Kind::Int ? double(integer) : number;
    }

    /** A non-negative integer as uint64; nullopt for anything else. */
    std::optional<uint64_t> asUint64() const
    {
        if (kind == Kind::Int && integer >= 0)
            return uint64_t(integer);
        if (kind == Kind::Uint)
            return uinteger;
        return std::nullopt;
    }

    /** Member lookup on an object; null when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** Typed member conveniences with fallbacks. */
    std::string getStr(std::string_view key, std::string fallback) const;
    int64_t getInt(std::string_view key, int64_t fallback) const;
    double getDouble(std::string_view key, double fallback) const;
    bool getBool(std::string_view key, bool fallback) const;
};

/**
 * Parse one JSON document from @p text. Returns nullopt and fills
 * @p error (when non-null) on malformed input or trailing garbage.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *error = nullptr);

/** String -> quoted JSON string literal (escapes controls, '"', '\\'). */
std::string jsonQuote(std::string_view s);

/** Bit-exact double -> quoted hexfloat JSON string ("0x1.8p-3"). */
std::string jsonHexDouble(double v);

/**
 * Inverse of jsonHexDouble's payload: parse a hexfloat (or any strtod
 * form, including "inf"). Returns nullopt on garbage.
 */
std::optional<double> parseHexDouble(std::string_view s);

} // namespace mm::serve
