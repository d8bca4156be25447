#include "serve/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mm::serve {

namespace {

/** Recursive-descent parser over a string_view cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : in(text) {}

    std::optional<JsonValue>
    document(std::string *error)
    {
        JsonValue v;
        if (!value(v)) {
            if (error != nullptr)
                *error = err.empty() ? "malformed JSON" : err;
            return std::nullopt;
        }
        skipWs();
        if (pos != in.size()) {
            if (error != nullptr)
                *error = "trailing garbage after JSON document";
            return std::nullopt;
        }
        return v;
    }

  private:
    bool
    fail(const char *what)
    {
        if (err.empty())
            err = std::string(what) + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < in.size()
               && (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n'
                   || in[pos] == '\r'))
            ++pos;
    }

    bool
    literal(std::string_view word)
    {
        if (in.substr(pos, word.size()) != word)
            return false;
        pos += word.size();
        return true;
    }

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (pos >= in.size())
            return fail("unexpected end of input");
        switch (in[pos]) {
        case '{': {
            if (depth >= kMaxDepth)
                return fail("nesting too deep");
            ++depth;
            const bool ok = object(out);
            --depth;
            return ok;
        }
        case '[': {
            if (depth >= kMaxDepth)
                return fail("nesting too deep");
            ++depth;
            const bool ok = array(out);
            --depth;
            return ok;
        }
        case '"':
            out.kind = JsonValue::Kind::String;
            return string(out.str);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true") || fail("bad literal");
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false") || fail("bad literal");
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null") || fail("bad literal");
        default:
            return numberValue(out);
        }
    }

    bool
    object(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos; // '{'
        skipWs();
        if (pos < in.size() && in[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos >= in.size() || in[pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (pos >= in.size() || in[pos] != ':')
                return fail("expected ':'");
            ++pos;
            JsonValue member;
            if (!value(member))
                return false;
            out.object.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos < in.size() && in[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < in.size() && in[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos; // '['
        skipWs();
        if (pos < in.size() && in[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            JsonValue element;
            if (!value(element))
                return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (pos < in.size() && in[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < in.size() && in[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    string(std::string &out)
    {
        ++pos; // opening quote
        out.clear();
        while (pos < in.size()) {
            char c = in[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= in.size())
                return fail("dangling escape");
            char e = in[pos++];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                // Only the escapes jsonQuote emits (\u00XX for control
                // bytes); anything else in the BMP decodes to UTF-8.
                if (pos + 4 > in.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = in[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                if (code < 0x80) {
                    out.push_back(char(code));
                } else if (code < 0x800) {
                    out.push_back(char(0xC0 | (code >> 6)));
                    out.push_back(char(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(char(0xE0 | (code >> 12)));
                    out.push_back(char(0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(char(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    numberValue(JsonValue &out)
    {
        const size_t start = pos;
        if (pos < in.size() && (in[pos] == '-' || in[pos] == '+'))
            ++pos;
        bool integral = true;
        while (pos < in.size()) {
            char c = in[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-'
                       || c == '+') {
                integral = false;
                ++pos;
            } else {
                break;
            }
        }
        if (pos == start)
            return fail("expected value");
        const std::string text(in.substr(start, pos - start));
        errno = 0;
        if (integral) {
            char *end = nullptr;
            long long v = std::strtoll(text.c_str(), &end, 10);
            if (end == text.c_str() + text.size() && errno == 0) {
                out.kind = JsonValue::Kind::Int;
                out.integer = int64_t(v);
                out.number = double(v);
                return true;
            }
            // Above int64 but within uint64 (a full-range seed): keep
            // it exact. strtoull would wrap a negative literal, so only
            // unsigned text qualifies.
            errno = 0;
            end = nullptr;
            unsigned long long u = std::strtoull(text.c_str(), &end, 10);
            if (text[0] != '-' && end == text.c_str() + text.size()
                && errno == 0) {
                out.kind = JsonValue::Kind::Uint;
                out.uinteger = uint64_t(u);
                out.number = double(u);
                return true;
            }
        }
        char *end = nullptr;
        errno = 0;
        double d = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size())
            return fail("malformed number");
        out.kind = JsonValue::Kind::Double;
        out.number = d;
        return true;
    }

    /** Containers may nest this deep; the protocol needs ~4 levels,
     * and bounding it keeps hostile '[[[[…' input off the stack. */
    static constexpr int kMaxDepth = 64;

    std::string_view in;
    size_t pos = 0;
    int depth = 0;
    std::string err;
};

} // namespace

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

std::string
JsonValue::getStr(std::string_view key, std::string fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr && v->isString() ? v->str : std::move(fallback);
}

int64_t
JsonValue::getInt(std::string_view key, int64_t fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr && v->isInt() ? v->integer : fallback;
}

double
JsonValue::getDouble(std::string_view key, double fallback) const
{
    const JsonValue *v = find(key);
    if (v == nullptr)
        return fallback;
    if (v->isNumber())
        return v->asDouble();
    // Doubles on this wire are quoted hexfloat strings (jsonHexDouble);
    // accept them anywhere a double is read so senders never need the
    // lossy decimal form.
    if (v->isString()) {
        if (std::optional<double> d = parseHexDouble(v->str))
            return *d;
    }
    return fallback;
}

bool
JsonValue::getBool(std::string_view key, bool fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr && v->isBool() ? v->boolean : fallback;
}

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    return Parser(text).document(error);
}

std::string
jsonQuote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              unsigned(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string
jsonHexDouble(double v)
{
    if (std::isinf(v))
        return v > 0 ? "\"inf\"" : "\"-inf\"";
    if (std::isnan(v))
        return "\"nan\"";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%a\"", v);
    return buf;
}

std::optional<double>
parseHexDouble(std::string_view s)
{
    const std::string text(s);
    char *end = nullptr;
    errno = 0;
    double d = std::strtod(text.c_str(), &end);
    if (end == text.c_str())
        return std::nullopt;
    while (*end == ' ')
        ++end;
    if (*end != '\0')
        return std::nullopt;
    return d;
}

} // namespace mm::serve
