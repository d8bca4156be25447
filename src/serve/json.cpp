#include "serve/json.hpp"

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

namespace mm::serve {

static_assert(sizeof(JsonBlock) == 8, "one 8-byte handle");
static_assert(sizeof(JsonValue) <= 16, "handle + scalar slot");
static_assert(alignof(JsonValue) <= 8, "payloads start 8 bytes in");
// operator new[] hands out blocks aligned at least this far, which
// leaves the handle's three low bits free for the kind.
static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 8);
static_assert(size_t(JsonKind::Object) <= 7);

// ---------------------------------------------------------------------------
// JsonBlock
// ---------------------------------------------------------------------------

std::unique_ptr<std::byte[]>
JsonBlock::allocate(uint32_t count, size_t payloadBytes)
{
    auto mem =
        std::make_unique_for_overwrite<std::byte[]>(kPayloadOffset
                                                    + payloadBytes);
    std::construct_at(reinterpret_cast<uint32_t *>(mem.get()), count);
    return mem;
}

JsonBlock
JsonBlock::adopt(JsonKind kind, std::unique_ptr<std::byte[]> mem)
{
    JsonBlock b;
    b.word = reinterpret_cast<uintptr_t>(mem.release()) | uintptr_t(kind);
    return b;
}

JsonBlock
JsonBlock::clone(const JsonBlock &other)
{
    if (other.block() == nullptr)
        return JsonBlock(other.kind());
    const uint32_t n = other.count();
    std::unique_ptr<std::byte[]> mem = allocate(n, other.payloadBytes());
    std::byte *payload = mem.get() + kPayloadOffset;
    switch (other.kind()) {
    case JsonKind::Array:
        std::uninitialized_copy_n(other.elements(), n,
                                  reinterpret_cast<JsonValue *>(payload));
        break;
    case JsonKind::Object:
        std::uninitialized_copy_n(other.members(), n,
                                  reinterpret_cast<Member *>(payload));
        std::memcpy(payload + n * sizeof(Member),
                    other.payload() + n * sizeof(Member), other.keyBytes());
        break;
    default:
        std::memcpy(payload, other.payload(), n);
    }
    return adopt(other.kind(), std::move(mem));
}

JsonBlock &
JsonBlock::operator=(const JsonBlock &other)
{
    if (this != &other)
        *this = JsonBlock(other);
    return *this;
}

JsonBlock &
JsonBlock::operator=(JsonBlock &&other) noexcept
{
    if (this != &other) {
        reset();
        word = std::exchange(other.word, 0);
    }
    return *this;
}

const JsonBlock::Member *
JsonBlock::members() const
{
    return std::launder(reinterpret_cast<const Member *>(payload()));
}

size_t
JsonBlock::keyBytes() const
{
    // Keys are laid out in member order, so the last one ends them.
    const uint32_t n = count();
    if (n == 0)
        return 0;
    const Member &last = members()[n - 1];
    return size_t(last.keyOffset) + last.keyLength;
}

size_t
JsonBlock::payloadBytes() const
{
    switch (kind()) {
    case JsonKind::Array: return count() * sizeof(JsonValue);
    case JsonKind::Object: return count() * sizeof(Member) + keyBytes();
    default: return count();
    }
}

void
JsonBlock::reset()
{
    std::byte *mem = block();
    if (mem != nullptr) {
        if (kind() == JsonKind::Array)
            std::destroy_n(
                std::launder(reinterpret_cast<JsonValue *>(payload())),
                count());
        else if (kind() == JsonKind::Object)
            std::destroy_n(std::launder(reinterpret_cast<Member *>(payload())),
                           count());
        std::unique_ptr<std::byte[]> owner(mem);
    }
    word = 0;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/**
 * Recursive-descent parser over a string_view cursor. Children of open
 * containers wait on scratch stacks (values, key bytes, key spans) and
 * move into one exact-size block when their container closes.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : in(text) {}

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
    using Kind = JsonKind;

    /** A key's place in keyStack. */
    struct KeySpan
    {
        size_t offset, length;
    };

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
        case '{':
        case '[': {
            if (depth >= kMaxDepth)
                return fail("nesting too deep");
            ++depth;
            const bool ok = in[pos] == '{' ? object(out) : array(out);
            --depth;
            return ok;
        }
        case '"': {
            scratch.clear();
            if (!string(scratch))
                return false;
            if (scratch.size() > kMaxCount)
                return fail("string too long");
            auto mem = JsonBlock::allocate(uint32_t(scratch.size()),
                                           scratch.size());
            std::memcpy(mem.get() + JsonBlock::kPayloadOffset,
                        scratch.data(), scratch.size());
            out = JsonValue(JsonBlock::adopt(Kind::String, std::move(mem)));
            return true;
        }
        case 't':
            out = JsonValue(Kind::Bool, 1);
            return literal("true") || fail("bad literal");
        case 'f':
            out = JsonValue(Kind::Bool, 0);
            return literal("false") || fail("bad literal");
        case 'n':
            out = JsonValue();
            return literal("null") || fail("bad literal");
        default:
            return numberValue(out);
        }
    }

    bool
    object(JsonValue &out)
    {
        ++pos; // '{'
        const size_t valueBase = values.size();
        const size_t keyBase = keys.size();
        const size_t byteBase = keyStack.size();
        skipWs();
        if (pos < in.size() && in[pos] == '}') {
            ++pos;
            return closeObject(out, valueBase, keyBase, byteBase);
        }
        for (;;) {
            skipWs();
            if (pos >= in.size() || in[pos] != '"')
                return fail("expected object key");
            const size_t keyAt = keyStack.size();
            if (!string(keyStack))
                return false;
            keys.push_back({keyAt - byteBase, keyStack.size() - keyAt});
            skipWs();
            if (pos >= in.size() || in[pos] != ':')
                return fail("expected ':'");
            ++pos;
            JsonValue member;
            if (!value(member))
                return false;
            values.push_back(std::move(member));
            skipWs();
            if (pos < in.size() && in[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < in.size() && in[pos] == '}') {
                ++pos;
                return closeObject(out, valueBase, keyBase, byteBase);
            }
            return fail("expected ',' or '}'");
        }
    }

    /** Move the members above the bases into one object block. */
    bool
    closeObject(JsonValue &out, size_t valueBase, size_t keyBase,
                size_t byteBase)
    {
        const size_t n = values.size() - valueBase;
        const size_t keyBytes = keyStack.size() - byteBase;
        if (n > kMaxCount || keyBytes > kMaxCount)
            return fail("object too large");
        auto mem = JsonBlock::allocate(
            uint32_t(n), n * sizeof(JsonBlock::Member) + keyBytes);
        std::byte *payload = mem.get() + JsonBlock::kPayloadOffset;
        auto *slots = reinterpret_cast<JsonBlock::Member *>(payload);
        for (size_t i = 0; i < n; ++i)
            std::construct_at(slots + i,
                              JsonBlock::Member{
                                  uint32_t(keys[keyBase + i].offset),
                                  uint32_t(keys[keyBase + i].length),
                                  std::move(values[valueBase + i])});
        std::memcpy(payload + n * sizeof(JsonBlock::Member),
                    keyStack.data() + byteBase, keyBytes);
        values.resize(valueBase);
        keys.resize(keyBase);
        keyStack.resize(byteBase);
        out = JsonValue(JsonBlock::adopt(Kind::Object, std::move(mem)));
        return true;
    }

    bool
    array(JsonValue &out)
    {
        ++pos; // '['
        const size_t base = values.size();
        skipWs();
        if (pos < in.size() && in[pos] == ']') {
            ++pos;
            return closeArray(out, base);
        }
        for (;;) {
            JsonValue element;
            if (!value(element))
                return false;
            values.push_back(std::move(element));
            skipWs();
            if (pos < in.size() && in[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < in.size() && in[pos] == ']') {
                ++pos;
                return closeArray(out, base);
            }
            return fail("expected ',' or ']'");
        }
    }

    /** Move the elements above @p base into one array block. */
    bool
    closeArray(JsonValue &out, size_t base)
    {
        const size_t n = values.size() - base;
        if (n > kMaxCount)
            return fail("array too large");
        auto mem = JsonBlock::allocate(uint32_t(n), n * sizeof(JsonValue));
        std::uninitialized_move_n(values.begin() + std::ptrdiff_t(base), n,
                                  reinterpret_cast<JsonValue *>(
                                      mem.get() + JsonBlock::kPayloadOffset));
        values.resize(base);
        out = JsonValue(JsonBlock::adopt(Kind::Array, std::move(mem)));
        return true;
    }

    /** Decode one quoted string, appending its bytes to @p out. */
    bool
    string(std::string &out)
    {
        ++pos; // opening quote
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
                out = JsonValue(Kind::Int, uint64_t(int64_t(v)));
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
                out = JsonValue(Kind::Uint, uint64_t(u));
                return true;
            }
        }
        char *end = nullptr;
        errno = 0;
        double d = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size())
            return fail("malformed number");
        out = JsonValue(Kind::Double, std::bit_cast<uint64_t>(d));
        return true;
    }

    /** Containers may nest this deep; the protocol needs ~4 levels,
     * and bounding it keeps hostile '[[[[…' input off the stack. */
    static constexpr int kMaxDepth = 64;
    /** Block headers count in 32 bits. */
    static constexpr size_t kMaxCount = std::numeric_limits<uint32_t>::max();

    std::string_view in;
    size_t pos = 0;
    int depth = 0;
    std::string err;
    std::string scratch;          ///< the string value being decoded
    std::vector<JsonValue> values; ///< children of open containers
    std::vector<KeySpan> keys;     ///< keys of open objects' members
    std::string keyStack;          ///< their bytes, object by object
};

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

std::string_view
JsonValue::str() const
{
    if (!isString())
        return {};
    return {reinterpret_cast<const char *>(array.payload()), array.count()};
}

double
JsonValue::asDouble() const
{
    switch (kind()) {
    case Kind::Int: return double(int64_t(bits));
    case Kind::Uint: return double(bits);
    case Kind::Double: return std::bit_cast<double>(bits);
    default: return 0.0;
    }
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    const uint32_t n = array.count();
    const JsonBlock::Member *members = array.members();
    const char *keyBytes = reinterpret_cast<const char *>(members + n);
    for (uint32_t i = 0; i < n; ++i)
        if (std::string_view(keyBytes + members[i].keyOffset,
                             members[i].keyLength)
            == key)
            return &members[i].value;
    return nullptr;
}

std::string
JsonValue::getStr(std::string_view key, std::string fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr && v->isString() ? std::string(v->str())
                                         : std::move(fallback);
}

int64_t
JsonValue::getInt(std::string_view key, int64_t fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr && v->isInt() ? v->integer() : fallback;
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
        if (std::optional<double> d = parseHexDouble(v->str()))
            return *d;
    }
    return fallback;
}

bool
JsonValue::getBool(std::string_view key, bool fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr && v->isBool() ? v->boolean() : fallback;
}

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    return JsonParser(text).document(error);
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
