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
 *
 * Layout: clients keep parsed replies, so a parsed document must stay
 * near its wire size; a ~450-byte result line, whose mapping carries
 * ~55 integers, keeps ~2.1 KB of heap. A JsonValue is 16 bytes: one
 * 8-byte handle, JsonBlock, and one 8-byte scalar slot (bool, integer
 * or double bits). The handle carries the kind tag in its low three
 * bits and, for strings, arrays and objects, owns an exact-size heap
 * block: a 32-bit count, then an array's elements, an object's members
 * followed by their key bytes, or a string's bytes. Scalars own no heap
 * at all. The parser collects children on a scratch stack and moves
 * them into their block when the container closes, so no block carries
 * growth slack. Every read is checked against the tag: `array` on a
 * non-array and str() on a non-string are empty, scalar reads on the
 * wrong kind return zero, and a moved-from value is Null.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace mm::serve {

/** What a JsonValue holds. Int holds integers that fit int64; Uint
 * the larger ones. */
enum class JsonKind : uint8_t
{
    Null,
    Bool,
    Int,
    Uint,
    Double,
    String,
    Array,
    Object
};

struct JsonValue;
class JsonParser;

/**
 * The one 8-byte handle of a JsonValue: the value's kind in the low
 * three bits and, for strings, arrays and objects, the address of the
 * exact-size heap block it owns. As a range it shows array elements
 * only and is empty on every other kind, so reading `array` off a
 * hostile reply of the wrong shape is defined. Read-only outside
 * JsonValue.
 */
class JsonBlock
{
  public:
    ~JsonBlock() { reset(); }

    /** Array element count; 0 unless the value is an array. */
    size_t size() const;
    bool empty() const { return size() == 0; }
    const JsonValue *begin() const;
    const JsonValue *end() const;
    /** Unchecked, like std::vector: @p i must be below size(). */
    const JsonValue &operator[](size_t i) const;
    const JsonValue &front() const;

  private:
    friend struct JsonValue;
    friend class JsonParser;

    /** An object member: where its key sits in the block's key bytes. */
    struct Member;

    /** Blocks start with their count; the payload is 8 bytes in. */
    static constexpr size_t kPayloadOffset = 8;
    static constexpr uintptr_t kKindMask = 7;

    JsonBlock() = default;
    /** A scalar's tag, owning nothing. */
    explicit JsonBlock(JsonKind scalar) : word(uintptr_t(scalar)) {}
    JsonBlock(const JsonBlock &other) : JsonBlock(clone(other)) {}
    JsonBlock(JsonBlock &&other) noexcept
        : word(std::exchange(other.word, 0))
    {
    }
    JsonBlock &operator=(const JsonBlock &other);
    JsonBlock &operator=(JsonBlock &&other) noexcept;

    /** Raw storage for @p payloadBytes after a header of @p count;
     * fill it, then adopt() it. */
    static std::unique_ptr<std::byte[]> allocate(uint32_t count,
                                                 size_t payloadBytes);
    /** Take ownership of a filled block holding a @p kind. */
    static JsonBlock adopt(JsonKind kind, std::unique_ptr<std::byte[]> mem);
    /** A deep copy: the same tag, and a block of its own. */
    static JsonBlock clone(const JsonBlock &other);

    JsonKind kind() const { return JsonKind(word & kKindMask); }
    /** The owned block; null for scalars. */
    std::byte *block() const
    {
        return reinterpret_cast<std::byte *>(word & ~kKindMask);
    }
    /** Elements, members, or string bytes (blocks only). */
    uint32_t count() const;
    std::byte *payload() const { return block() + kPayloadOffset; }
    const JsonValue *elements() const;
    const Member *members() const;
    /** Bytes of an object's keys, which follow its members. */
    size_t keyBytes() const;
    /** Payload size, from the count (and, for objects, the last key). */
    size_t payloadBytes() const;
    /** Destroy the elements or members and free the block: Null. */
    void reset();

    uintptr_t word = 0; ///< block address | kind
};

/** One parsed JSON value. */
struct JsonValue
{
    using Kind = JsonKind;

    JsonValue() = default;

    /** Array elements; an empty range on every other kind. The handle
     * also carries the kind and owns the heap of every kind. */
    JsonBlock array;

    Kind kind() const { return array.kind(); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isBool() const { return kind() == Kind::Bool; }
    bool isInt() const { return kind() == Kind::Int; }
    bool isNumber() const
    {
        return kind() == Kind::Int || kind() == Kind::Uint
               || kind() == Kind::Double;
    }
    bool isString() const { return kind() == Kind::String; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isObject() const { return kind() == Kind::Object; }

    /** The boolean; false on any other kind. */
    bool boolean() const { return isBool() && bits != 0; }
    /** An Int's value; 0 on any other kind. */
    int64_t integer() const { return isInt() ? int64_t(bits) : 0; }
    /** A string's bytes; empty on any other kind. */
    std::string_view str() const;

    /** Number as double (Int widens, Uint rounds); 0 for non-numbers. */
    double asDouble() const;

    /** A non-negative integer as uint64; nullopt for anything else. */
    std::optional<uint64_t> asUint64() const
    {
        if (isInt() && int64_t(bits) >= 0)
            return bits;
        if (kind() == Kind::Uint)
            return bits;
        return std::nullopt;
    }

    /** Member lookup on an object; null when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** Typed member conveniences with fallbacks. */
    std::string getStr(std::string_view key, std::string fallback) const;
    int64_t getInt(std::string_view key, int64_t fallback) const;
    double getDouble(std::string_view key, double fallback) const;
    bool getBool(std::string_view key, bool fallback) const;

  private:
    friend class JsonParser;

    JsonValue(Kind scalar, uint64_t value) : array(scalar), bits(value) {}
    explicit JsonValue(JsonBlock block) : array(std::move(block)) {}

    uint64_t bits = 0; ///< Bool/Int/Uint value, or a Double's bits
};

struct JsonBlock::Member
{
    uint32_t keyOffset;
    uint32_t keyLength;
    JsonValue value;
};

inline uint32_t
JsonBlock::count() const
{
    return *std::launder(reinterpret_cast<const uint32_t *>(block()));
}

inline const JsonValue *
JsonBlock::elements() const
{
    return std::launder(reinterpret_cast<const JsonValue *>(payload()));
}

inline size_t
JsonBlock::size() const
{
    return kind() == JsonKind::Array ? count() : 0;
}

inline const JsonValue *
JsonBlock::begin() const
{
    return kind() == JsonKind::Array ? elements() : nullptr;
}

inline const JsonValue *
JsonBlock::end() const
{
    return begin() + size();
}

inline const JsonValue &
JsonBlock::operator[](size_t i) const
{
    return begin()[i];
}

inline const JsonValue &
JsonBlock::front() const
{
    return *begin();
}

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
