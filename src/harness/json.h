/**
 * @file
 * Minimal JSON document model for the sweep harness's result sinks.
 *
 * The harness emits machine-readable `BENCH_*.json` files next to the
 * human tables and tests round-trip them, so we need both a writer and a
 * parser. This is a deliberately small, dependency-free implementation:
 * ordered objects (deterministic output), integers kept exact over the
 * whole int64 and uint64 range, doubles printed with "%.10g". Not a
 * general-purpose JSON library — no comments, no trailing commas,
 * objects with duplicate keys keep the first.
 *
 * The serve daemon's warm path is JSON-bound, so the codec formats and
 * parses numbers with <charconv>, copies strings in runs and keeps its
 * nodes small. Its bytes
 * are pinned to printf's and strtod's definitions
 * (tests/harness/test_json.cc): stores and journals written by earlier
 * builds stay readable and keep their content keys.
 */

#ifndef RTDC_HARNESS_JSON_H
#define RTDC_HARNESS_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rtd::harness {

/** One JSON value (null, bool, integer, double, string, array, object). */
class Json
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        /** Any integer in int64 range. */
        Int,
        /** An integer above INT64_MAX (up to UINT64_MAX); every
         *  smaller integer is Int, whichever constructor built it. */
        UInt,
        Double,
        String,
        Array,
        Object,
        /** Compact JSON text encoded earlier (Json::raw), dumped
         *  verbatim; opaque to every accessor. Parsing never makes
         *  one. */
        Raw,
    };

    Json() = default;
    Json(bool value) : kind_(Kind::Bool), bool_(value) {}
    Json(int value) : kind_(Kind::Int), int_(value) {}
    Json(unsigned value) : kind_(Kind::Int), int_(value) {}
    Json(int64_t value) : kind_(Kind::Int), int_(value) {}
    Json(uint64_t value);
    /**
     * JSON has no NaN/Infinity literals, and a wire peer must never
     * receive unparseable output, so non-finite values degrade to Null
     * (the conventional JSON mapping) instead of asserting.
     */
    Json(double value);

    /**
     * A double that serializes with 17 significant digits ("%.17g"), so
     * parsing the output recovers the bit-identical value. The wire
     * protocol uses this for workload-spec knobs, where a rounded
     * double would silently change the simulated point; the result
     * sinks keep the compact default ("%.10g") and their historical
     * bytes.
     */
    static Json exactDouble(double value);
    Json(const char *value)
        : kind_(Kind::String),
          value_(std::in_place_type<std::string>, value)
    {
    }
    Json(std::string value)
        : kind_(Kind::String),
          value_(std::in_place_type<std::string>, std::move(value))
    {
    }

    static Json array();
    static Json object();
    /**
     * A value that dumps as @p compactJson verbatim: JSON written
     * earlier by a direct encoder (serve::wire's job writer), carried
     * inside a tree without being parsed or encoded again. The text is
     * spliced as is at any dump indent.
     */
    static Json raw(std::string compactJson);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::UInt ||
               kind_ == Kind::Double;
    }
    /** True for an integer in uint64 range: a non-negative Int or a
     *  UInt. */
    bool isUInt64() const
    {
        return (kind_ == Kind::Int && int_ >= 0) || kind_ == Kind::UInt;
    }

    /// @name Scalar accessors (panic on kind mismatch)
    /// @{
    bool asBool() const;
    int64_t asInt() const;
    /** Integer value as uint64 (needs isUInt64()). */
    uint64_t asUInt64() const;
    /** Numeric value as double (works for every number kind). */
    double asDouble() const;
    const std::string &asString() const;
    /// @}

    /// @name Array operations
    /// @{
    void push(Json value);
    size_t size() const;
    const Json &at(size_t index) const;
    const std::vector<Json> &items() const;
    /// @}

    /// @name Object operations (insertion order preserved)
    /// @{
    void set(std::string_view key, Json value);
    /** Member lookup; nullptr when absent (or not an object). */
    const Json *find(std::string_view key) const;
    /** Member lookup; panics when absent. */
    const Json &get(std::string_view key) const;
    const std::vector<std::pair<std::string, Json>> &members() const;
    /// @}

    /**
     * Serialize. @p indent 0 renders compact one-line JSON; > 0 pretty-
     * prints with that many spaces per level. Output is deterministic:
     * object members keep insertion order.
     */
    std::string dump(int indent = 0) const;

    /**
     * Compact dump of this object with one more member, @p key, whose
     * value is @p rawJson: compact JSON dumped earlier, spliced in
     * verbatim. The bytes equal set(key, <that value>) then dump(),
     * without encoding the value again.
     */
    std::string dumpWithRaw(std::string_view key,
                            std::string_view rawJson) const;

    /**
     * Parse @p text into @p out. Returns false (and fills @p error, when
     * non-null) on malformed input; @p out is untouched on failure.
     * Nesting beyond maxParseDepth (a hostile wire peer's stack-
     * exhaustion vector) is a parse error, not a crash.
     */
    static bool parse(std::string_view text, Json *out,
                      std::string *error = nullptr);

    /// @name Direct writing
    /// The bytes dump() gives a value of each kind, for encoders that
    /// write a fixed-shape document straight to text instead of
    /// building a tree (serve::wire's job writer). dump() formats
    /// through these, so the two cannot drift apart.
    /// @{
    /** @p text as a quoted JSON string, escaped as dump() escapes. */
    static void appendString(std::string &out, std::string_view text);
    static void appendInt(std::string &out, int64_t value);
    static void appendUInt(std::string &out, uint64_t value);
    /** Json(value).dump() (@p exact false) or exactDouble(value).dump()
     *  (@p exact true); "null" when @p value is not finite. */
    static void appendDouble(std::string &out, double value, bool exact);
    /// @}

    /** Maximum container nesting parse() accepts. */
    static constexpr int maxParseDepth = 256;

  private:
    class Parser;

    void dumpTo(std::string &out, int indent, int depth) const;

    using Members = std::vector<std::pair<std::string, Json>>;

    // A node holds one scalar or one container, so the two share
    // storage: a small node is cheap to move, and parsing and building
    // trees move nodes every time a vector of them grows.
    Kind kind_ = Kind::Null;
    bool exact_ = false;  ///< print double_ with full precision
    /** The scalar of a Bool, Int, UInt or Double; kind_ names the
     *  member in use (UInt keeps its uint64 bit pattern in int_). */
    union
    {
        bool bool_;
        int64_t int_ = 0;
        double double_;
    };
    /** The text, items or members of a String, Raw, Array or
     *  Object. */
    std::variant<std::monostate, std::string, std::vector<Json>, Members>
        value_;
};

} // namespace rtd::harness

#endif // RTDC_HARNESS_JSON_H
