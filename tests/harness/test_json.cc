/**
 * @file
 * Edge-case suite for the harness JSON model (harness/json.{h,cc}).
 *
 * The serve wire protocol made the parser's failure modes load-bearing:
 * a daemon must survive arbitrary bytes on its socket, and a decoded
 * job must mean exactly what was encoded. These tests pin the corners —
 * string escapes in both directions, CR/LF handling, non-finite
 * doubles, full-range 64-bit integers, exact double round-trips, and
 * the bounded-depth guard that turns hostile nesting into a parse error
 * instead of a stack overflow.
 *
 * The JsonCodec suite pins the codec's bytes to the printf/strtod
 * definitions it is built to match: number formatting against
 * snprintf, number parsing against strtoll/strtoull/strtod, string
 * escaping against a byte-at-a-time reference. Stores and journals
 * written by earlier builds depend on those bytes.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "harness/json.h"

using rtd::harness::Json;

// ---------------------------------------------------------------------
// String escapes
// ---------------------------------------------------------------------

TEST(JsonEdge, EscapedStringsRoundTrip)
{
    // Every escape the emitter produces, plus an embedded NUL.
    std::string nasty = "quote:\" backslash:\\ bell:\b feed:\f "
                        "newline:\n return:\r tab:\t";
    nasty.push_back('\0');
    nasty += "after-nul";

    Json doc = Json::object();
    doc.set("s", nasty);
    std::string text = doc.dump();
    // Control characters never appear raw in the output.
    for (char c : text)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text, &parsed, &error)) << error;
    EXPECT_EQ(parsed.get("s").asString(), nasty);
}

TEST(JsonEdge, ParsesStandardEscapesAndUnicode)
{
    Json out;
    ASSERT_TRUE(Json::parse(R"("a\/b A é €")", &out));
    // A = 'A'; é and € decode to their UTF-8 bytes.
    EXPECT_EQ(out.asString(), "a/b A \xc3\xa9 \xe2\x82\xac");
}

TEST(JsonEdge, RejectsBadEscapes)
{
    Json out;
    EXPECT_FALSE(Json::parse(R"("\q")", &out));      // unknown escape
    EXPECT_FALSE(Json::parse(R"("\u12")", &out));    // truncated \u
    EXPECT_FALSE(Json::parse(R"("\u12zq")", &out));  // non-hex \u
    EXPECT_FALSE(Json::parse("\"dangling\\", &out)); // escape at EOF
    EXPECT_FALSE(Json::parse("\"unterminated", &out));
}

TEST(JsonEdge, CrLfWhitespaceIsInsignificant)
{
    // A peer that frames lines with \r\n (or pretty-prints with either
    // convention) must parse identically to compact JSON.
    Json a, b;
    ASSERT_TRUE(Json::parse("{\"x\":\t[1,\r\n 2,\r\n 3]\r\n}\r\n", &a));
    ASSERT_TRUE(Json::parse("{\"x\":[1,2,3]}", &b));
    EXPECT_EQ(a.dump(), b.dump());
    // ...but a *literal* CR inside a string is data, not framing.
    Json s;
    ASSERT_TRUE(Json::parse("\"a\\r\\nb\"", &s));
    EXPECT_EQ(s.asString(), "a\r\nb");
}

// ---------------------------------------------------------------------
// Numbers
// ---------------------------------------------------------------------

TEST(JsonEdge, NonFiniteDoublesDegradeToNull)
{
    // JSON has no NaN/Infinity literal; emitting one would hand an
    // unparseable line to the wire peer. The conventional mapping is
    // null, on construction (so dump() can never misfire).
    EXPECT_TRUE(Json(std::nan("")).isNull());
    EXPECT_TRUE(Json(std::numeric_limits<double>::infinity()).isNull());
    EXPECT_TRUE(Json(-std::numeric_limits<double>::infinity()).isNull());
    EXPECT_TRUE(Json::exactDouble(std::nan("")).isNull());

    Json doc = Json::object();
    doc.set("bad", std::nan(""));
    EXPECT_EQ(doc.dump(), "{\"bad\":null}");
    Json back;
    ASSERT_TRUE(Json::parse(doc.dump(), &back));
    EXPECT_TRUE(back.get("bad").isNull());
}

TEST(JsonEdge, Int64ExtremesRoundTripExactly)
{
    Json doc = Json::object();
    doc.set("min", std::numeric_limits<int64_t>::min());
    doc.set("max", std::numeric_limits<int64_t>::max());
    doc.set("u53", uint64_t{1} << 53);  // past double's exact range

    Json back;
    std::string error;
    ASSERT_TRUE(Json::parse(doc.dump(), &back, &error)) << error;
    EXPECT_EQ(back.get("min").kind(), Json::Kind::Int);
    EXPECT_EQ(back.get("min").asInt(),
              std::numeric_limits<int64_t>::min());
    EXPECT_EQ(back.get("max").asInt(),
              std::numeric_limits<int64_t>::max());
    EXPECT_EQ(back.get("u53").asInt(), int64_t{1} << 53);
}

TEST(JsonEdge, IntegerOverflowFallsBackToDouble)
{
    // One past UINT64_MAX (or below INT64_MIN) cannot stay integral;
    // it degrades to the nearest double instead of failing the whole
    // document.
    Json out;
    ASSERT_TRUE(Json::parse("18446744073709551616", &out));
    EXPECT_EQ(out.kind(), Json::Kind::Double);
    EXPECT_DOUBLE_EQ(out.asDouble(), 18446744073709551616.0);
    ASSERT_TRUE(Json::parse("-9223372036854775809", &out));
    EXPECT_EQ(out.kind(), Json::Kind::Double);
    EXPECT_DOUBLE_EQ(out.asDouble(), -9223372036854775809.0);
}

TEST(JsonEdge, UInt64RangeRoundTripsExactly)
{
    const uint64_t top = std::numeric_limits<uint64_t>::max();
    const uint64_t half = uint64_t{1} << 63;
    Json doc = Json::object();
    doc.set("half", half);
    doc.set("top", top);
    doc.set("small", uint64_t{42});
    // Unsigned decimal, and the bytes below 2^63 are the int64 ones.
    EXPECT_EQ(doc.dump(), "{\"half\":9223372036854775808,"
                          "\"top\":18446744073709551615,\"small\":42}");
    EXPECT_EQ(doc.get("half").kind(), Json::Kind::UInt);
    EXPECT_EQ(doc.get("small").kind(), Json::Kind::Int);

    Json back;
    ASSERT_TRUE(Json::parse(doc.dump(), &back));
    EXPECT_EQ(back.get("half").kind(), Json::Kind::UInt);
    EXPECT_EQ(back.get("half").asUInt64(), half);
    EXPECT_EQ(back.get("top").asUInt64(), top);
    EXPECT_EQ(back.get("small").kind(), Json::Kind::Int);
    EXPECT_EQ(back.get("small").asUInt64(), 42u);
    EXPECT_DOUBLE_EQ(back.get("top").asDouble(), 18446744073709551615.0);

    // Negative integers are not unsigned: callers reject, not wrap.
    ASSERT_TRUE(Json::parse("-1", &back));
    EXPECT_FALSE(back.isUInt64());
    EXPECT_TRUE(back.isNumber());
}

TEST(JsonEdge, PlusPrefixedAndOddTokensKeepTheirMeaning)
{
    // The number scanner takes the longest run of [0-9.eE+-]; what
    // strtod accepted stays accepted (as a double), what it rejected
    // stays an error.
    Json out;
    ASSERT_TRUE(Json::parse("+5", &out));
    EXPECT_EQ(out.kind(), Json::Kind::Double);
    EXPECT_EQ(out.asDouble(), 5.0);
    ASSERT_TRUE(Json::parse("1e+5", &out));
    EXPECT_EQ(out.kind(), Json::Kind::Double);
    EXPECT_EQ(out.asDouble(), 1e5);
    ASSERT_TRUE(Json::parse("007", &out));
    EXPECT_EQ(out.kind(), Json::Kind::Int);
    EXPECT_EQ(out.asInt(), 7);
    ASSERT_TRUE(Json::parse("-0", &out));
    EXPECT_EQ(out.kind(), Json::Kind::Int);
    ASSERT_TRUE(Json::parse("1.", &out));
    EXPECT_EQ(out.asDouble(), 1.0);
    ASSERT_TRUE(Json::parse("1e999", &out));  // strtod overflow: inf
    EXPECT_TRUE(out.isNull());
    EXPECT_FALSE(Json::parse("++5", &out));
    EXPECT_FALSE(Json::parse("1-2", &out));
    EXPECT_FALSE(Json::parse("1e+", &out));
}

TEST(JsonEdge, ExactDoubleRoundTripsBitForBit)
{
    // %.10g (the sinks' compact default) loses bits on purpose; the
    // wire codecs use exactDouble to get them all back.
    const double values[] = {0.1, 1.0 / 3.0, 2.515, 6.02214076e23,
                             -1.7976931348623157e308, 5e-324};
    for (double v : values) {
        Json back;
        ASSERT_TRUE(Json::parse(Json::exactDouble(v).dump(), &back));
        EXPECT_EQ(back.asDouble(), v) << v;
    }
}

TEST(JsonEdge, RejectsMalformedNumbers)
{
    Json out;
    EXPECT_FALSE(Json::parse("1.2.3", &out));
    EXPECT_FALSE(Json::parse("1e", &out));
    EXPECT_FALSE(Json::parse("-", &out));
    EXPECT_FALSE(Json::parse("0x10", &out));
}

// ---------------------------------------------------------------------
// Nesting depth
// ---------------------------------------------------------------------

namespace {

std::string
nested(int depth, char open, char close)
{
    std::string text(depth, open);
    text.append(depth, close);
    return text;
}

} // namespace

TEST(JsonEdge, DeepNestingWithinLimitParses)
{
    Json out;
    std::string error;
    ASSERT_TRUE(Json::parse(nested(Json::maxParseDepth, '[', ']'), &out,
                            &error))
        << error;
}

TEST(JsonEdge, HostileNestingIsAParseErrorNotACrash)
{
    // One level past the limit, and *far* past it (the case that would
    // smash the stack without the guard).
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse(nested(Json::maxParseDepth + 1, '[', ']'),
                             &out, &error));
    EXPECT_NE(error.find("nesting"), std::string::npos);
    EXPECT_FALSE(
        Json::parse(nested(100000, '[', ']'), &out, &error));

    // Mixed object/array nesting hits the same guard.
    std::string mixed;
    for (int i = 0; i < Json::maxParseDepth + 1; ++i)
        mixed += "{\"k\":[";
    EXPECT_FALSE(Json::parse(mixed, &out, &error));
}

TEST(JsonEdge, DumpWithRawEqualsSetThenDump)
{
    Json inner = Json::object();
    inner.set("x", Json::exactDouble(0.1));
    inner.set("s", "q\"uote");
    for (int members = 0; members < 3; ++members) {
        Json head = Json::object();
        for (int i = 0; i < members; ++i)
            head.set("k" + std::to_string(i), i);
        Json whole = head;
        whole.set("ke\ty", inner);
        EXPECT_EQ(head.dumpWithRaw("ke\ty", inner.dump()), whole.dump());
    }
}

TEST(JsonEdge, DuplicateObjectKeysKeepTheFirst)
{
    Json out;
    ASSERT_TRUE(Json::parse("{\"k\":1,\"k\":2}", &out));
    EXPECT_EQ(out.get("k").asInt(), 1);
    EXPECT_EQ(out.size(), 1u);
}

// ---------------------------------------------------------------------
// Codec byte identity
// ---------------------------------------------------------------------

namespace {

std::string
printfDouble(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    return buf;
}

/** Both double renderings of @p value match printf's. */
void
expectPrintfBytes(double value)
{
    EXPECT_EQ(Json(value).dump(), printfDouble("%.10g", value))
        << printfDouble("%a", value);
    EXPECT_EQ(Json::exactDouble(value).dump(),
              printfDouble("%.17g", value))
        << printfDouble("%a", value);
}

/** The number grammar the parser was defined by: the longest run of
 *  [0-9.eE+-], then strtoll for integral tokens, strtoull for the
 *  integers above INT64_MAX, strtod for everything else. */
bool
referenceNumber(const std::string &token, Json &out)
{
    bool integral = token.find_first_of(".eE+") == std::string::npos &&
                    token.find('-', 1) == std::string::npos;
    char *end = nullptr;
    if (integral) {
        errno = 0;
        long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && *end == '\0') {
            out = Json(static_cast<int64_t>(v));
            return true;
        }
        if (token[0] != '-') {
            errno = 0;
            unsigned long long u = std::strtoull(token.c_str(), &end, 10);
            if (errno == 0 && *end == '\0') {
                out = Json(static_cast<uint64_t>(u));
                return true;
            }
        }
    }
    double d = std::strtod(token.c_str(), &end);
    if (*end != '\0')
        return false;
    out = Json(d);
    return true;
}

/** Same parse outcome: success, kind, and value bit for bit. */
void
expectSameNumber(const std::string &token)
{
    Json want, got;
    bool want_ok = referenceNumber(token, want);
    bool got_ok = Json::parse(token, &got);
    ASSERT_EQ(got_ok, want_ok) << "'" << token << "'";
    if (!got_ok)
        return;
    ASSERT_EQ(got.kind(), want.kind()) << "'" << token << "'";
    if (got.kind() == Json::Kind::Double) {
        double a = got.asDouble(), b = want.asDouble();
        EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "'" << token << "'";
    } else if (got.isNumber()) {
        EXPECT_EQ(got.dump(), want.dump()) << "'" << token << "'";
    }
}

/** The byte-at-a-time escaper the run-copying one replaced. */
std::string
referenceEscaped(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out + "\"";
}

} // namespace

TEST(JsonCodec, DoubleFormattingMatchesPrintf)
{
    std::mt19937_64 rng(20001017);
    // Random bit patterns cover every exponent, subnormals included.
    for (int i = 0; i < 200000; ++i) {
        uint64_t bits = rng();
        double value;
        std::memcpy(&value, &bits, sizeof value);
        if (std::isfinite(value))
            expectPrintfBytes(value);
    }
    // Subnormals, explicitly.
    for (int i = 0; i < 20000; ++i) {
        uint64_t bits = rng() & ((uint64_t{1} << 52) - 1);
        bits |= (rng() & 1) << 63;
        double value;
        std::memcpy(&value, &bits, sizeof value);
        expectPrintfBytes(value);
    }
    // Decimal-looking values, where %g's rounding and its switch
    // between fixed and exponent notation are exercised.
    std::uniform_int_distribution<int> digits(0, 999999);
    for (int e = -330; e <= 310; ++e) {
        double scale = std::pow(10.0, e);
        for (double v : {scale, std::nextafter(scale, 0.0),
                         std::nextafter(scale, INFINITY),
                         digits(rng) * scale, 0.5 * scale, -scale})
            if (std::isfinite(v))
                expectPrintfBytes(v);
    }
    for (double v : {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.515,
                     DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_EPSILON,
                     std::numeric_limits<double>::denorm_min(),
                     -std::numeric_limits<double>::denorm_min(), 1e-5,
                     9.9999999995e-5, 1e10, 9999999999.5, 1e17,
                     9007199254740993.0, 123456789012345678.0})
        expectPrintfBytes(v);
}

TEST(JsonCodec, IntegerFormattingMatchesPrintf)
{
    auto lld = [](long long v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", v);
        return std::string(buf);
    };
    auto llu = [](unsigned long long v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu", v);
        return std::string(buf);
    };
    std::mt19937_64 rng(7);
    for (int64_t v : {std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::min() + 1,
                      int64_t{-1}, int64_t{0}, int64_t{1},
                      std::numeric_limits<int64_t>::max()})
        EXPECT_EQ(Json(v).dump(), lld(v));
    for (uint64_t v : {uint64_t{0}, uint64_t{1} << 63,
                       (uint64_t{1} << 63) + 1,
                       std::numeric_limits<uint64_t>::max()})
        EXPECT_EQ(Json(v).dump(), llu(v));
    for (int i = 0; i < 100000; ++i) {
        uint64_t bits = rng() >> (rng() % 64);
        EXPECT_EQ(Json(static_cast<int64_t>(bits)).dump(),
                  lld(static_cast<long long>(bits)));
        EXPECT_EQ(Json(bits).dump(), llu(bits));
    }
}

TEST(JsonCodec, NumberParsingMatchesStrtod)
{
    for (const char *token :
         {"0", "-0", "007", "+5", "-", "--5", "1e", "1e+", "1e5", "1E-5",
          "1.", ".5", "-.5", "1.2.3", "1-2", "1e999", "-1e999", "1e-999",
          "4.9e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
          "9223372036854775807", "9223372036854775808",
          "-9223372036854775808", "-9223372036854775809",
          "18446744073709551615", "18446744073709551616",
          "99999999999999999999999", "1.7976931348623157e308",
          "1.7976931348623159e308", "0.1e1", "00.5e-0"})
        expectSameNumber(token);

    std::mt19937_64 rng(9001);
    // Random runs over the scanner's alphabet, weighted to digits.
    const char alphabet[] = "0123456789012345678901234567890123456789.eE+-";
    for (int i = 0; i < 100000; ++i) {
        std::string token;
        size_t length = 1 + rng() % 24;
        token.push_back("0123456789-"[rng() % 11]);
        while (token.size() < length)
            token.push_back(alphabet[rng() % (sizeof alphabet - 1)]);
        expectSameNumber(token);
    }
    // Every double's printf renderings parse back as strtod reads
    // them (and %.17g bit-exactly).
    for (int i = 0; i < 100000; ++i) {
        uint64_t bits = rng();
        double value;
        std::memcpy(&value, &bits, sizeof value);
        if (!std::isfinite(value))
            continue;
        for (const char *format : {"%.17g", "%.10g", "%.3e", "%.25f"}) {
            std::string token = printfDouble(format, value);
            if (token.size() < 400)
                expectSameNumber(token);
        }
    }
}

TEST(JsonCodec, StringEscapingMatchesTheByteAtATimeReference)
{
    std::mt19937_64 rng(1017);
    for (int i = 0; i < 50000; ++i) {
        std::string s;
        size_t length = rng() % 48;
        for (size_t j = 0; j < length; ++j) {
            // Half printable ASCII, half any byte at all.
            s.push_back(static_cast<char>(
                rng() % 2 ? 0x20 + rng() % 95 : rng() % 256));
        }
        std::string dumped = Json(s).dump();
        ASSERT_EQ(dumped, referenceEscaped(s));
        Json back;
        ASSERT_TRUE(Json::parse(dumped, &back));
        ASSERT_EQ(back.asString(), s);
    }
}
