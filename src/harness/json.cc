#include "harness/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "support/logging.h"

namespace rtd::harness {

Json::Json(uint64_t value)
    : kind_(value > static_cast<uint64_t>(INT64_MAX) ? Kind::UInt
                                                     : Kind::Int),
      int_(static_cast<int64_t>(value))
{
}

Json::Json(double value) : kind_(Kind::Double), double_(value)
{
    if (!std::isfinite(value))
        kind_ = Kind::Null;
}

Json
Json::exactDouble(double value)
{
    Json v(value);
    v.exact_ = true;
    return v;
}

Json
Json::array()
{
    Json v;
    v.kind_ = Kind::Array;
    v.value_.emplace<std::vector<Json>>();
    return v;
}

Json
Json::object()
{
    Json v;
    v.kind_ = Kind::Object;
    v.value_.emplace<Members>();
    return v;
}

Json
Json::raw(std::string compactJson)
{
    Json v;
    v.kind_ = Kind::Raw;
    v.value_.emplace<std::string>(std::move(compactJson));
    return v;
}

bool
Json::asBool() const
{
    RTDC_ASSERT(kind_ == Kind::Bool, "JSON value is not a bool");
    return bool_;
}

int64_t
Json::asInt() const
{
    RTDC_ASSERT(kind_ == Kind::Int, "JSON value is not an integer");
    return int_;
}

uint64_t
Json::asUInt64() const
{
    RTDC_ASSERT(isUInt64(), "JSON value is not an unsigned integer");
    return static_cast<uint64_t>(int_);
}

double
Json::asDouble() const
{
    RTDC_ASSERT(isNumber(), "JSON value is not a number");
    switch (kind_) {
      case Kind::Int: return static_cast<double>(int_);
      case Kind::UInt: return static_cast<double>(asUInt64());
      default: return double_;
    }
}

const std::string &
Json::asString() const
{
    RTDC_ASSERT(kind_ == Kind::String, "JSON value is not a string");
    return std::get<std::string>(value_);
}

void
Json::push(Json value)
{
    RTDC_ASSERT(kind_ == Kind::Array, "push() on a non-array JSON value");
    std::get<std::vector<Json>>(value_).push_back(std::move(value));
}

size_t
Json::size() const
{
    switch (kind_) {
      case Kind::Array: return std::get<std::vector<Json>>(value_).size();
      case Kind::Object: return std::get<Members>(value_).size();
      default: return 0;
    }
}

const Json &
Json::at(size_t index) const
{
    RTDC_ASSERT(kind_ == Kind::Array && index < size(),
                "JSON array index out of range");
    return std::get<std::vector<Json>>(value_)[index];
}

const std::vector<Json> &
Json::items() const
{
    RTDC_ASSERT(kind_ == Kind::Array, "items() on a non-array JSON value");
    return std::get<std::vector<Json>>(value_);
}

void
Json::set(std::string_view key, Json value)
{
    RTDC_ASSERT(kind_ == Kind::Object, "set() on a non-object JSON value");
    Members &members = std::get<Members>(value_);
    for (auto &member : members) {
        if (member.first == key) {
            member.second = std::move(value);
            return;
        }
    }
    members.emplace_back(key, std::move(value));
}

const Json *
Json::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &member : std::get<Members>(value_)) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const Json &
Json::get(std::string_view key) const
{
    const Json *value = find(key);
    RTDC_ASSERT(value != nullptr, "missing JSON member '%.*s'",
                static_cast<int>(key.size()), key.data());
    return *value;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    RTDC_ASSERT(kind_ == Kind::Object,
                "members() on a non-object JSON value");
    return std::get<Members>(value_);
}

namespace {

/** Append @p value the way printf's %lld / %llu / %.*g would. */
template <typename... Format>
void
appendNumber(std::string &out, Format... value_and_format)
{
    char buf[40];
    std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, value_and_format...);
    out.append(buf, r.ptr);
}

void
appendNewline(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

/** Bytes that need no escape are copied in runs. */
void
Json::appendString(std::string &out, std::string_view s)
{
    static const char kHex[] = "0123456789abcdef";
    out += '"';
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                   kHex[c & 0xf]};
            out.append(escape, sizeof escape);
          }
        }
    }
    out.append(s, run, s.size() - run);
    out += '"';
}

void
Json::appendInt(std::string &out, int64_t value)
{
    appendNumber(out, value);
}

void
Json::appendUInt(std::string &out, uint64_t value)
{
    appendNumber(out, value);
}

void
Json::appendDouble(std::string &out, double value, bool exact)
{
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    // to_chars' "general" format at a given precision is defined as
    // printf's %.*g: the bytes are the snprintf ones.
    appendNumber(out, value, std::chars_format::general, exact ? 17 : 10);
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Int:
        appendInt(out, int_);
        break;
      case Kind::UInt:
        appendUInt(out, asUInt64());
        break;
      case Kind::Double:
        appendDouble(out, double_, exact_);
        break;
      case Kind::String:
        appendString(out, std::get<std::string>(value_));
        break;
      case Kind::Raw:
        out += std::get<std::string>(value_);
        break;
      case Kind::Array: {
        const std::vector<Json> &items = std::get<std::vector<Json>>(value_);
        out += '[';
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ',';
            appendNewline(out, indent, depth + 1);
            items[i].dumpTo(out, indent, depth + 1);
        }
        if (!items.empty())
            appendNewline(out, indent, depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        const Members &members = std::get<Members>(value_);
        out += '{';
        for (size_t i = 0; i < members.size(); ++i) {
            if (i)
                out += ',';
            appendNewline(out, indent, depth + 1);
            appendString(out, members[i].first);
            out += indent > 0 ? ": " : ":";
            members[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!members.empty())
            appendNewline(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

std::string
Json::dumpWithRaw(std::string_view key, std::string_view rawJson) const
{
    RTDC_ASSERT(kind_ == Kind::Object,
                "dumpWithRaw() on a non-object JSON value");
    std::string out;
    dumpTo(out, 0, 0);
    out.reserve(out.size() + key.size() + rawJson.size() + 4);
    out.pop_back();  // reopen the object: drop its closing '}'
    if (size() != 0)
        out += ',';
    appendString(out, key);
    out += ':';
    out.append(rawJson);
    out += '}';
    return out;
}

/** Recursive-descent JSON parser over a string. */
class Json::Parser
{
  public:
    Parser(std::string_view text) : text_(text) {}

    bool parse(Json *out, std::string *error)
    {
        skipSpace();
        Json value;
        if (!parseValue(value))
            return fail(error);
        skipSpace();
        if (pos_ != text_.size()) {
            error_ = "trailing characters";
            return fail(error);
        }
        *out = std::move(value);
        return true;
    }

  private:
    bool fail(std::string *error)
    {
        if (error) {
            *error = (error_.empty() ? "parse error" : error_) +
                     " at offset " + std::to_string(pos_);
        }
        return false;
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(std::string_view word, Json value, Json &out)
    {
        if (text_.compare(pos_, word.size(), word) != 0) {
            error_ = "invalid literal";
            return false;
        }
        pos_ += word.size();
        out = std::move(value);
        return true;
    }

    bool parseValue(Json &out)
    {
        if (pos_ >= text_.size()) {
            error_ = "unexpected end of input";
            return false;
        }
        char c = text_[pos_];
        switch (c) {
          case 'n': return literal("null", Json(), out);
          case 't': return literal("true", Json(true), out);
          case 'f': return literal("false", Json(false), out);
          case '"': return parseString(out);
          case '[': return parseArray(out);
          case '{': return parseObject(out);
          default: return parseNumber(out);
        }
    }

    /** Container-entry guard: bounded recursion is what keeps a
     *  deeply-nested wire payload a parse error instead of a stack
     *  overflow. */
    bool enter()
    {
        if (++depth_ > Json::maxParseDepth) {
            error_ = "nesting too deep";
            return false;
        }
        return true;
    }
    void leave() { --depth_; }

    bool parseString(Json &out)
    {
        std::string s;
        if (!parseRawString(s))
            return false;
        out = Json(std::move(s));
        return true;
    }

    bool parseRawString(std::string &s)
    {
        ++pos_;  // opening quote
        while (pos_ < text_.size() && text_[pos_] != '"') {
            // Copy the run up to the next quote or escape in one go.
            size_t run = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"' &&
                   text_[pos_] != '\\')
                ++pos_;
            s.append(text_, run, pos_ - run);
            if (pos_ >= text_.size() || text_[pos_] == '"')
                break;
            if (pos_ + 1 >= text_.size()) {
                error_ = "bad escape";
                return false;
            }
            char esc = text_[pos_ + 1];
            pos_ += 2;
            switch (esc) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    error_ = "bad \\u escape";
                    return false;
                }
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_ + i];
                    cp <<= 4;
                    if (h >= '0' && h <= '9') cp |= h - '0';
                    else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
                    else {
                        error_ = "bad \\u escape";
                        return false;
                    }
                }
                pos_ += 4;
                // UTF-8 encode the basic-plane code point (surrogate
                // pairs are not combined; the sink never emits them).
                if (cp < 0x80) {
                    s += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    s += static_cast<char>(0xc0 | (cp >> 6));
                    s += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    s += static_cast<char>(0xe0 | (cp >> 12));
                    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    s += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                error_ = "bad escape";
                return false;
            }
        }
        if (pos_ >= text_.size()) {
            error_ = "unterminated string";
            return false;
        }
        ++pos_;  // closing quote
        return true;
    }

    /**
     * Numbers. The token is the longest run of [0-9.eE+-]. from_chars
     * reads the common spellings; whatever it rejects or reads only in
     * part (a leading '+', an exponent without digits, a value out of
     * range) goes to strtod, so every token means what strtoll and
     * strtod make of it. Integers out of int64 range become UInt when
     * they fit uint64, else the nearest double.
     */
    bool parseNumber(Json &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) {
            error_ = "invalid value";
            return false;
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (integral) {
            int64_t v = 0;
            std::from_chars_result r = std::from_chars(first, last, v);
            if (r.ec == std::errc() && r.ptr == last) {
                out = Json(v);
                return true;
            }
            uint64_t u = 0;
            r = std::from_chars(first, last, u);
            if (r.ec == std::errc() && r.ptr == last) {
                out = Json(u);
                return true;
            }
            // Fall through to double for out-of-range integers.
        } else {
            double d = 0.0;
            std::from_chars_result r = std::from_chars(first, last, d);
            if (r.ec == std::errc() && r.ptr == last) {
                out = Json(d);
                return true;
            }
        }
        std::string token(first, last);
        char *end = nullptr;
        double d = std::strtod(token.c_str(), &end);
        if (!end || *end != '\0') {
            error_ = "invalid number";
            return false;
        }
        out = Json(d);
        return true;
    }

    // Containers are built in @p out and each element is parsed in
    // place: no Json is moved on the way in.
    bool parseArray(Json &out)
    {
        if (!enter())
            return false;
        ++pos_;  // '['
        out = Json::array();
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            leave();
            return true;
        }
        while (true) {
            skipSpace();
            if (!parseValue(
                    std::get<std::vector<Json>>(out.value_).emplace_back()))
                return false;
            skipSpace();
            if (pos_ >= text_.size()) {
                error_ = "unterminated array";
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                leave();
                return true;
            }
            error_ = "expected ',' or ']'";
            return false;
        }
    }

    bool parseObject(Json &out)
    {
        if (!enter())
            return false;
        ++pos_;  // '{'
        out = Json::object();
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            leave();
            return true;
        }
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                error_ = "expected object key";
                return false;
            }
            std::string key;
            if (!parseRawString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                error_ = "expected ':'";
                return false;
            }
            ++pos_;
            skipSpace();
            // Duplicate keys keep the first: a repeat is parsed and
            // dropped. A new key is appended directly (set() would
            // scan the members a second time).
            Json duplicate;
            Json &value = out.find(key)
                              ? duplicate
                              : std::get<Members>(out.value_)
                                    .emplace_back(std::move(key), Json())
                                    .second;
            if (!parseValue(value))
                return false;
            skipSpace();
            if (pos_ >= text_.size()) {
                error_ = "unterminated object";
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                leave();
                return true;
            }
            error_ = "expected ',' or '}'";
            return false;
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

bool
Json::parse(std::string_view text, Json *out, std::string *error)
{
    return Parser(text).parse(out, error);
}

} // namespace rtd::harness
