#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace wg {

std::string
formatMetricValue(double value)
{
    constexpr double kMaxExactInt = 9007199254740992.0; // 2^53
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < kMaxExactInt) {
        return std::to_string(static_cast<long long>(value));
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

namespace {

/** Append a Unicode code point as UTF-8. */
void
appendUtf8(std::string& out, std::uint32_t cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xE0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
        out += static_cast<char>(0xF0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    }
}

} // namespace

Json
Json::null()
{
    return Json();
}

Json
Json::boolean(bool v)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.bool_ = v;
    return j;
}

Json
Json::number(double v)
{
    Json j;
    j.kind_ = Kind::Number;
    j.num_ = v;
    j.lexeme_ = formatMetricValue(v);
    return j;
}

Json
Json::number(std::uint64_t v)
{
    Json j;
    j.kind_ = Kind::Number;
    j.num_ = static_cast<double>(v);
    j.lexeme_ = std::to_string(v);
    return j;
}

Json
Json::string(std::string v)
{
    Json j;
    j.kind_ = Kind::String;
    j.str_ = std::move(v);
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

std::uint64_t
Json::asU64() const
{
    if (num_ < 0.0)
        return 0;
    // Counters we serialize are emitted via the exact-integer path, so
    // the lexeme is authoritative when present (cycles can sit above
    // 2^53 in principle; doubles round there).
    if (!lexeme_.empty() && lexeme_.find_first_of(".eE-") ==
                                std::string::npos) {
        char* end = nullptr;
        std::uint64_t v = std::strtoull(lexeme_.c_str(), &end, 10);
        if (end && *end == '\0')
            return v;
    }
    return static_cast<std::uint64_t>(num_);
}

const char*
Json::toU64(std::uint64_t& out) const
{
    if (lexeme_.empty() ||
        lexeme_.find_first_not_of("0123456789") != std::string::npos)
        return "expected an unsigned integer";
    const char* last = lexeme_.data() + lexeme_.size();
    if (std::from_chars(lexeme_.data(), last, out).ec != std::errc())
        return "out of range";
    return nullptr;
}

void
Json::append(Json v)
{
    items_.push_back(std::move(v));
}

void
Json::set(const std::string& key, Json v)
{
    for (auto& [k, existing] : members_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members_.emplace_back(key, std::move(v));
}

const Json*
Json::find(std::string_view key) const
{
    for (const auto& [k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

void
Json::dumpTo(std::string& out) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        out += lexeme_.empty() ? formatMetricValue(num_)
                               : lexeme_;
        break;
      case Kind::String:
        out += '"';
        out += jsonEscape(str_);
        out += '"';
        break;
      case Kind::Array: {
        out += '[';
        bool first = true;
        for (const Json& v : items_) {
            if (!first)
                out += ',';
            first = false;
            v.dumpTo(out);
        }
        out += ']';
        break;
      }
      case Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto& [k, v] : members_) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += jsonEscape(k);
            out += "\":";
            v.dumpTo(out);
        }
        out += '}';
        break;
      }
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

/**
 * Recursive-descent parser with explicit limits, building the tree and
 * keeping number lexemes. Recursion is bounded by maxDepth.
 */
class JsonParser
{
  public:
    JsonParser(const std::string& text, const JsonLimits& limits)
        : text_(text), limits_(limits)
    {
    }

    bool
    run(Json& out, std::string& error)
    {
        if (!value(out, 0)) {
            error = error_.empty() ? "malformed JSON" : error_;
            return false;
        }
        skipWs();
        if (pos_ != text_.size()) {
            error = "trailing content after JSON document";
            return false;
        }
        return true;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    fail(const std::string& what)
    {
        if (error_.empty())
            error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos_;
        return true;
    }

    bool
    parseHex4(std::uint32_t& out)
    {
        if (pos_ + 4 > text_.size())
            return fail("bad \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                return fail("bad \\u escape");
        }
        return true;
    }

    bool
    parseString(std::string& out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            if (out.size() > limits_.maxStringBytes)
                return fail("string exceeds size limit");
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("bad escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                std::uint32_t cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // Surrogate pair: require the low half.
                    if (pos_ + 2 > text_.size() ||
                        text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
                        return fail("lone high surrogate");
                    pos_ += 2;
                    std::uint32_t lo = 0;
                    if (!parseHex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("bad low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("lone low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    number(Json& out)
    {
        // Validate the JSON number grammar by hand; strtod alone would
        // accept hex, inf and nan, which must be wire errors.
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        std::size_t digits = 0;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
            ++pos_;
            ++digits;
        }
        if (digits == 0)
            return fail("expected a value");
        if (digits > 1 && text_[start] == '0')
            return fail("leading zero in number");
        if (digits > 1 && text_[start] == '-' && text_[start + 1] == '0')
            return fail("leading zero in number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            std::size_t frac = 0;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                ++frac;
            }
            if (frac == 0)
                return fail("bad fraction");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            std::size_t exp = 0;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                ++exp;
            }
            if (exp == 0)
                return fail("bad exponent");
        }
        out.kind_ = Json::Kind::Number;
        out.lexeme_ = text_.substr(start, pos_ - start);
        out.num_ = std::strtod(out.lexeme_.c_str(), nullptr);
        return true;
    }

    bool
    value(Json& out, std::size_t depth)
    {
        if (depth > limits_.maxDepth)
            return fail("nesting exceeds depth limit");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{')
            return object(out, depth);
        if (c == '[')
            return array(out, depth);
        if (c == '"') {
            out.kind_ = Json::Kind::String;
            return parseString(out.str_);
        }
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            out = Json::boolean(true);
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            out = Json::boolean(false);
            return true;
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            out = Json::null();
            return true;
        }
        return number(out);
    }

    bool
    object(Json& out, std::size_t depth)
    {
        if (!consume('{'))
            return false;
        out.kind_ = Json::Kind::Object;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            if (out.members_.size() >= limits_.maxContainerItems)
                return fail("object exceeds member limit");
            std::string name;
            skipWs();
            if (!parseString(name))
                return false;
            if (!consume(':'))
                return false;
            Json member;
            if (!value(member, depth + 1))
                return false;
            // Duplicate keys are a wire error: silently keeping either
            // value would make dedup hashes input-order dependent.
            if (out.find(name) != nullptr)
                return fail("duplicate object key '" + name + "'");
            out.members_.emplace_back(std::move(name),
                                      std::move(member));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            return consume('}');
        }
    }

    bool
    array(Json& out, std::size_t depth)
    {
        if (!consume('['))
            return false;
        out.kind_ = Json::Kind::Array;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            if (out.items_.size() >= limits_.maxContainerItems)
                return fail("array exceeds item limit");
            Json item;
            if (!value(item, depth + 1))
                return false;
            out.items_.push_back(std::move(item));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            return consume(']');
        }
    }

    const std::string& text_;
    const JsonLimits& limits_;
    std::size_t pos_ = 0;
    std::string error_;
};

bool
Json::parse(const std::string& text, Json& out, std::string& error,
            const JsonLimits& limits)
{
    out = Json();
    return JsonParser(text, limits).run(out, error);
}

} // namespace wg
