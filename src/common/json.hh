/**
 * @file
 * The one JSON document model of the tree: the serving wire format,
 * checkpoints, the JSONL trace reader and the metrics loader all parse
 * through Json::parse. Typed readers and the field-list codec built on
 * it live in common/codec.hh.
 *
 * Determinism contract: numbers remember their source lexeme, so
 * parse -> serialize reproduces the input bytes for any number the
 * simulator emits, and programmatically-built numbers are formatted
 * with formatMetricValue (integers exactly, doubles with round-trip
 * precision). Object members keep insertion order; two builds of the
 * same document therefore serialize byte-identically.
 *
 * Parsing never aborts: every malformed input — truncated or too
 * deeply nested documents, non-JSON numbers (nan, hex), duplicate
 * keys, oversized fields — comes back as an error string.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/jsonescape.hh"

namespace wg {

/**
 * Deterministic number formatting: integral values (|v| < 2^53) print
 * without a decimal point, everything else with round-trip (%.17g)
 * precision, so parse(format(v)) == v exactly.
 */
std::string formatMetricValue(double value);

/** Hard input limits; exceeding any of them is a parse error. */
struct JsonLimits
{
    std::size_t maxDepth = 64;          ///< nesting depth
    std::size_t maxStringBytes = 1 << 16; ///< one string literal
    std::size_t maxContainerItems = 1 << 16; ///< members per container
};

/** One JSON value (tree node). */
class Json
{
  public:
    enum class Kind : std::uint8_t {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;

    static Json null();
    static Json boolean(bool v);
    /** Number formatted deterministically (formatMetricValue). */
    static Json number(double v);
    /** Unsigned counter; always formatted as an exact integer. */
    static Json number(std::uint64_t v);
    static Json string(std::string v);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }
    double asDouble() const { return num_; }
    /** Value as an unsigned counter (truncates; caller range-checks). */
    std::uint64_t asU64() const;
    /**
     * Read the number exactly as an unsigned integer: its lexeme must
     * be plain decimal digits (no '.', exponent or sign) within 64
     * bits. @return null on success, else why not ("expected an
     * unsigned integer" or "out of range").
     */
    const char* toU64(std::uint64_t& out) const;
    const std::string& asString() const { return str_; }

    /** Array elements (empty unless isArray()). */
    const std::vector<Json>& items() const { return items_; }
    void append(Json v);

    /** Object members in insertion order (empty unless isObject()). */
    const std::vector<std::pair<std::string, Json>>& members() const
    {
        return members_;
    }

    /** Add/replace a member (replacing keeps the original position). */
    void set(const std::string& key, Json v);

    /** @return the member, or nullptr when absent. */
    const Json* find(std::string_view key) const;

    /** Serialize compactly (no whitespace). */
    std::string dump() const;

    /**
     * Parse @p text into @p out.
     * @return false with @p error set on malformed or oversized input;
     *         never aborts.
     */
    static bool parse(const std::string& text, Json& out,
                      std::string& error,
                      const JsonLimits& limits = {});

  private:
    void dumpTo(std::string& out) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string lexeme_; ///< number source text (exact re-emission)
    std::string str_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;

    friend class JsonParser;
};

} // namespace wg
