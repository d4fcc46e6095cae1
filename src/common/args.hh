/**
 * @file
 * Minimal command-line flag parser for the tools.
 *
 * Supports `--name value`, `--name=value` and boolean `--name` flags,
 * with typed accessors, defaults, and an auto-generated usage text.
 */

#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace wg {

/**
 * Value type of one command-line flag. Count is an Int that parse()
 * rejects when negative: sizes, counts, ports and cycle budgets, which
 * the tools hold in unsigned types a negative value would wrap.
 */
enum class FlagKind : std::uint8_t { String, Int, Count, Double, Bool };

/**
 * One row of a declarative flag table. Tools declare their whole
 * command line as a `constexpr FlagSpec[]` and hand it to ArgParser in
 * one go — the table is the single source of truth for parsing and the
 * generated --help text.
 */
struct FlagSpec
{
    const char* name; ///< flag name without the leading "--"
    FlagKind kind;
    const char* def;  ///< default, rendered verbatim (ignored for Bool)
    const char* help; ///< one-line description for --help
};

/** Declarative flag set + parsed values. */
class ArgParser
{
  public:
    /** @param program name shown in usage output. */
    explicit ArgParser(std::string program, std::string description = "");

    /** Declare every flag of @p flags up front (table form). */
    ArgParser(std::string program, std::string description,
              std::span<const FlagSpec> flags);

    /** Declare a string flag. */
    void addString(const std::string& name, const std::string& def,
                   const std::string& help);

    /** Declare an integer flag. */
    void addInt(const std::string& name, std::int64_t def,
                const std::string& help);

    /** Declare a double flag. */
    void addDouble(const std::string& name, double def,
                   const std::string& help);

    /** Declare a boolean flag (presence = true). */
    void addBool(const std::string& name, const std::string& help);

    /**
     * Parse argv. @return false on error or when --help was given (an
     * error/usage message has been printed to stderr).
     */
    bool parse(int argc, const char* const* argv);

    /**
     * True when parse() returned false because --help/-h was given
     * rather than because of a bad command line — tools use this to
     * exit 0 for a help request and 2 for an actual usage error.
     */
    bool helpRequested() const { return help_requested_; }

    std::string getString(const std::string& name) const;
    std::int64_t getInt(const std::string& name) const;
    std::uint64_t getCount(const std::string& name) const;
    double getDouble(const std::string& name) const;
    bool getBool(const std::string& name) const;

    /** true when the flag appeared on the command line. */
    bool given(const std::string& name) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string>& positional() const
    {
        return positional_;
    }

    /** Render the usage text. */
    std::string usage() const;

  private:
    using Kind = FlagKind;

    struct Flag
    {
        Kind kind;
        std::string def;
        std::string help;
        std::string value;
        bool given = false;
    };

    const Flag& find(const std::string& name, Kind kind) const;

    std::string program_;
    std::string description_;
    std::map<std::string, Flag> flags_;
    std::vector<std::string> order_;
    std::vector<std::string> positional_;
    bool help_requested_ = false;
};

} // namespace wg

