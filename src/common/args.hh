/**
 * @file
 * Minimal command-line flag parser for the tools.
 *
 * Supports `--name value`, `--name=value` and boolean `--name` flags,
 * with typed accessors, defaults, and an auto-generated usage text.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace wg {

/**
 * Value type of one command-line flag. Count is an Int that parse()
 * rejects when negative or above its row's `max`: sizes, counts, ports
 * and cycle budgets, which the tools hold in unsigned types a negative
 * value would wrap and a narrower type would truncate.
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
    /**
     * Count only: the largest accepted value. A row whose value is
     * narrowed or range-checked names that type's maximum or that
     * limit; the default is the largest value the parser reads.
     */
    std::int64_t max = std::numeric_limits<std::int64_t>::max();
};

/** Declarative flag set + parsed values. */
class ArgParser
{
  public:
    /**
     * Declare every flag of @p flags, then of @p shared (a table more
     * than one tool uses), in that order.
     * @param program name shown in usage output.
     */
    ArgParser(std::string program, std::string description,
              std::span<const FlagSpec> flags,
              std::span<const FlagSpec> shared = {});

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
        std::int64_t max;
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

