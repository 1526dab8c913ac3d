#pragma once

/**
 * @file
 * Minimal key=value configuration store used by the examples and the
 * benchmark harness to override simulation parameters from the command
 * line or from simple .ini-style strings ("key = value" lines, '#'
 * comments).
 */

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hermes
{

/**
 * Strict scalar parsers shared by Config and the parameter registry.
 * The whole string must parse: trailing garbage, overflow and (for
 * doubles) NaN/inf are rejected with std::nullopt. Integers are
 * decimal or 0x hex; a leading-zero literal ("010") is rejected, not
 * read as octal.
 */
std::optional<std::int64_t> parseInt64(const std::string &s);
std::optional<std::uint64_t> parseUint64(const std::string &s);
std::optional<double> parseFiniteDouble(const std::string &s);
std::optional<bool> parseBoolWord(const std::string &s);

/**
 * The numeric front-end flags, parsed one way by hermes_run,
 * hermes_sweep, hermes_trace and the bench harness.
 *  - parseCount: a non-negative integer with no sign, no leading
 *    whitespace and no octal-looking leading zero (--warmup, --instrs,
 *    hermes_trace's --count/--seed-offset/--head);
 *  - parseScale: a finite number > 0 with no leading whitespace
 *    (--scale, HERMES_SIM_SCALE);
 *  - parseThreadCount: a parseCount value up to INT_MAX (--threads,
 *    HERMES_THREADS; 0 means all hardware threads).
 */
std::optional<std::uint64_t> parseCount(const std::string &s);
std::optional<double> parseScale(const std::string &s);
std::optional<int> parseThreadCount(const std::string &s);

/**
 * parseInt64 plus case-insensitive K/M/G suffixes (powers of 1024),
 * e.g. "3M" == 3145728. Negative values and overflow are rejected.
 */
std::optional<std::uint64_t> parseSizeBytes(const std::string &s);

/**
 * Levenshtein distance between two strings. Shared by every registry
 * (params, stats, models) to turn "unknown key" errors into
 * "did you mean ...?" suggestions.
 */
std::size_t editDistance(const std::string &a, const std::string &b);

/** Ordered key=value store with typed accessors. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse "key = value" lines. Blank lines and lines starting with '#'
     * or ';' are ignored. Later keys override earlier ones.
     * @return false if any non-comment line is malformed.
     */
    bool parse(const std::string &text);

    /** Parse command-line style "key=value" tokens; others are ignored. */
    void parseArgs(int argc, const char *const *argv);

    void set(const std::string &key, const std::string &value);
    bool contains(const std::string &key) const;

    std::optional<std::string> getString(const std::string &key) const;
    std::optional<std::int64_t> getInt(const std::string &key) const;
    std::optional<double> getDouble(const std::string &key) const;
    std::optional<bool> getBool(const std::string &key) const;

    /** Typed accessors with defaults. */
    std::string get(const std::string &key, const std::string &dflt) const;
    std::int64_t get(const std::string &key, std::int64_t dflt) const;
    double get(const std::string &key, double dflt) const;
    bool get(const std::string &key, bool dflt) const;

    /** All keys, in insertion order. */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> order_;
};

} // namespace hermes
