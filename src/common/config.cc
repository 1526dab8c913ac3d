#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace hermes
{

namespace
{

std::string
trim(const std::string &s)
{
    auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
    auto b = std::find_if_not(s.begin(), s.end(), is_space);
    auto e = std::find_if_not(s.rbegin(), s.rend(), is_space).base();
    return (b < e) ? std::string(b, e) : std::string();
}

/**
 * True for a literal base 0 would read as octal ("010", "-07", "00"):
 * a zero followed by anything but the 'x' of a hex prefix. Rejected
 * rather than read as decimal, since "010" means 8 to C and 10 to a
 * person.
 */
bool
leadingZero(const std::string &s)
{
    std::size_t i = 0;
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+'))
        ++i;
    return i + 1 < s.size() && s[i] == '0' && s[i + 1] != 'x' &&
           s[i + 1] != 'X';
}

} // namespace

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

std::optional<std::int64_t>
parseInt64(const std::string &s)
{
    if (leadingZero(s))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s.c_str(), &end, 0);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE)
        return std::nullopt;
    return static_cast<std::int64_t>(v);
}

std::optional<std::uint64_t>
parseUint64(const std::string &s)
{
    // strtoull silently wraps negatives ("-1" -> UINT64_MAX); reject
    // any minus sign up front.
    if (s.find('-') != std::string::npos || leadingZero(s))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE)
        return std::nullopt;
    return static_cast<std::uint64_t>(v);
}

std::optional<double>
parseFiniteDouble(const std::string &s)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    // Overflow parses to +-inf; "nan"/"inf" literals are rejected the
    // same way (no configuration knob here has a non-finite meaning).
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::optional<std::uint64_t>
parseCount(const std::string &s)
{
    // strtoull would skip leading whitespace and take a sign; a count
    // starts with its first digit.
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return std::nullopt;
    return parseUint64(s);
}

std::optional<double>
parseScale(const std::string &s)
{
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])))
        return std::nullopt;
    const auto v = parseFiniteDouble(s);
    if (!v || *v <= 0)
        return std::nullopt;
    return v;
}

std::optional<int>
parseThreadCount(const std::string &s)
{
    const auto v = parseCount(s);
    if (!v || *v > static_cast<std::uint64_t>(
                       std::numeric_limits<int>::max()))
        return std::nullopt;
    return static_cast<int>(*v);
}

std::optional<bool>
parseBoolWord(const std::string &s)
{
    std::string v = s;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    return std::nullopt;
}

std::optional<std::uint64_t>
parseSizeBytes(const std::string &s)
{
    if (s.empty())
        return std::nullopt;
    std::uint64_t mult = 1;
    std::string digits = s;
    switch (std::tolower(static_cast<unsigned char>(s.back()))) {
      case 'k':
        mult = 1ull << 10;
        break;
      case 'm':
        mult = 1ull << 20;
        break;
      case 'g':
        mult = 1ull << 30;
        break;
      default:
        break;
    }
    if (mult != 1)
        digits = s.substr(0, s.size() - 1);
    const auto v = parseInt64(digits);
    if (!v || *v < 0)
        return std::nullopt;
    const std::uint64_t u = static_cast<std::uint64_t>(*v);
    if (mult != 1 && u > UINT64_MAX / mult)
        return std::nullopt;
    return u * mult;
}

bool
Config::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    bool ok = true;
    while (std::getline(in, line)) {
        const std::string t = trim(line);
        if (t.empty() || t[0] == '#' || t[0] == ';')
            continue;
        const auto eq = t.find('=');
        if (eq == std::string::npos) {
            ok = false;
            continue;
        }
        const std::string key = trim(t.substr(0, eq));
        const std::string value = trim(t.substr(eq + 1));
        if (key.empty()) {
            ok = false;
            continue;
        }
        set(key, value);
    }
    return ok;
}

void
Config::parseArgs(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq == 0)
            continue;
        std::string key = arg.substr(0, eq);
        // Accept --key=value as well as key=value.
        while (!key.empty() && key.front() == '-')
            key.erase(key.begin());
        set(key, arg.substr(eq + 1));
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    if (values_.find(key) == values_.end())
        order_.push_back(key);
    values_[key] = value;
}

bool
Config::contains(const std::string &key) const
{
    return values_.find(key) != values_.end();
}

std::optional<std::string>
Config::getString(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return std::nullopt;
    return it->second;
}

std::optional<std::int64_t>
Config::getInt(const std::string &key) const
{
    auto s = getString(key);
    return s ? parseInt64(*s) : std::nullopt;
}

std::optional<double>
Config::getDouble(const std::string &key) const
{
    auto s = getString(key);
    return s ? parseFiniteDouble(*s) : std::nullopt;
}

std::optional<bool>
Config::getBool(const std::string &key) const
{
    auto s = getString(key);
    return s ? parseBoolWord(*s) : std::nullopt;
}

std::string
Config::get(const std::string &key, const std::string &dflt) const
{
    return getString(key).value_or(dflt);
}

std::int64_t
Config::get(const std::string &key, std::int64_t dflt) const
{
    return getInt(key).value_or(dflt);
}

double
Config::get(const std::string &key, double dflt) const
{
    return getDouble(key).value_or(dflt);
}

bool
Config::get(const std::string &key, bool dflt) const
{
    return getBool(key).value_or(dflt);
}

std::vector<std::string>
Config::keys() const
{
    return order_;
}

} // namespace hermes
