#include "sim/report.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace hermes
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
fingerprintHex(std::uint64_t fp)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fp));
    return buf;
}

std::string
csvHeader(const std::vector<StatColumn> &columns)
{
    std::string header = "label";
    for (const StatColumn &c : columns)
        header += "," + c.name;
    return header;
}

std::string
formatCsvRow(const std::string &label, const RunStats &stats,
             const std::vector<StatColumn> &columns)
{
    std::string out = label;
    for (const StatColumn &c : columns)
        out += "," + statColumnValue(c, stats);
    return out;
}

std::string
formatJsonRow(const std::string &label, const RunStats &stats,
              const std::vector<StatColumn> &columns)
{
    std::string out = "{\"label\":\"" + jsonEscape(label) + "\"";
    for (const StatColumn &c : columns)
        out += ",\"" + c.name + "\":" + statColumnValue(c, stats);
    out += "}";
    return out;
}

std::string
formatTextLines(const RunStats &stats,
                const std::vector<StatColumn> &columns)
{
    std::vector<std::string> keys;
    std::size_t width = 0;
    for (const StatColumn &c : columns) {
        keys.push_back(statColumnKey(c));
        width = std::max(width, keys.back().size());
    }
    std::string out;
    for (std::size_t i = 0; i < columns.size(); ++i)
        out += keys[i] + std::string(width + 2 - keys[i].size(), ' ') +
               statColumnValue(columns[i], stats) + "\n";
    return out;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    if (path == "-") {
        const std::size_t n =
            std::fwrite(text.data(), 1, text.size(), stdout);
        if (n != text.size() || std::fflush(stdout) != 0) {
            std::fprintf(stderr,
                         "error: could not write dump to stdout\n");
            return false;
        }
        return true;
    }
    std::ofstream out(path);
    out << text;
    out.flush();
    if (!out) {
        std::fprintf(stderr, "error: could not write %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace hermes
