#pragma once

// Shared helpers for the golden-fingerprint layer. The pinned budget,
// the golden file locations, their loader and writer live here so
// test_determinism.cc (which owns regeneration of fingerprints.txt via
// HERMES_UPDATE_GOLDEN), test_param_registry.cc (which compares the
// string-built configuration path against the same goldens) and
// test_corpus.cc (which owns suite_streams.txt) can never drift apart.
// The CI hermes_run smoke mirrors goldenBudget() as
// --warmup 5000 --instrs 20000.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "sim/simulator.hh"

#ifndef HERMES_TESTS_DIR
#define HERMES_TESTS_DIR "tests"
#endif

namespace hermes::golden
{

/** The budget every golden fingerprint was captured with. */
inline SimBudget
goldenBudget()
{
    SimBudget b;
    b.warmupInstrs = 5'000;
    b.simInstrs = 20'000;
    return b;
}

/** A file under tests/golden/ (default: the RunStats fingerprints). */
inline std::string
goldenPath(const std::string &file = "fingerprints.txt")
{
    return std::string(HERMES_TESTS_DIR) + "/golden/" + file;
}

/** Parse "key hex" lines; '#' comments and blanks are skipped. */
inline std::map<std::string, std::uint64_t>
loadGoldens(const std::string &path = goldenPath())
{
    std::map<std::string, std::uint64_t> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, hex;
        if (ls >> key >> hex)
            out[key] = std::stoull(hex, nullptr, 16);
    }
    return out;
}

/**
 * Rewrite @p path as @p header ('#' lines) followed by one "key hex"
 * line per entry, in key order. False if the file cannot be written.
 */
inline bool
writeGoldens(const std::string &path, const std::string &header,
             const std::map<std::string, std::uint64_t> &values)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << header;
    char buf[32];
    for (const auto &[key, value] : values) {
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(value));
        out << key << " " << buf << "\n";
    }
    return static_cast<bool>(out);
}

} // namespace hermes::golden
