#pragma once

/**
 * @file
 * Rendering of RunStats over stat-registry columns
 * (sim/stat_registry.hh): CSV and JSON rows for scripted consumption,
 * and "key value" text lines for people.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv.hh"
#include "sim/stat_registry.hh"
#include "sim/system.hh"

namespace hermes
{

/** One-line CSV header for @p columns ("label" always leads). */
std::string csvHeader(const std::vector<StatColumn> &columns);

/** CSV row of @p columns, matching csvHeader(). */
std::string formatCsvRow(const std::string &label, const RunStats &stats,
                         const std::vector<StatColumn> &columns);

/** JSON object of @p columns (keys = column names). */
std::string formatJsonRow(const std::string &label, const RunStats &stats,
                          const std::vector<StatColumn> &columns);

/**
 * One "key value" line per column, keys as statColumnKey() spells them
 * and values aligned; values render as in the CSV/JSON rows.
 */
std::string formatTextLines(const RunStats &stats,
                            const std::vector<StatColumn> &columns);

/**
 * FNV-1a hash over every deterministic field of @p stats: the stat
 * registry's codec plan linearizes the counters (all fingerprint-
 * flagged integer statistics; host wall-clock measurements and
 * configuration echoes are excluded). Two runs of the same (config,
 * traces, budget) must produce equal fingerprints at any sweep thread
 * count, and hot-path refactors must not change them — the golden
 * determinism tests pin a set of these values. Implemented in
 * sim/stat_registry.cc next to the plan it walks.
 */
std::uint64_t statsFingerprint(const RunStats &stats);

/**
 * Write @p text to @p path, "-" meaning stdout: the one dump writer
 * behind the CLIs' and the bench harness's --csv/--json flags. False
 * (with a message on stderr) on any write failure.
 */
bool writeTextFile(const std::string &path, const std::string &text);

/** The canonical 16-hex-digit rendering of a fingerprint. */
std::string fingerprintHex(std::uint64_t fp);

/** Escape for a double-quoted JSON string (quotes, backslash, ctrls). */
std::string jsonEscape(const std::string &s);

} // namespace hermes
