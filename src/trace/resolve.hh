#pragma once

/**
 * @file
 * The one trace resolver every front end goes through (`hermes_run
 * --trace`, `hermes_sweep` grids and the bench harness): a trace spec
 * string is either
 *
 *   - a suite trace name      ("spec06.mcf_like.0"),
 *   - a corpus generator spec ("corpus.chase:footprint_mb=256"), or
 *   - an on-disk trace file   ("file:/path/to/t.champsim.gz", or a
 *     bare path containing '/' or a known trace extension).
 *
 * Suite names resolve exactly as before this resolver existed — trace
 * names feed pointFingerprint, so existing suite/golden fingerprints
 * stay byte-identical. File specs are opened and header-validated at
 * resolve time so a bad path fails before any simulation starts.
 */

#include <string>
#include <vector>

#include "trace/suite.hh"

namespace hermes
{

/**
 * Resolve one trace spec string.
 * @throws std::invalid_argument (unknown name/bad corpus knob, with
 *         suggestions) or std::runtime_error (unreadable file).
 */
TraceSpec resolveTrace(const std::string &spec);

/**
 * Resolve a suite spec: "quick", "full", or a comma-separated list of
 * trace specs (each resolved via resolveTrace; duplicate names are
 * rejected). Unknown bare words throw std::invalid_argument instead of
 * silently falling back to a default suite.
 */
std::vector<TraceSpec> resolveSuite(const std::string &spec);

} // namespace hermes
