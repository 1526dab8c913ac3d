#pragma once

/**
 * @file
 * The evaluation suite: named synthetic traces grouped into the paper's
 * five workload categories (SPEC06, SPEC17, PARSEC, Ligra, CVP). Each
 * workload is a named corpus spec (trace/corpus.hh) that mirrors the
 * memory behaviour of a representative workload the paper's trace list
 * contains (e.g. mcf -> dependent pointer chase, lbm -> dense stream,
 * Ligra PageRank -> gather).
 */

#include <memory>
#include <string>
#include <vector>

#include "trace/synthetic.hh"
#include "trace/workload.hh"

namespace hermes
{

/** Where a TraceSpec's instructions come from. */
enum class TraceSource : std::uint8_t
{
    Synthetic, ///< Generated from SyntheticParams
    File,      ///< Streamed from an on-disk trace (filePath)
};

/**
 * A named trace: category + generator parameters, or a file replay.
 * The name is the trace's identity everywhere (reports, result-cache
 * keys, pointFingerprint); file traces use "file:<path>".
 */
struct TraceSpec
{
    SyntheticParams params;
    TraceSource source = TraceSource::Synthetic;
    std::string filePath;

    TraceSpec() = default;
    explicit TraceSpec(SyntheticParams p) : params(std::move(p)) {}

    const std::string &name() const { return params.name; }
    const std::string &category() const { return params.category; }

    /** Instantiate a fresh workload for this trace. */
    std::unique_ptr<Workload> make() const;
};

/**
 * The full 56-trace evaluation suite across all five categories: 28
 * workloads, two traces each (".0" and ".1"). Built once.
 */
const std::vector<TraceSpec> &fullSuite();

/**
 * A fast 10-trace subset (2 per category) for quick runs and tests.
 * Built once.
 */
const std::vector<TraceSpec> &quickSuite();

/** All distinct categories in suite order. */
std::vector<std::string> suiteCategories();

/** Look a trace up by name; throws std::out_of_range if unknown. */
TraceSpec findTrace(const std::string &name);

/**
 * Reject duplicate trace names in a suite: names are trace identity
 * (fingerprints, result-cache keys, per-trace stats), so a duplicate
 * silently merges two workloads. Throws std::invalid_argument naming
 * the colliding trace.
 */
void validateUniqueTraceNames(const std::vector<TraceSpec> &suite);

} // namespace hermes
