#pragma once

/**
 * @file
 * Declarative workload corpus: named, parameterized synthetic
 * generators driven entirely by strings, so new workloads need no
 * recompilation — `hermes_run --trace corpus.chase:footprint_mb=512`
 * instantiates a half-GB pointer chase on the spot.
 *
 * Grammar (':'-separated so specs compose with comma-separated trace
 * lists):
 *
 *   corpus.<generator>[:<knob>=<value>]...
 *
 * e.g. corpus.gather:degree=16:footprint_mb=256:seed=7
 *
 * Each generator exposes a fixed knob table (range-checked, with
 * nearest-key suggestions on typos, mirroring the param registry).
 * The *canonical* spec — knobs reordered into table order with
 * normalized value formatting — becomes the trace name, so two
 * spellings of the same workload share one identity everywhere a
 * trace name matters (reports, result-cache keys, pointFingerprint).
 * The evaluation suite (trace/suite.cc) is a table of such specs
 * under suite names; only trace/corpus.cc maps knob names to
 * SyntheticParams fields.
 */

#include <map>
#include <string>
#include <vector>

#include "trace/suite.hh"

namespace hermes
{

/** One string-settable parameter of a corpus generator. */
struct CorpusKnob
{
    const char *key;
    const char *doc;
    double min;
    double max;
    bool integer;
    void (*apply)(SyntheticParams &params, double value);
};

/** A named generator family and its knob table. */
struct CorpusGenerator
{
    const char *name; ///< Spec prefix after "corpus." (e.g. "chase")
    const char *doc;
    void (*defaults)(SyntheticParams &params);
    std::vector<CorpusKnob> knobs;
};

/** All registered generators, in listing order. */
const std::vector<CorpusGenerator> &corpusGenerators();

/** True when @p spec names a corpus workload ("corpus." prefix). */
bool isCorpusSpec(const std::string &spec);

/**
 * Parse a corpus spec into a ready-to-run TraceSpec whose name is the
 * canonical spec string and whose category is "CORPUS".
 * @throws std::invalid_argument naming the offending generator, knob
 *         or value (with a nearest-name suggestion where possible).
 */
TraceSpec makeCorpusTrace(const std::string &spec);

/** Human-readable generator/knob reference (docs gate + --list). */
std::string describeCorpus();

/**
 * Validate a "corpus.<generator>.<knob>" configuration override (the
 * param-registry spelling of a generator knob, so sweep axes can vary
 * corpus workloads like any "llc.*" key).
 * @throws std::invalid_argument naming the generator/knob/value defect.
 */
void validateCorpusOverride(const std::string &key,
                            const std::string &value);

/**
 * Re-canonicalize every corpus-backed spec in @p traces with the
 * "corpus.<generator>.<knob>" overrides in @p knobs applied (an
 * override replaces the same knob spelled inline in the spec).
 * @throws std::invalid_argument if an override targets a generator no
 *         trace in the list uses (a silently-dead axis otherwise).
 */
std::vector<TraceSpec>
applyCorpusOverrides(std::vector<TraceSpec> traces,
                     const std::map<std::string, std::string> &knobs);

} // namespace hermes
