#pragma once

/**
 * @file
 * String-driven sweep axes: declare a grid dimension as a single spec
 * string ("llc.latency=30,40,50,60") and expand it into labelled
 * SystemConfigs through the parameter registry. Figure drivers compose
 * these with the bench harness instead of hand-written struct-mutation
 * lambdas, and the hermes_run CLI reuses the same parsing, so any
 * registered key is sweepable without recompiling.
 */

#include <string>
#include <vector>

#include "sim/system.hh"

namespace hermes::sweep
{

/** One parsed sweep axis: a dotted parameter key + its value list. */
struct Axis
{
    std::string key;
    std::vector<std::string> values;
};

/**
 * Parse "key=v1,v2,v3" (at least one value; empty values rejected).
 * Key and values are checked as ParamRegistry::apply applies them:
 * core parameters, model knobs and corpus knobs alike. Throws
 * std::invalid_argument on malformed specs, unknown keys or bad values.
 */
Axis parseAxis(const std::string &spec);

/**
 * Split a comma-separated list into its entries. Empty entries — and
 * an empty @p spec — are rejected with std::invalid_argument naming
 * @p what. Shared by axis values, --mix trace lists and friends.
 */
std::vector<std::string> splitCommaList(const std::string &spec,
                                        const std::string &what);

/** A labelled configuration produced by axis expansion. */
struct ConfigPoint
{
    std::string label; ///< "key=value" ('/'-joined across axes)
    SystemConfig config;
};

/**
 * One ConfigPoint per value of @p spec applied to @p base. Every value
 * is validated (range, power-of-two, enum membership) before any
 * simulation starts.
 */
std::vector<ConfigPoint> expandAxis(const SystemConfig &base,
                                    const std::string &spec);

/**
 * Cartesian product of several axis specs over @p base; the last axis
 * varies fastest and labels join with '/'. With no specs, returns the
 * base config with an empty label.
 */
std::vector<ConfigPoint> expandGrid(const SystemConfig &base,
                                    const std::vector<std::string> &specs);

} // namespace hermes::sweep
