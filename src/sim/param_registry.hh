#pragma once

/**
 * @file
 * Schema'd parameter registry: every field of SystemConfig and its
 * nested parameter structs (CoreParams, cache geometry, DramParams,
 * Hermes knobs) is bound to a dotted string key ("llc.ways",
 * "dram.channels", ...) with a type, a default, a valid range and a
 * doc string. The models' own parameters ("popet.act_threshold",
 * "ttp.sets", ...) are not rows here: each model declares
 * them as knobs in the model registry (sim/model_registry.hh), and
 * apply() accepts those keys too, storing them in
 * SystemConfig::modelKnobs.
 *
 * This is what makes every experiment expressible as strings: the
 * hermes_run CLI, .ini scenario files and the string-driven sweep axes
 * (sweep/axis.hh) all funnel through ParamRegistry::apply(), which
 * validates and writes one key into a SystemConfig. Unknown keys fail
 * with a nearest-key suggestion; out-of-range values and
 * non-power-of-two geometry are rejected before they can build a
 * malformed System.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace hermes
{

class Config;

/** Value category of one registered parameter. */
enum class ParamType : std::uint8_t
{
    Int,  ///< Integer (strict parse; decimal, hex or octal)
    UInt, ///< Full-range uint64 (seeds); no further range constraint
    Size, ///< Byte count; accepts K/M/G suffixes (powers of 1024)
    Bool, ///< true/false, yes/no, on/off, 1/0
    Enum, ///< A registered model name (the model-selection keys)
};

/** Schema entry for one SystemConfig field. */
struct ParamDef
{
    std::string key;
    ParamType type = ParamType::Int;
    std::string doc;
    /** Inclusive numeric bounds (Int/Size). */
    double minValue = 0;
    double maxValue = 0;
    /** Geometry indexed with masks must be a power of two. */
    bool powerOfTwo = false;
    /** Registered names at construction (Enum; --list-params). */
    std::vector<std::string> choices;
    /**
     * ModelKind (as int) for the model-selection keys ("predictor",
     * "prefetcher", "llc.repl"); -1 otherwise. Selection keys validate
     * against the live ModelRegistry rather than the choices snapshot,
     * so models registered after this registry was built (tests,
     * embedders) remain selectable.
     */
    int modelKind = -1;
    /**
     * Does this key shape the warmed (post-warmup) machine state? The
     * warmup-checkpoint fingerprint (sim/simulator.hh) hashes exactly
     * the warmup-affecting keys, so a sweep over measure-only keys can
     * share one checkpoint. False only for the Hermes issue-side keys
     * ("hermes.enabled", "hermes.issue_latency"), and even those count
     * as warmup-affecting while Hermes issues during warmup
     * (hermes.warmup_issue=true, the legacy default).
     */
    bool warmupAffecting = true;
    /**
     * Render this key in toConfig() only when it differs from its
     * default. Keys added after the sweep goldens were pinned must be
     * sparse: pointFingerprint hashes the full rendered configuration,
     * so an always-rendered new key would shift every golden.
     */
    bool sparseRender = false;

    /** Current value of the field, in re-parseable string form. */
    std::function<std::string(const SystemConfig &)> get;
    /** Assign a *pre-validated* value string to the field. */
    std::function<void(SystemConfig &, const std::string &)> set;

    const char *typeName() const;
    /** The field's value in SystemConfig::baseline(1). */
    std::string defaultValue() const;
};

/** The process-wide schema (immutable after construction). */
class ParamRegistry
{
  public:
    static const ParamRegistry &instance();

    /** All parameters, in registration (documentation) order. */
    const std::vector<ParamDef> &params() const { return defs_; }

    /** Look a key up; nullptr if unknown. */
    const ParamDef *find(const std::string &key) const;

    /**
     * Look a key up; throws std::invalid_argument with a nearest-key
     * suggestion if unknown.
     */
    const ParamDef &findOrThrow(const std::string &key) const;

    /** Registered key closest to @p key by edit distance. */
    std::string nearestKey(const std::string &key) const;

    /**
     * Validate @p value against the schema and write it into @p cfg.
     * Throws std::invalid_argument on unknown key (with nearest-key
     * suggestion), parse failure, out-of-range value or
     * non-power-of-two geometry.
     */
    void apply(SystemConfig &cfg, const std::string &key,
               const std::string &value) const;

    /**
     * Human-readable table of every key: type, default, range/choices
     * and doc string (the --list-params output).
     */
    std::string describe() const;

  private:
    ParamRegistry();

    std::vector<ParamDef> defs_;
    std::map<std::string, std::size_t> index_;
};

/**
 * The full discovery listing shared by `hermes_run --list` and the
 * bench harness: predictors, prefetchers, replacement policies, trace
 * suites, the parameter table and the model reference with every knob
 * key, so every key apply() accepts is listed.
 */
std::string describeScenarioSpace();

/** Apply one "key=value" override string (throws on any error). */
void applyOverride(SystemConfig &cfg, const std::string &kv);

/** Copy of @p base with a list of "key=value" overrides applied. */
SystemConfig configWith(SystemConfig base,
                        const std::vector<std::string> &kvs);

} // namespace hermes
