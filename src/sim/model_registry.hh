#pragma once

/**
 * @file
 * Self-registering model factory: predictors, prefetchers and
 * replacement policies as drop-in plugins. Each model registers itself
 * by name from its own translation unit (a namespace-scope
 * ModelRegistrar), declaring a one-line doc, its tunable knobs and the
 * statistics-registry counters it feeds. Registration auto-exposes the
 * knobs as "<model>.<knob>" parameter-registry keys ("popet.act_threshold",
 * "ttp.sets"), stored sparsely in SystemConfig::modelKnobs:
 * a knob renders, and fingerprints, only while it is off its declared
 * default. The model becomes selectable by name through the
 * "predictor", "prefetcher" and "llc.repl" parameters. The registry is
 * the only way models are selected and tuned: SystemConfig holds one
 * name per choice plus the knob map, and System builds each model from
 * them here.
 *
 * A new model is therefore ONE new .cc file: the class, a registrar,
 * nothing else. No enum edits, no SystemConfig fields, no System
 * wiring. See docs/extending-models.md and examples/custom_predictor.cc
 * for the worked example, and `hermes_run --list-models` for the
 * generated reference.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hermes
{

class OffChipPredictor;
class Prefetcher;
class ReplacementPolicy;

/** The three pluggable model categories. */
enum class ModelKind : std::uint8_t
{
    Predictor,   ///< Off-chip load predictor ("predictor" parameter)
    Prefetcher,  ///< LLC hardware prefetcher ("prefetcher" parameter)
    Replacement, ///< LLC replacement policy ("llc.repl" parameter)
};

/** Printable kind name ("predictor", "prefetcher", "replacement"). */
const char *modelKindLabel(ModelKind kind);

/**
 * One tunable knob of a registered model, auto-exposed as the
 * parameter-registry key "<model>.<name>". Values are stored in
 * canonical form in SystemConfig::modelKnobs (absent while at the
 * default) and read back by the model's factory through
 * ModelContext::knob*().
 */
struct ModelKnob
{
    enum class Type : std::uint8_t
    {
        Int,  ///< Integer (strict parse), inclusive [min, max]
        Bool, ///< true/false, yes/no, on/off, 1/0
    };

    std::string name; ///< Key suffix, e.g. "weight_bits"
    Type type = Type::Int;
    std::string defaultValue;
    std::int64_t minValue = 0;
    std::int64_t maxValue = 0;
    /** Int knobs indexed with masks must be a power of two. */
    bool powerOfTwo = false;
    std::string doc;

    const char *typeName() const;

    /**
     * Validate @p value against this declaration and return it in
     * canonical form: the parsed value rendered again ("0x1f" -> "31",
     * "yes" -> "true"), so every spelling of one value is one string.
     * Throws std::invalid_argument, naming @p key, on a parse failure,
     * an out-of-range value or a non-power-of-two.
     */
    std::string canonical(const std::string &key,
                          const std::string &value) const;
};

struct ModelDef;

/**
 * Everything a model factory may need: per-core / per-cache
 * construction context and typed access to the model's own knob values
 * (sparse overrides over declared defaults). It deliberately carries
 * no SystemConfig: a model is tuned only through its declared knobs.
 */
struct ModelContext
{
    /** Sparse knob overrides (SystemConfig::modelKnobs). */
    const std::map<std::string, std::string> *knobs = nullptr;
    /** Master seed (seeded prefetchers, e.g. Pythia). */
    std::uint64_t seed = 1;
    /** Core this predictor instance serves. */
    int coreId = 0;
    /** Cache geometry (replacement policies). */
    std::uint32_t sets = 0;
    std::uint32_t ways = 0;
    /** On-chip presence oracle for this core (the Ideal predictor). */
    std::function<bool(Addr line)> residentProbe;
    /** The model being constructed (set by the registry). */
    const ModelDef *model = nullptr;

    /** Declared-knob value: modelKnobs override or declared default.
     * Throws std::logic_error for a knob the model never declared. */
    std::int64_t knobInt(const std::string &name) const;
    bool knobBool(const std::string &name) const;
};

/** Schema + factory entry for one registered model. */
struct ModelDef
{
    std::string name;
    ModelKind kind = ModelKind::Predictor;
    /** One-line description (the --list-models doc column). */
    std::string doc;
    /** Knobs auto-exposed as "<name>.<knob>" parameter keys. */
    std::vector<ModelKnob> knobs;
    /** Statistics-registry keys this model feeds ("pred.tp", ...). */
    std::vector<std::string> counters;

    /** Exactly one factory, matching kind. A null return means "no
     * model" (the registered "none" entries). */
    std::function<std::unique_ptr<OffChipPredictor>(const ModelContext &)>
        makePredictor;
    std::function<std::unique_ptr<Prefetcher>(const ModelContext &)>
        makePrefetcher;
    std::function<std::unique_ptr<ReplacementPolicy>(const ModelContext &)>
        makeReplacement;

    /** Full parameter key of one declared knob. */
    std::string knobKey(const ModelKnob &knob) const;
};

/**
 * The process-wide model registry. Unlike the parameter and statistics
 * registries it stays open: models register during static
 * initialization from their own translation units (and tests or
 * embedders may add more at runtime; the selection parameters validate
 * against the live registry).
 */
class ModelRegistry
{
  public:
    /** The process-wide instance. */
    static ModelRegistry &instance();

    /** Tests may build private registries. */
    ModelRegistry() = default;

    /**
     * Register a model. Throws std::invalid_argument on a duplicate
     * (kind, name), an empty/ill-formed name, a name reserved for core
     * parameter keys ("llc", "dram", "corpus", ...), a missing or
     * kind-mismatched factory, an invalid knob declaration or a knob
     * key another model already declares. Stores each knob default in
     * canonical form.
     */
    void add(ModelDef def);

    /** All models of one kind, sorted by name (deterministic
     * regardless of static-initialization order). */
    std::vector<const ModelDef *> models(ModelKind kind) const;

    /** Sorted model names of one kind. */
    std::vector<std::string> names(ModelKind kind) const;

    /** Look a model up; nullptr if unknown. */
    const ModelDef *find(ModelKind kind, const std::string &name) const;

    /** Look a model up; throws std::invalid_argument with a
     * nearest-name suggestion if unknown. */
    const ModelDef &findOrThrow(ModelKind kind,
                                const std::string &name) const;

    /** Resolve a dotted parameter key ("<model>.<knob>") to a
     * declared knob; nulls if the key is not a registered knob. */
    struct KnobRef
    {
        const ModelDef *model = nullptr;
        const ModelKnob *knob = nullptr;
        explicit operator bool() const { return knob != nullptr; }
    };
    KnobRef findKnob(const std::string &key) const;

    /** Every registered knob's full parameter key, sorted. */
    std::vector<std::string> knobKeys() const;

    /** Construct a model; null for the "none" entries. */
    std::unique_ptr<OffChipPredictor>
    makePredictor(const std::string &name, ModelContext ctx) const;
    std::unique_ptr<Prefetcher> makePrefetcher(const std::string &name,
                                               ModelContext ctx) const;
    std::unique_ptr<ReplacementPolicy>
    makeReplacement(const std::string &name, ModelContext ctx) const;

    /**
     * The generated model reference (the --list-models output): every
     * model's kind, name, doc, knob keys with type/default/range and
     * counter keys, sorted by kind then name.
     */
    std::string describe() const;

  private:
    std::vector<ModelDef> defs_;
    /** (kind, name) -> defs_ index. */
    std::map<std::pair<int, std::string>, std::size_t> index_;
    /** full knob key -> (defs_ index, knob index). */
    std::map<std::string, std::pair<std::size_t, std::size_t>> knobIndex_;
};

/**
 * Registers a model at namespace scope:
 *
 *   namespace { const ModelRegistrar reg(myModelDef()); }
 */
struct ModelRegistrar
{
    explicit ModelRegistrar(ModelDef def)
    {
        ModelRegistry::instance().add(std::move(def));
    }
};

/** Shared counter lists for the generated reference. */
std::vector<std::string> predictorCounterKeys();
std::vector<std::string> prefetcherCounterKeys();
std::vector<std::string> replacementCounterKeys();

} // namespace hermes
