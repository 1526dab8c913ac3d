#include "sim/model_registry.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "cache/replacement.hh"
#include "common/config.hh"
#include "predictor/offchip_pred.hh"
#include "prefetch/prefetcher.hh"

namespace hermes
{

namespace
{

/**
 * Names a model may not take. Its knob keys are "<model>.<knob>", and
 * ParamRegistry::apply looks core keys up first, so a model named like
 * the first segment of a dotted core key could declare a knob that no
 * override can reach ("llc" with "ways": llc.ways sets the LLC). The
 * corpus-generator keys ("corpus.<gen>.<knob>") are reserved the same
 * way. A fixed list, because add() runs during static initialization,
 * where the ParamRegistry cannot be consulted; test_model_registry
 * derives the segments from the ParamRegistry to keep it whole.
 */
constexpr const char *kReservedNames[] = {
    "core", "corpus", "dram", "hermes", "l1", "l2", "llc", "system",
};

/** Names are dotted-key segments: lowercase alnum and underscores. */
bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (const char c : name)
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '_'))
            return false;
    return true;
}

const std::string &
knobRaw(const ModelContext &ctx, const std::string &name)
{
    if (ctx.model == nullptr || ctx.knobs == nullptr)
        throw std::logic_error("ModelContext used outside the registry");
    for (const ModelKnob &k : ctx.model->knobs) {
        if (k.name != name)
            continue;
        const auto it = ctx.knobs->find(ctx.model->knobKey(k));
        return it != ctx.knobs->end() ? it->second : k.defaultValue;
    }
    throw std::logic_error("model '" + ctx.model->name +
                           "' reads undeclared knob '" + name + "'");
}

} // namespace

const char *
modelKindLabel(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Predictor:
        return "predictor";
      case ModelKind::Prefetcher:
        return "prefetcher";
      case ModelKind::Replacement:
        return "replacement";
    }
    return "?";
}

const char *
ModelKnob::typeName() const
{
    switch (type) {
      case Type::Int:
        return "int";
      case Type::Bool:
        return "bool";
    }
    return "?";
}

std::string
ModelKnob::canonical(const std::string &key, const std::string &value) const
{
    auto reject = [&key](const std::string &why) {
        return std::invalid_argument(key + ": " + why);
    };
    switch (type) {
      case Type::Int: {
        const auto v = parseInt64(value);
        if (!v)
            throw reject("expected an integer, got '" + value + "'");
        if (*v < minValue || *v > maxValue)
            throw reject("value " + value + " out of range [" +
                         std::to_string(minValue) + ", " +
                         std::to_string(maxValue) + "]");
        if (powerOfTwo && (*v <= 0 || (*v & (*v - 1)) != 0))
            throw reject("value " + value + " must be a power of two");
        return std::to_string(*v);
      }
      case Type::Bool: {
        const auto v = parseBoolWord(value);
        if (!v)
            throw reject("expected a boolean, got '" + value + "'");
        return *v ? "true" : "false";
      }
    }
    throw std::logic_error("unknown knob type");
}

std::string
ModelDef::knobKey(const ModelKnob &knob) const
{
    return name + "." + knob.name;
}

std::int64_t
ModelContext::knobInt(const std::string &name) const
{
    return *parseInt64(knobRaw(*this, name));
}

bool
ModelContext::knobBool(const std::string &name) const
{
    return *parseBoolWord(knobRaw(*this, name));
}

ModelRegistry &
ModelRegistry::instance()
{
    static ModelRegistry reg;
    return reg;
}

void
ModelRegistry::add(ModelDef def)
{
    if (!validName(def.name))
        throw std::invalid_argument(
            "model name '" + def.name +
            "' must be lowercase alnum/underscore");
    for (const char *reserved : kReservedNames)
        if (def.name == reserved)
            throw std::invalid_argument(
                "model name '" + def.name + "' is reserved: keys '" +
                def.name + ".*' are core or corpus parameters, not knobs");
    const int factories = (def.makePredictor ? 1 : 0) +
                          (def.makePrefetcher ? 1 : 0) +
                          (def.makeReplacement ? 1 : 0);
    const bool kind_matches =
        (def.kind == ModelKind::Predictor && def.makePredictor) ||
        (def.kind == ModelKind::Prefetcher && def.makePrefetcher) ||
        (def.kind == ModelKind::Replacement && def.makeReplacement);
    if (factories != 1 || !kind_matches)
        throw std::invalid_argument(
            "model '" + def.name +
            "' must provide exactly the factory matching its kind");
    const auto key =
        std::make_pair(static_cast<int>(def.kind), def.name);
    if (index_.count(key) != 0)
        throw std::invalid_argument(
            std::string(modelKindLabel(def.kind)) + " '" + def.name +
            "' is already registered");
    // Validate every knob before registering anything, so a rejected
    // model leaves the registry as it was.
    std::vector<std::string> keys;
    for (ModelKnob &k : def.knobs) {
        if (!validName(k.name))
            throw std::invalid_argument(
                "model '" + def.name + "': knob name '" + k.name +
                "' must be lowercase alnum/underscore");
        if (k.doc.empty())
            throw std::invalid_argument("model '" + def.name +
                                        "': knob '" + k.name +
                                        "' needs a doc string");
        keys.push_back(def.knobKey(k));
        if (knobIndex_.count(keys.back()) != 0 ||
            std::count(keys.begin(), keys.end(), keys.back()) > 1)
            throw std::invalid_argument("duplicate knob key '" +
                                        keys.back() + "'");
        // The declared default must survive its own validation.
        try {
            k.defaultValue = k.canonical(keys.back(), k.defaultValue);
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(
                "model '" + def.name + "': knob '" + k.name +
                "' default fails its own validation (" + e.what() + ")");
        }
    }

    const std::size_t idx = defs_.size();
    defs_.push_back(std::move(def));
    index_[key] = idx;
    for (std::size_t ki = 0; ki < keys.size(); ++ki)
        knobIndex_[keys[ki]] = {idx, ki};
}

std::vector<const ModelDef *>
ModelRegistry::models(ModelKind kind) const
{
    std::vector<const ModelDef *> out;
    for (const ModelDef &d : defs_)
        if (d.kind == kind)
            out.push_back(&d);
    std::sort(out.begin(), out.end(),
              [](const ModelDef *a, const ModelDef *b) {
                  return a->name < b->name;
              });
    return out;
}

std::vector<std::string>
ModelRegistry::names(ModelKind kind) const
{
    std::vector<std::string> out;
    for (const ModelDef *d : models(kind))
        out.push_back(d->name);
    return out;
}

const ModelDef *
ModelRegistry::find(ModelKind kind, const std::string &name) const
{
    const auto it =
        index_.find(std::make_pair(static_cast<int>(kind), name));
    return it == index_.end() ? nullptr : &defs_[it->second];
}

const ModelDef &
ModelRegistry::findOrThrow(ModelKind kind, const std::string &name) const
{
    if (const ModelDef *d = find(kind, name))
        return *d;
    std::string msg = std::string("unknown ") + modelKindLabel(kind) +
                      " '" + name + "'";
    std::string best;
    std::size_t best_dist = ~std::size_t{0};
    for (const std::string &cand : names(kind)) {
        const std::size_t dist = editDistance(name, cand);
        if (dist < best_dist) {
            best_dist = dist;
            best = cand;
        }
    }
    if (!best.empty())
        msg += "; did you mean '" + best + "'?";
    throw std::invalid_argument(msg);
}

ModelRegistry::KnobRef
ModelRegistry::findKnob(const std::string &key) const
{
    const auto it = knobIndex_.find(key);
    if (it == knobIndex_.end())
        return {};
    KnobRef ref;
    ref.model = &defs_[it->second.first];
    ref.knob = &ref.model->knobs[it->second.second];
    return ref;
}

std::vector<std::string>
ModelRegistry::knobKeys() const
{
    std::vector<std::string> out;
    for (const auto &entry : knobIndex_)
        out.push_back(entry.first);
    return out;
}

std::unique_ptr<OffChipPredictor>
ModelRegistry::makePredictor(const std::string &name,
                             ModelContext ctx) const
{
    const ModelDef &d = findOrThrow(ModelKind::Predictor, name);
    ctx.model = &d;
    return d.makePredictor(ctx);
}

std::unique_ptr<Prefetcher>
ModelRegistry::makePrefetcher(const std::string &name,
                              ModelContext ctx) const
{
    const ModelDef &d = findOrThrow(ModelKind::Prefetcher, name);
    ctx.model = &d;
    return d.makePrefetcher(ctx);
}

std::unique_ptr<ReplacementPolicy>
ModelRegistry::makeReplacement(const std::string &name,
                               ModelContext ctx) const
{
    const ModelDef &d = findOrThrow(ModelKind::Replacement, name);
    ctx.model = &d;
    return d.makeReplacement(ctx);
}

std::string
ModelRegistry::describe() const
{
    // One block per model, sorted by kind then name (deterministic
    // regardless of registration order — this output is pinned in the
    // README model reference and gated by tools/check_model_docs.sh).
    struct KnobRow
    {
        std::string key, type, dflt, range, doc;
    };

    std::string out;
    for (const ModelKind kind :
         {ModelKind::Predictor, ModelKind::Prefetcher,
          ModelKind::Replacement}) {
        for (const ModelDef *d : models(kind)) {
            if (!out.empty())
                out += "\n";
            out += std::string(modelKindLabel(kind)) + " " + d->name +
                   " — " + d->doc + "\n";

            std::vector<KnobRow> rows;
            for (const ModelKnob &k : d->knobs) {
                KnobRow r;
                r.key = d->knobKey(k);
                r.type = k.typeName();
                r.dflt = k.defaultValue;
                switch (k.type) {
                  case ModelKnob::Type::Int:
                    r.range = "[" + std::to_string(k.minValue) + ", " +
                              std::to_string(k.maxValue) + "]" +
                              (k.powerOfTwo ? " pow2" : "");
                    break;
                  case ModelKnob::Type::Bool:
                    r.range = "true|false";
                    break;
                }
                r.doc = k.doc;
                rows.push_back(std::move(r));
            }

            std::size_t key_w = 0, type_w = 0, dflt_w = 0, range_w = 0;
            for (const KnobRow &r : rows) {
                key_w = std::max(key_w, r.key.size());
                type_w = std::max(type_w, r.type.size());
                dflt_w = std::max(dflt_w, r.dflt.size());
                range_w = std::max(range_w, r.range.size());
            }
            char buf[512];
            for (const KnobRow &r : rows) {
                std::snprintf(buf, sizeof(buf),
                              "  knob %-*s  %-*s  %-*s  %-*s  %s\n",
                              static_cast<int>(key_w), r.key.c_str(),
                              static_cast<int>(type_w), r.type.c_str(),
                              static_cast<int>(dflt_w), r.dflt.c_str(),
                              static_cast<int>(range_w),
                              r.range.c_str(), r.doc.c_str());
                out += buf;
            }
            if (d->counters.empty()) {
                out += "  counters: (none)\n";
            } else {
                out += "  counters: ";
                for (std::size_t i = 0; i < d->counters.size(); ++i)
                    out += (i ? ", " : "") + d->counters[i];
                out += "\n";
            }
        }
    }
    return out;
}

std::vector<std::string>
predictorCounterKeys()
{
    return {"pred.tp",       "pred.fp",        "pred.fn",
            "pred.tn",       "pred.accuracy",  "pred.coverage",
            "hermes.scheduled", "hermes.served", "hermes.served_rate"};
}

std::vector<std::string>
prefetcherCounterKeys()
{
    return {"pf.issued",     "pf.useful",      "pf.useless",
            "llc.pf_issued", "llc.pf_fills",   "llc.pf_useful",
            "llc.pf_useless", "llc.mshr_late_pf"};
}

std::vector<std::string>
replacementCounterKeys()
{
    return {"llc.evictions", "llc.dirty_evictions", "llc.hit_rate",
            "llc.mpki"};
}

} // namespace hermes
