#include "sim/param_registry.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/config.hh"
#include "sim/model_registry.hh"
#include "trace/corpus.hh"
#include "trace/suite.hh"

namespace hermes
{

namespace
{

/**
 * Choices for a model-selection key: the paper's models in their
 * documented order, then any further registered models sorted by name.
 * Built at ParamRegistry construction (first use, i.e. after static
 * initialization has run every ModelRegistrar); apply() additionally
 * consults the live registry.
 */
std::vector<std::string>
modelChoices(ModelKind kind, std::vector<std::string> documented)
{
    for (const std::string &name : ModelRegistry::instance().names(kind))
        if (std::find(documented.begin(), documented.end(), name) ==
            documented.end())
            documented.push_back(name);
    return documented;
}

/** Format a bound without a decimal point ("64", "4294967296"). */
std::string
boundStr(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
}

/** Bytes in shorthand when exactly expressible ("3M", "48K", "64"). */
std::string
sizeStr(std::uint64_t bytes)
{
    if (bytes >= (1ull << 30) && bytes % (1ull << 30) == 0)
        return std::to_string(bytes >> 30) + "G";
    if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0)
        return std::to_string(bytes >> 20) + "M";
    if (bytes >= (1ull << 10) && bytes % (1ull << 10) == 0)
        return std::to_string(bytes >> 10) + "K";
    return std::to_string(bytes);
}

std::string
joinChoices(const std::vector<std::string> &choices)
{
    std::string out;
    for (const auto &c : choices) {
        if (!out.empty())
            out += "|";
        out += c;
    }
    return out;
}

} // namespace

const char *
ParamDef::typeName() const
{
    switch (type) {
      case ParamType::Int:
        return "int";
      case ParamType::UInt:
        return "uint";
      case ParamType::Size:
        return "size";
      case ParamType::Bool:
        return "bool";
      case ParamType::Enum:
        return "enum";
    }
    return "?";
}

std::string
ParamDef::defaultValue() const
{
    return get(SystemConfig::baseline(1));
}

ParamRegistry::ParamRegistry()
{
    // Registration helpers. Each takes an accessor lambda
    // (SystemConfig& -> field&) so nested params bind the same way as
    // top-level fields; get() re-uses it through a const_cast, which is
    // safe because get() never writes.
    auto add = [this](ParamDef d) {
        index_[d.key] = defs_.size();
        defs_.push_back(std::move(d));
    };

    auto num = [&](const char *key, auto ref, double lo, double hi,
                   const char *doc, bool pow2 = false) {
        ParamDef d;
        d.key = key;
        d.type = ParamType::Int;
        d.doc = doc;
        d.minValue = lo;
        d.maxValue = hi;
        d.powerOfTwo = pow2;
        d.get = [ref](const SystemConfig &c) {
            return std::to_string(ref(const_cast<SystemConfig &>(c)));
        };
        d.set = [ref](SystemConfig &c, const std::string &v) {
            using Field = std::decay_t<decltype(ref(c))>;
            ref(c) = static_cast<Field>(*parseInt64(v));
        };
        add(std::move(d));
    };

    auto size = [&](const char *key, auto ref, double lo, double hi,
                    const char *doc) {
        ParamDef d;
        d.key = key;
        d.type = ParamType::Size;
        d.doc = doc;
        d.minValue = lo;
        d.maxValue = hi;
        d.get = [ref](const SystemConfig &c) {
            return sizeStr(ref(const_cast<SystemConfig &>(c)));
        };
        d.set = [ref](SystemConfig &c, const std::string &v) {
            using Field = std::decay_t<decltype(ref(c))>;
            ref(c) = static_cast<Field>(*parseSizeBytes(v));
        };
        add(std::move(d));
    };

    auto boolean = [&](const char *key, auto ref, const char *doc) {
        ParamDef d;
        d.key = key;
        d.type = ParamType::Bool;
        d.doc = doc;
        d.get = [ref](const SystemConfig &c) {
            return std::string(ref(const_cast<SystemConfig &>(c))
                                   ? "true"
                                   : "false");
        };
        d.set = [ref](SystemConfig &c, const std::string &v) {
            ref(c) = *parseBoolWord(v);
        };
        add(std::move(d));
    };

    num("system.cores", [](SystemConfig &c) -> auto & { return c.numCores; },
        1, 64, "number of simulated cores");
    {
        // The seed spans the full uint64 range the struct API allows,
        // so toConfig() round-trips even for seeds >= 2^63.
        ParamDef d;
        d.key = "system.seed";
        d.type = ParamType::UInt;
        d.doc = "master RNG seed (workloads, Pythia)";
        d.get = [](const SystemConfig &c) {
            return std::to_string(c.seed);
        };
        d.set = [](SystemConfig &c, const std::string &v) {
            c.seed = *parseUint64(v);
        };
        add(std::move(d));
    }

    num("core.fetch_width",
        [](SystemConfig &c) -> auto & { return c.core.fetchWidth; }, 1, 16,
        "instructions fetched/dispatched per cycle");
    num("core.retire_width",
        [](SystemConfig &c) -> auto & { return c.core.retireWidth; }, 1,
        16, "instructions retired per cycle");
    num("core.rob_size",
        [](SystemConfig &c) -> auto & { return c.core.robSize; }, 16,
        65536, "reorder buffer entries (Fig. 19 sweeps)");
    num("core.lq_size",
        [](SystemConfig &c) -> auto & { return c.core.lqSize; }, 1, 4096,
        "load queue entries");
    num("core.sq_size",
        [](SystemConfig &c) -> auto & { return c.core.sqSize; }, 1, 4096,
        "store queue entries");
    num("core.mispredict_penalty",
        [](SystemConfig &c) -> auto & { return c.core.mispredictPenalty; },
        0, 1000, "branch misprediction penalty (cycles)");
    num("core.alu_latency",
        [](SystemConfig &c) -> auto & { return c.core.aluLatency; }, 0,
        100, "ALU instruction latency (cycles)");
    num("core.agen_latency",
        [](SystemConfig &c) -> auto & { return c.core.agenLatency; }, 0,
        100, "address-generation delay before L1 issue (cycles)");
    num("core.max_loads_per_cycle",
        [](SystemConfig &c) -> auto & { return c.core.maxLoadsPerCycle; },
        1, 16, "loads issued to the L1 per cycle");

    num("l1.sets", [](SystemConfig &c) -> auto & { return c.l1Sets; }, 1,
        1 << 16, "L1D sets", true);
    num("l1.ways", [](SystemConfig &c) -> auto & { return c.l1Ways; }, 1,
        128, "L1D associativity");
    num("l1.latency",
        [](SystemConfig &c) -> auto & { return c.l1Latency; }, 0, 1000,
        "L1D round-trip latency (cycles)");
    num("l1.mshrs", [](SystemConfig &c) -> auto & { return c.l1Mshrs; },
        1, 1024, "L1D MSHR entries");

    num("l2.sets", [](SystemConfig &c) -> auto & { return c.l2Sets; }, 1,
        1 << 20, "L2 sets", true);
    num("l2.ways", [](SystemConfig &c) -> auto & { return c.l2Ways; }, 1,
        128, "L2 associativity");
    num("l2.latency",
        [](SystemConfig &c) -> auto & { return c.l2Latency; }, 0, 1000,
        "L2 incremental latency (cycles)");
    num("l2.mshrs", [](SystemConfig &c) -> auto & { return c.l2Mshrs; },
        1, 1024, "L2 MSHR entries");

    size("llc.bytes_per_core",
         [](SystemConfig &c) -> auto & { return c.llcBytesPerCore; },
         1 << 16, 4294967296.0,
         "LLC capacity per core (Fig. 20 sweeps; accepts K/M/G)");
    num("llc.ways", [](SystemConfig &c) -> auto & { return c.llcWays; },
        1, 128, "LLC associativity");
    num("llc.latency",
        [](SystemConfig &c) -> auto & { return c.llcLatency; }, 0, 1000,
        "LLC incremental latency (Fig. 17d sweeps; cycles)");
    num("llc.mshrs_per_core",
        [](SystemConfig &c) -> auto & { return c.llcMshrsPerCore; }, 1,
        1024, "LLC MSHR entries per core");
    // Model-selection keys: the value is a registered model name,
    // stored as is. The choices list the paper's models in their
    // documented order, then any further registered models by name.
    auto model = [&](const char *key, ModelKind kind,
                     std::vector<std::string> documented,
                     std::string SystemConfig::*field, const char *doc) {
        ParamDef d;
        d.key = key;
        d.type = ParamType::Enum;
        d.doc = doc;
        d.choices = modelChoices(kind, std::move(documented));
        d.modelKind = static_cast<int>(kind);
        d.get = [field](const SystemConfig &c) { return c.*field; };
        d.set = [field](SystemConfig &c, const std::string &v) {
            c.*field = v;
        };
        add(std::move(d));
    };
    model("llc.repl", ModelKind::Replacement, {"lru", "srrip", "ship"},
          &SystemConfig::llcRepl, "LLC replacement policy");
    model("prefetcher", ModelKind::Prefetcher,
          {"none", "streamer", "spp", "bingo", "mlop", "sms", "pythia"},
          &SystemConfig::prefetcher, "LLC hardware prefetcher (Table 6)");
    model("predictor", ModelKind::Predictor,
          {"none", "popet", "hmp", "ttp", "ideal"},
          &SystemConfig::predictor, "off-chip load predictor (paper §7.2)");

    boolean("hermes.enabled",
            [](SystemConfig &c) -> auto & { return c.hermesIssueEnabled; },
            "issue Hermes requests (false = predictor-only)");
    defs_.back().warmupAffecting = false;
    num("hermes.issue_latency",
        [](SystemConfig &c) -> auto & { return c.hermesIssueLatency; }, 0,
        1000,
        "Hermes request issue latency (Hermes-O 6, Hermes-P 18; "
        "Fig. 17c sweeps)");
    defs_.back().warmupAffecting = false;
    boolean("hermes.warmup_issue",
            [](SystemConfig &c) -> auto & { return c.hermesWarmupIssue; },
            "issue Hermes requests during warmup too (false makes "
            "warmed state independent of the issue path, so "
            "issue-side sweeps share one warmup checkpoint)");
    defs_.back().sparseRender = true;

    num("dram.channels",
        [](SystemConfig &c) -> auto & { return c.dram.channels; }, 1, 64,
        "DRAM channels");
    num("dram.ranks_per_channel",
        [](SystemConfig &c) -> auto & { return c.dram.ranksPerChannel; },
        1, 8, "DRAM ranks per channel");
    num("dram.banks_per_rank",
        [](SystemConfig &c) -> auto & { return c.dram.banksPerRank; }, 1,
        64, "DRAM banks per rank");
    size("dram.row_buffer_bytes",
         [](SystemConfig &c) -> auto & { return c.dram.rowBufferBytes; },
         64, 1 << 20, "DRAM row buffer size (accepts K/M/G)");
    num("dram.core_freq_mhz",
        [](SystemConfig &c) -> auto & { return c.dram.coreFreqMhz; }, 500,
        10000, "core clock used to convert DRAM timings (MHz)");
    num("dram.mtps",
        [](SystemConfig &c) -> auto & { return c.dram.mtps; }, 400, 25600,
        "DRAM transfer rate (MT/s; Fig. 17a sweeps)");
    num("dram.t_rcd",
        [](SystemConfig &c) -> auto & { return c.dram.tRcd; }, 1, 1000,
        "row-to-column delay (core cycles)");
    num("dram.t_rp", [](SystemConfig &c) -> auto & { return c.dram.tRp; },
        1, 1000, "row precharge time (core cycles)");
    num("dram.t_cas",
        [](SystemConfig &c) -> auto & { return c.dram.tCas; }, 1, 1000,
        "column access latency (core cycles)");
    num("dram.rq_size",
        [](SystemConfig &c) -> auto & { return c.dram.rqSize; }, 4, 4096,
        "read-queue entries per channel");
    num("dram.wq_size",
        [](SystemConfig &c) -> auto & { return c.dram.wqSize; }, 4, 4096,
        "write-queue entries per channel");
}

const ParamRegistry &
ParamRegistry::instance()
{
    static const ParamRegistry reg;
    return reg;
}

const ParamDef *
ParamRegistry::find(const std::string &key) const
{
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &defs_[it->second];
}

std::string
ParamRegistry::nearestKey(const std::string &key) const
{
    std::string best;
    std::size_t best_dist = ~std::size_t{0};
    auto consider = [&](const std::string &cand) {
        const std::size_t dist = editDistance(key, cand);
        if (dist < best_dist) {
            best_dist = dist;
            best = cand;
        }
    };
    for (const ParamDef &d : defs_)
        consider(d.key);
    // Registered model knobs are addressable keys too.
    for (const std::string &k : ModelRegistry::instance().knobKeys())
        consider(k);
    return best;
}

const ParamDef &
ParamRegistry::findOrThrow(const std::string &key) const
{
    const ParamDef *d = find(key);
    if (d == nullptr) {
        std::string msg = "unknown parameter '" + key + "'";
        const std::string near = nearestKey(key);
        if (!near.empty())
            msg += "; did you mean '" + near + "'?";
        throw std::invalid_argument(msg);
    }
    return *d;
}

void
ParamRegistry::apply(SystemConfig &cfg, const std::string &key,
                     const std::string &value) const
{
    const ParamDef *d = find(key);
    if (d == nullptr) {
        // Not a core parameter: maybe a registered model knob
        // ("<model>.<knob>") or a corpus-generator knob
        // ("corpus.<gen>.<knob>") — both sparse maps, so untouched
        // configurations render (and fingerprint) unchanged. A model
        // knob is kept in canonical form and only while off its
        // default, so every spelling of one value is one identity.
        if (const auto kref = ModelRegistry::instance().findKnob(key)) {
            const std::string v = kref.knob->canonical(key, value);
            if (v == kref.knob->defaultValue)
                cfg.modelKnobs.erase(key);
            else
                cfg.modelKnobs[key] = v;
            return;
        }
        if (key.rfind("corpus.", 0) == 0) {
            validateCorpusOverride(key, value); // throws on any defect
            cfg.corpusKnobs[key] = value;
            return;
        }
        d = &findOrThrow(key); // throws with a nearest-key suggestion
    }

    auto rangeCheck = [&](double v) {
        if (v < d->minValue || v > d->maxValue)
            throw std::invalid_argument(
                key + ": value " + value + " out of range [" +
                boundStr(d->minValue) + ", " + boundStr(d->maxValue) +
                "]");
    };
    auto pow2Check = [&](std::uint64_t v) {
        if (d->powerOfTwo && (v == 0 || (v & (v - 1)) != 0))
            throw std::invalid_argument(key + ": value " + value +
                                        " must be a power of two");
    };

    switch (d->type) {
      case ParamType::Int: {
        const auto v = parseInt64(value);
        if (!v)
            throw std::invalid_argument(key + ": expected an integer, "
                                              "got '" +
                                        value + "'");
        rangeCheck(static_cast<double>(*v));
        pow2Check(static_cast<std::uint64_t>(*v));
        break;
      }
      case ParamType::UInt: {
        // parseUint64 itself bounds the value to [0, UINT64_MAX].
        if (!parseUint64(value))
            throw std::invalid_argument(
                key + ": expected an unsigned integer, got '" + value +
                "'");
        break;
      }
      case ParamType::Size: {
        const auto v = parseSizeBytes(value);
        if (!v)
            throw std::invalid_argument(
                key + ": expected a byte count (K/M/G suffixes "
                      "allowed), got '" +
                value + "'");
        rangeCheck(static_cast<double>(*v));
        pow2Check(*v);
        break;
      }
      case ParamType::Bool: {
        if (!parseBoolWord(value))
            throw std::invalid_argument(key + ": expected a boolean, "
                                              "got '" +
                                        value + "'");
        break;
      }
      case ParamType::Enum:
        // The model-selection keys consult the live registry rather
        // than the choices snapshot, so models registered later remain
        // selectable; findOrThrow supplies the nearest-name suggestion.
        ModelRegistry::instance().findOrThrow(
            static_cast<ModelKind>(d->modelKind), value);
        break;
    }
    d->set(cfg, value);
}

std::string
ParamRegistry::describe() const
{
    std::size_t key_w = 0, type_w = 0, dflt_w = 0, range_w = 0,
                warm_w = 0;
    struct Row
    {
        std::string key, type, dflt, range, warm, doc;
    };
    std::vector<Row> rows;
    for (const ParamDef &d : defs_) {
        Row r;
        r.key = d.key;
        r.type = d.typeName();
        r.dflt = d.defaultValue();
        // "warm" keys shape warmed state (change = new warmup
        // checkpoint); "gated" ones only do while Hermes issues during
        // warmup (hermes.warmup_issue=true).
        r.warm = d.warmupAffecting ? "warm" : "gated";
        switch (d.type) {
          case ParamType::Int:
          case ParamType::Size:
            r.range = "[" + boundStr(d.minValue) + ", " +
                      boundStr(d.maxValue) + "]" +
                      (d.powerOfTwo ? " pow2" : "");
            break;
          case ParamType::UInt:
            r.range = "[0, " + std::to_string(UINT64_MAX) + "]";
            break;
          case ParamType::Bool:
            r.range = "true|false";
            break;
          case ParamType::Enum:
            r.range = joinChoices(d.choices);
            break;
        }
        r.doc = d.doc;
        key_w = std::max(key_w, r.key.size());
        type_w = std::max(type_w, r.type.size());
        dflt_w = std::max(dflt_w, r.dflt.size());
        range_w = std::max(range_w, r.range.size());
        warm_w = std::max(warm_w, r.warm.size());
        rows.push_back(std::move(r));
    }

    std::string out;
    char buf[512];
    for (const Row &r : rows) {
        std::snprintf(buf, sizeof(buf),
                      "%-*s  %-*s  %-*s  %-*s  %-*s  %s\n",
                      static_cast<int>(key_w), r.key.c_str(),
                      static_cast<int>(type_w), r.type.c_str(),
                      static_cast<int>(dflt_w), r.dflt.c_str(),
                      static_cast<int>(range_w), r.range.c_str(),
                      static_cast<int>(warm_w), r.warm.c_str(),
                      r.doc.c_str());
        out += buf;
    }
    return out;
}

SystemConfig
SystemConfig::fromConfig(const Config &config)
{
    const ParamRegistry &reg = ParamRegistry::instance();
    // system.cores seeds the baseline so derived defaults (DRAM
    // channels/ranks scale with the core count) match the struct API;
    // explicit dram.* keys still override them afterwards.
    SystemConfig probe = SystemConfig::baseline(1);
    if (const auto cores = config.getString("system.cores"))
        reg.apply(probe, "system.cores", *cores);
    SystemConfig cfg = SystemConfig::baseline(probe.numCores);
    for (const std::string &key : config.keys()) {
        if (key == "system.cores")
            continue;
        reg.apply(cfg, key, *config.getString(key));
    }
    return cfg;
}

Config
SystemConfig::toConfig() const
{
    Config out;
    for (const ParamDef &d : ParamRegistry::instance().params()) {
        const std::string value = d.get(*this);
        // Sparse keys render only off-default, keeping the rendered
        // configuration — and every pinned pointFingerprint golden —
        // byte-identical for configurations that never set them.
        if (d.sparseRender && value == d.defaultValue())
            continue;
        out.set(d.key, value);
    }
    // Off-default model knobs only (std::map iterates sorted, so the
    // rendering — and the sweep fingerprint — is deterministic).
    for (const auto &[key, value] : modelKnobs)
        out.set(key, value);
    for (const auto &[key, value] : corpusKnobs)
        out.set(key, value);
    return out;
}

std::string
describeScenarioSpace()
{
    auto fromDef = [](const char *key) {
        return joinChoices(
            ParamRegistry::instance().find(key)->choices);
    };
    std::string out;
    out += "predictors:  " + fromDef("predictor") + "\n";
    out += "prefetchers: " + fromDef("prefetcher") + "\n";
    out += "replacement: " + fromDef("llc.repl") + "\n";
    for (const char *suite_name : {"quick", "full"}) {
        const auto &specs = std::string(suite_name) == "quick"
                                ? quickSuite()
                                : fullSuite();
        out += "suite " + std::string(suite_name) + " (" +
               std::to_string(specs.size()) + " traces):\n";
        for (const auto &spec : specs)
            out += "  " + spec.name() + " (" + spec.category() + ")\n";
    }
    out += describeCorpus();
    out += "parameters (key  type  default  range  warmup  doc):\n";
    out += ParamRegistry::instance().describe();
    out += "models (kind name, then knob key  type  default  range  "
           "doc):\n";
    out += ModelRegistry::instance().describe();
    return out;
}

void
applyOverride(SystemConfig &cfg, const std::string &kv)
{
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0)
        throw std::invalid_argument("expected key=value, got '" + kv +
                                    "'");
    ParamRegistry::instance().apply(cfg, kv.substr(0, eq),
                                    kv.substr(eq + 1));
}

SystemConfig
configWith(SystemConfig base, const std::vector<std::string> &kvs)
{
    for (const std::string &kv : kvs)
        applyOverride(base, kv);
    return base;
}

} // namespace hermes
