#include "trace/corpus.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/config.hh"

namespace hermes
{

namespace
{

constexpr const char *kPrefix = "corpus.";

void
setFootprintMb(SyntheticParams &p, double v)
{
    p.footprintBytes = static_cast<std::uint64_t>(v) << 20;
}

void setSeed(SyntheticParams &p, double v)
{
    p.seed = static_cast<std::uint64_t>(v);
}

void setAlu(SyntheticParams &p, double v)
{
    p.aluPerMemop = static_cast<unsigned>(v);
}

void setStride(SyntheticParams &p, double v)
{
    p.strideBytes = static_cast<unsigned>(v);
}

void setMlp(SyntheticParams &p, double v)
{
    p.loadMlp = static_cast<unsigned>(v);
}

void setStoreFrac(SyntheticParams &p, double v) { p.storeFraction = v; }

void setBranchFrac(SyntheticParams &p, double v)
{
    p.dataBranchFraction = v;
}

void setChains(SyntheticParams &p, double v)
{
    p.chaseChains = static_cast<unsigned>(v);
}

void setHitFrac(SyntheticParams &p, double v) { p.hitLoadFraction = v; }

void setDegree(SyntheticParams &p, double v)
{
    p.graphAvgDegree = static_cast<unsigned>(v);
}

void setDataStride(SyntheticParams &p, double v)
{
    p.graphDataStride = static_cast<unsigned>(v);
}

void setGatherHotFrac(SyntheticParams &p, double v)
{
    p.gatherHotFraction = v;
}

void setColdFrac(SyntheticParams &p, double v)
{
    p.mixColdFraction = v;
}

void setBranchBias(SyntheticParams &p, double v) { p.dataBranchBias = v; }

void setHotKb(SyntheticParams &p, double v)
{
    p.hotBytes = static_cast<std::uint64_t>(v) << 10;
}

void setRowKb(SyntheticParams &p, double v)
{
    p.rowBytes = static_cast<std::uint64_t>(v) << 10;
}

void setProbeHotFrac(SyntheticParams &p, double v)
{
    p.probeHotFraction = v;
}

void setWarmMb(SyntheticParams &p, double v)
{
    p.warmBytes = static_cast<std::uint64_t>(v) << 20;
}

// Shared knob rows (tables repeat them so each generator lists only
// what it honours, in a stable documented order).
constexpr CorpusKnob kSeed = {"seed", "generator RNG seed", 0, 1e15,
                              true, setSeed};
constexpr CorpusKnob kFootprint = {
    "footprint_mb", "main working-set size in MiB", 1, 1 << 16, true,
    setFootprintMb};
constexpr CorpusKnob kAlu = {"alu", "ALU ops per memory op", 0, 64,
                             true, setAlu};
constexpr CorpusKnob kStoreFrac = {
    "store_frac", "probability a block also stores", 0, 1, false,
    setStoreFrac};
constexpr CorpusKnob kBranchFrac = {
    "branch_frac", "probability of a data-dependent branch", 0, 1,
    false, setBranchFrac};
constexpr CorpusKnob kMlp = {
    "mlp", "load-level-parallelism bound (0 = unlimited)", 0, 256,
    true, setMlp};
constexpr CorpusKnob kStride = {"stride", "sweep stride in bytes", 1,
                                4096, true, setStride};
constexpr CorpusKnob kBranchBias = {
    "branch_bias", "taken probability of a data-dependent branch", 0, 1,
    false, setBranchBias};

void
chaseDefaults(SyntheticParams &p)
{
    p.pattern = Pattern::PointerChase;
    p.chaseChains = 2;
    p.aluPerMemop = 8;
    p.hitLoadFraction = 0.4;
}

void
streamDefaults(SyntheticParams &p)
{
    p.pattern = Pattern::Stream;
    p.strideBytes = 8;
    p.aluPerMemop = 6;
    p.loadMlp = 16;
}

void
gatherDefaults(SyntheticParams &p)
{
    p.pattern = Pattern::GraphGather;
    p.graphAvgDegree = 8;
    p.graphDataStride = 64;
    p.gatherHotFraction = 0.85;
    p.aluPerMemop = 8;
    p.loadMlp = 10;
}

void
mlpDefaults(SyntheticParams &p)
{
    p.pattern = Pattern::Stream;
    p.strideBytes = 8;
    p.aluPerMemop = 2;
    p.loadMlp = 48;
}

void
tlbDefaults(SyntheticParams &p)
{
    // Uniform random probes over a multi-GB table: every access lands
    // on a fresh 4KB page, stressing TLB/page-locality behaviour.
    p.pattern = Pattern::HashProbe;
    p.footprintBytes = 2048ull << 20;
    p.probeTableHotFraction = 0.0;
    p.probeHotFraction = 0.0;
    p.warmBytes = 8ull << 20;
    p.aluPerMemop = 6;
}

void
mixDefaults(SyntheticParams &p)
{
    p.pattern = Pattern::MixedCompute;
    p.mixColdFraction = 0.25;
    p.aluPerMemop = 8;
    p.loadMlp = 12;
}

// strided and stencil keep SyntheticParams' own defaults, and probe adds
// only the table skew its suite workloads share: each knob a suite
// workload sets is spelled in its spec (trace/suite.cc).
void stridedDefaults(SyntheticParams &p) { p.pattern = Pattern::Stride; }

void
stencilDefaults(SyntheticParams &p)
{
    p.pattern = Pattern::StencilReuse;
}

void
probeDefaults(SyntheticParams &p)
{
    p.pattern = Pattern::HashProbe;
    p.probeTableHotFraction = 0.9;
}

std::vector<CorpusGenerator>
buildGenerators()
{
    return {
        {"chase", "dependent pointer chase (mcf/canneal-like)",
         chaseDefaults,
         {kFootprint,
          {"chains", "independent chase chains interleaved", 1, 4,
           true, setChains},
          {"hit_frac", "extra always-hitting loads per block", 0, 1,
           false, setHitFrac},
          {"hot_kb", "always-hitting region size in KiB", 1, 1 << 16,
           true, setHotKb},
          kAlu, kStoreFrac, kBranchFrac, kSeed}},
        {"stream", "dense sequential sweep (lbm-like)", streamDefaults,
         {kFootprint, kStride, kMlp, kAlu, kStoreFrac, kBranchFrac,
          kSeed}},
        {"gather",
         "edge scan + random vertex gather (Ligra-like)",
         gatherDefaults,
         {kFootprint,
          {"degree", "average vertex out-degree", 1, 64, true,
           setDegree},
          {"data_stride", "bytes gathered per vertex", 8, 4096, true,
           setDataStride},
          {"hot_frac", "fraction of gathers into the hot subset", 0, 1,
           false, setGatherHotFrac},
          kMlp, kAlu, kStoreFrac, kBranchFrac, kBranchBias, kSeed}},
        {"mlp", "high memory-level-parallelism sweep", mlpDefaults,
         {kFootprint, kMlp, kStride, kAlu, kSeed}},
        {"tlb",
         "uniform random probes over a multi-GB table "
         "(TLB/page-irregular)",
         tlbDefaults, {kFootprint, kAlu, kStoreFrac, kSeed}},
        {"mix",
         "weighted accesses over L1/L2/LLC/DRAM working sets "
         "(gcc-like)",
         mixDefaults,
         {kFootprint,
          {"cold_frac", "probability of touching the DRAM array", 0, 1,
           false, setColdFrac},
          kMlp, kAlu, kBranchFrac, kBranchBias, kSeed}},
        {"strided", "constant-stride sweep (fotonik3d-like)",
         stridedDefaults, {kFootprint, kStride, kMlp, kAlu, kSeed}},
        {"stencil",
         "row sweep reading the neighbour rows (cactusADM/pop2-like)",
         stencilDefaults,
         {kFootprint,
          {"row_kb", "grid row size in KiB", 1, 1 << 16, true, setRowKb},
          kStride, kMlp, kSeed}},
        {"probe",
         "hash-table probes with hot and warm payloads "
         "(xalancbmk/server-like)",
         probeDefaults,
         {kFootprint,
          {"hot_frac", "probability a payload access hits the hot region",
           0, 1, false, setProbeHotFrac},
          {"warm_mb", "LLC-sized warm payload region in MiB", 1, 1 << 16,
           true, setWarmMb},
          kMlp, kAlu, kBranchFrac, kBranchBias, kSeed}},
    };
}

/** Nearest candidate by edit distance, for typo suggestions. */
template <typename Names>
std::string
nearest(const std::string &needle, const Names &names)
{
    std::string best;
    std::size_t best_dist = static_cast<std::size_t>(-1);
    for (const auto &n : names) {
        const std::size_t d = editDistance(needle, n);
        if (d < best_dist) {
            best_dist = d;
            best = n;
        }
    }
    return best_dist <= 3 ? best : std::string();
}

/**
 * Throw "<context>: <why>", naming @p suggestion if there is one. The
 * context says where the text came from: a spec ("corpus spec '...'")
 * or a configuration override.
 */
[[noreturn]] void
fail(const std::string &context, const std::string &why,
     const std::string &suggestion = std::string())
{
    std::string msg = context + ": " + why;
    if (!suggestion.empty())
        msg += " (did you mean '" + suggestion + "'?)";
    throw std::invalid_argument(msg);
}

std::string
formatKnobValue(const CorpusKnob &knob, double value)
{
    char buf[32];
    if (knob.integer)
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
    else
        std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

const CorpusGenerator &
findGenerator(const std::string &name, const std::string &context)
{
    std::vector<std::string> names;
    for (const auto &g : corpusGenerators()) {
        if (name == g.name)
            return g;
        names.push_back(g.name);
    }
    fail(context, "unknown generator '" + name + "'", nearest(name, names));
}

/** Position of @p key in @p gen's knob table. */
std::size_t
findKnob(const CorpusGenerator &gen, const std::string &key,
         const std::string &context)
{
    std::vector<std::string> keys;
    for (std::size_t k = 0; k < gen.knobs.size(); ++k) {
        if (key == gen.knobs[k].key)
            return k;
        keys.push_back(gen.knobs[k].key);
    }
    fail(context,
         "generator '" + std::string(gen.name) + "' has no knob '" + key +
             "'",
         nearest(key, keys));
}

/** @p value as a number in @p knob's range (an integer if it must be). */
double
parseKnobValue(const CorpusKnob &knob, const std::string &value,
               const std::string &context)
{
    const auto parsed = parseFiniteDouble(value);
    if (!parsed)
        fail(context, "invalid number '" + value + "'");
    const double v = *parsed;
    if (knob.integer && v != std::floor(v))
        fail(context, "expected an integer, got '" + value + "'");
    if (v < knob.min || v > knob.max)
        fail(context, value + " out of range [" +
                          formatKnobValue(knob, knob.min) + ", " +
                          formatKnobValue(knob, knob.max) + "]");
    return v;
}

/** A "corpus.<generator>.<knob>" override, resolved and range-checked. */
struct Override
{
    const CorpusGenerator &gen;
    const CorpusKnob &knob;
    double value;
};

Override
resolveOverride(const std::string &key, const std::string &value)
{
    const std::string context = "corpus override '" + key + "'";
    const std::size_t prefix_len = std::strlen(kPrefix);
    const std::size_t dot = key.find('.', prefix_len);
    if (!isCorpusSpec(key) || dot == std::string::npos ||
        dot == prefix_len || dot + 1 >= key.size())
        fail(context, "expected corpus.<generator>.<knob>");
    const CorpusGenerator &gen =
        findGenerator(key.substr(prefix_len, dot - prefix_len), context);
    const CorpusKnob &knob =
        gen.knobs[findKnob(gen, key.substr(dot + 1), context)];
    return {gen, knob, parseKnobValue(knob, value, key)};
}

} // namespace

const std::vector<CorpusGenerator> &
corpusGenerators()
{
    static const std::vector<CorpusGenerator> generators =
        buildGenerators();
    return generators;
}

bool
isCorpusSpec(const std::string &spec)
{
    return spec.rfind(kPrefix, 0) == 0;
}

TraceSpec
makeCorpusTrace(const std::string &spec)
{
    const std::string context = "corpus spec '" + spec + "'";
    if (!isCorpusSpec(spec))
        fail(context, "missing 'corpus.' prefix");

    // Split on ':' — the first field names the generator, the rest
    // are knob=value settings.
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t colon = spec.find(':', start);
        const std::size_t end =
            colon == std::string::npos ? spec.size() : colon;
        fields.push_back(spec.substr(start, end - start));
        if (colon == std::string::npos)
            break;
        start = colon + 1;
    }

    const CorpusGenerator &gen =
        findGenerator(fields[0].substr(std::strlen(kPrefix)), context);
    SyntheticParams params;
    gen.defaults(params);

    // Values keyed by knob-table position, so the canonical name lists
    // knobs in one stable order however the user spelled the spec.
    std::vector<double> values(gen.knobs.size());
    std::vector<bool> set(gen.knobs.size(), false);
    for (std::size_t f = 1; f < fields.size(); ++f) {
        const std::string &field = fields[f];
        const std::size_t eq = field.find('=');
        if (field.empty() || eq == std::string::npos || eq == 0)
            fail(context, "expected knob=value, got '" + field + "'");
        const std::string key = field.substr(0, eq);
        const std::size_t idx = findKnob(gen, key, context);
        if (set[idx])
            fail(context, "duplicate knob '" + key + "'");
        values[idx] = parseKnobValue(gen.knobs[idx], field.substr(eq + 1),
                                     context + ": knob '" + key + "'");
        set[idx] = true;
    }

    std::string canonical = std::string(kPrefix) + gen.name;
    for (std::size_t k = 0; k < gen.knobs.size(); ++k) {
        if (!set[k])
            continue;
        gen.knobs[k].apply(params, values[k]);
        canonical += ':';
        canonical += gen.knobs[k].key;
        canonical += '=';
        canonical += formatKnobValue(gen.knobs[k], values[k]);
    }

    params.name = canonical;
    params.category = "CORPUS";
    return TraceSpec{std::move(params)};
}

void
validateCorpusOverride(const std::string &key, const std::string &value)
{
    resolveOverride(key, value);
}

std::vector<TraceSpec>
applyCorpusOverrides(std::vector<TraceSpec> traces,
                     const std::map<std::string, std::string> &knobs)
{
    for (const auto &[key, value] : knobs) {
        const Override o = resolveOverride(key, value);
        const std::string knob_name = o.knob.key;
        // Normalize through the validated double so the rebuilt spec
        // canonicalizes identically to the inline spelling.
        const std::string canon_value = formatKnobValue(o.knob, o.value);

        const std::string spec_prefix = std::string(kPrefix) + o.gen.name;
        bool matched = false;
        for (TraceSpec &trace : traces) {
            const std::string &name = trace.name();
            if (name != spec_prefix &&
                name.rfind(spec_prefix + ":", 0) != 0)
                continue;
            matched = true;
            // Drop any inline setting of the same knob, then append the
            // override; makeCorpusTrace re-canonicalizes the order.
            std::string rebuilt = spec_prefix;
            std::size_t start = spec_prefix.size();
            while (start < name.size()) {
                const std::size_t next = name.find(':', start + 1);
                const std::size_t end =
                    next == std::string::npos ? name.size() : next;
                const std::string field =
                    name.substr(start + 1, end - start - 1);
                if (field.rfind(knob_name + "=", 0) != 0)
                    rebuilt += ":" + field;
                start = end;
            }
            rebuilt += ":" + knob_name + "=" + canon_value;
            trace = makeCorpusTrace(rebuilt);
        }
        if (!matched)
            throw std::invalid_argument(
                key + ": no trace in this run uses generator '" +
                spec_prefix + "' (the override would be dead)");
    }
    return traces;
}

std::string
describeCorpus()
{
    std::ostringstream out;
    out << "Corpus generators (corpus.<name>[:knob=value]...; also "
           "settable as corpus.<name>.<knob> config keys):\n";
    for (const auto &g : corpusGenerators()) {
        out << "  corpus." << g.name << " — " << g.doc << "\n";
        for (const auto &k : g.knobs)
            out << "    " << k.key << " — " << k.doc << " ["
                << formatKnobValue(k, k.min) << ".."
                << formatKnobValue(k, k.max) << "]\n";
    }
    return out.str();
}

} // namespace hermes
