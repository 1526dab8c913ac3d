// Tests for the self-registering model factory
// (sim/model_registry.hh): registration validation (duplicates,
// ill-formed names, names reserved for core keys, factory/kind
// mismatches), nearest-name suggestions for unknown models and knob
// keys, knob validation and fromConfig/toConfig round trips, that
// every knob reaches its model and that every spelling of a value is
// one identity, runtime registration visibility through the selection
// parameters, the rejection of names that are not registered, and the
// generated reference of the paper's models.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "predictor/hmp.hh"
#include "predictor/offchip_pred.hh"
#include "predictor/popet.hh"
#include "predictor/ttp.hh"
#include "prefetch/prefetcher.hh"
#include "sim/model_registry.hh"
#include "sim/param_registry.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "sweep/journal.hh"
#include "test_helpers.hh"
#include "trace/suite.hh"

namespace hermes
{
namespace
{

ModelDef
minimalPredictorDef(const std::string &name)
{
    ModelDef d;
    d.name = name;
    d.kind = ModelKind::Predictor;
    d.doc = "test predictor";
    d.makePredictor = [](const ModelContext &) {
        return std::unique_ptr<OffChipPredictor>();
    };
    return d;
}

SystemConfig
configWith(std::initializer_list<const char *> overrides)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    for (const char *kv : overrides)
        applyOverride(cfg, kv);
    return cfg;
}

TEST(ModelRegistry, DuplicateNameRejected)
{
    ModelRegistry reg;
    reg.add(minimalPredictorDef("dup"));
    try {
        reg.add(minimalPredictorDef("dup"));
        FAIL() << "duplicate registration did not throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("already registered"),
                  std::string::npos)
            << e.what();
    }
    // Same name under a different kind is a different model.
    ModelDef pf = minimalPredictorDef("dup");
    pf.kind = ModelKind::Prefetcher;
    pf.makePredictor = nullptr;
    pf.makePrefetcher = [](const ModelContext &) {
        return std::unique_ptr<Prefetcher>();
    };
    EXPECT_NO_THROW(reg.add(std::move(pf)));
}

TEST(ModelRegistry, IllFormedDefsRejected)
{
    ModelRegistry reg;
    // Names are lowercase [a-z0-9_].
    EXPECT_THROW(reg.add(minimalPredictorDef("Bad-Name")),
                 std::invalid_argument);
    EXPECT_THROW(reg.add(minimalPredictorDef("")),
                 std::invalid_argument);
    // Exactly one factory, matching the declared kind.
    ModelDef none = minimalPredictorDef("nofactory");
    none.makePredictor = nullptr;
    EXPECT_THROW(reg.add(std::move(none)), std::invalid_argument);
    ModelDef wrong = minimalPredictorDef("wrongkind");
    wrong.kind = ModelKind::Prefetcher;
    EXPECT_THROW(reg.add(std::move(wrong)), std::invalid_argument);
    // Knob defaults must pass their own declared validation.
    ModelDef bad_knob = minimalPredictorDef("badknob");
    bad_knob.knobs = {{"k", ModelKnob::Type::Int, "99", 0, 8, false,
                       "out-of-range default"}};
    EXPECT_THROW(reg.add(std::move(bad_knob)), std::invalid_argument);
}

TEST(ModelRegistry, NamesOfCoreKeyPrefixesRejected)
{
    // Every first segment of a dotted core key, and the corpus-generator
    // prefix, derived from the live schema so a new key family cannot
    // slip past the registry's fixed list.
    std::vector<std::string> prefixes = {"corpus"};
    for (const ParamDef &d : ParamRegistry::instance().params()) {
        const std::size_t dot = d.key.find('.');
        if (dot != std::string::npos)
            prefixes.push_back(d.key.substr(0, dot));
    }
    std::sort(prefixes.begin(), prefixes.end());
    prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                   prefixes.end());
    ASSERT_GE(prefixes.size(), 8u);
    ModelRegistry reg;
    for (const std::string &prefix : prefixes) {
        EXPECT_THROW(reg.add(minimalPredictorDef(prefix)),
                     std::invalid_argument)
            << prefix;
        EXPECT_NO_THROW(reg.add(minimalPredictorDef(prefix + "_x")))
            << prefix;
    }
}

TEST(ModelRegistry, KnobShadowedByACoreKeyRejected)
{
    // llc.ways is the LLC's associativity; a model "llc" with knob
    // "ways" could never be set.
    ModelRegistry reg;
    ModelDef d = minimalPredictorDef("llc");
    d.knobs = {{"ways", ModelKnob::Type::Int, "4", 1, 64, false,
                "a knob a core key would shadow"}};
    try {
        reg.add(std::move(d));
        FAIL() << "model 'llc' registered";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("reserved"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(reg.models(ModelKind::Predictor).empty());
}

TEST(ModelRegistry, UnknownModelGetsNearestSuggestion)
{
    try {
        ModelRegistry::instance().findOrThrow(ModelKind::Predictor,
                                              "poppet");
        FAIL() << "unknown model did not throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'popet'"),
                  std::string::npos)
            << e.what();
    }
    // The same suggestion surfaces through the selection parameter.
    try {
        configWith({"predictor=poppet"});
        FAIL() << "unknown predictor name did not throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'popet'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ModelRegistry, UnknownKnobKeyGetsNearestSuggestion)
{
    // A typo, and the kind-prefixed spelling knob keys no longer take.
    for (const char *kv :
         {"popet.weight_bit=4", "pred.popet.weight_bits=4"}) {
        try {
            configWith({kv});
            ADD_FAILURE() << kv << " did not throw";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "did you mean 'popet.weight_bits'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ModelRegistry, KnobValuesAreValidated)
{
    // Range check, naming the bounds exactly.
    EXPECT_THROW(configWith({"ttp.ways=65"}), std::invalid_argument);
    EXPECT_THROW(configWith({"popet.weight_bits=9"}),
                 std::invalid_argument);
    try {
        configWith({"hmp.local_histories=2097152"});
        ADD_FAILURE() << "out-of-range value accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("out of range [1, 1048576]"),
                  std::string::npos)
            << e.what();
    }
    // Power-of-two check on mask-indexed geometry.
    EXPECT_THROW(configWith({"ttp.sets=1000"}), std::invalid_argument);
    EXPECT_THROW(configWith({"hmp.gshare_counters=1000"}),
                 std::invalid_argument);
    // Type check.
    EXPECT_THROW(configWith({"hmp.counter_bits=many"}),
                 std::invalid_argument);
    EXPECT_THROW(configWith({"popet.train_on_mispredict=maybe"}),
                 std::invalid_argument);
    // In-range values apply.
    EXPECT_NO_THROW(configWith({"ttp.sets=1024"}));
}

TEST(ModelRegistry, KnobsRoundTripThroughConfig)
{
    const SystemConfig cfg =
        configWith({"predictor=hmp", "hmp.counter_bits=3"});
    const Config out = cfg.toConfig();
    EXPECT_EQ(out.get("predictor", std::string()), "hmp");
    EXPECT_EQ(out.get("hmp.counter_bits", std::string()), "3");
    // And back: a config rebuilt from the rendering is identical.
    const SystemConfig again = SystemConfig::fromConfig(out);
    EXPECT_EQ(again.predictor, "hmp");
    EXPECT_EQ(again.modelKnobs, cfg.modelKnobs);

    // Untouched knobs never render.
    const Config base = SystemConfig::baseline(1).toConfig();
    for (const std::string &key : ModelRegistry::instance().knobKeys())
        EXPECT_FALSE(base.contains(key)) << key;
}

TEST(ModelRegistry, EveryKnobKeyAppliesIntoModelKnobs)
{
    const ModelRegistry &models = ModelRegistry::instance();
    const std::vector<std::string> keys = models.knobKeys();
    ASSERT_FALSE(keys.empty());
    for (const std::string &key : keys) {
        // One namespace per model: no knob shadows a core parameter or
        // the corpus-generator keys.
        EXPECT_EQ(ParamRegistry::instance().find(key), nullptr) << key;
        EXPECT_NE(key.rfind("corpus.", 0), 0u) << key;

        // An off-default value is stored under the key, and setting the
        // default again erases it.
        const ModelKnob &k = *models.findKnob(key).knob;
        std::string value;
        switch (k.type) {
          case ModelKnob::Type::Bool:
            value = k.defaultValue == "true" ? "false" : "true";
            break;
          case ModelKnob::Type::Int: {
            const std::int64_t d = std::stoll(k.defaultValue);
            const std::int64_t up = k.powerOfTwo ? d * 2 : d + 1;
            const std::int64_t down = k.powerOfTwo ? d / 2 : d - 1;
            value = std::to_string(up <= k.maxValue ? up : down);
            break;
          }
        }
        SystemConfig cfg = SystemConfig::baseline(1);
        ParamRegistry::instance().apply(cfg, key, value);
        ASSERT_EQ(cfg.modelKnobs.count(key), 1u) << key << "=" << value;
        EXPECT_EQ(cfg.toConfig().get(key, std::string()),
                  cfg.modelKnobs.at(key));
        ParamRegistry::instance().apply(cfg, key, k.defaultValue);
        EXPECT_TRUE(cfg.modelKnobs.empty()) << key;
    }
}

/** Every identity a configuration has: rendering, point, warmup. */
std::string
identity(const SystemConfig &cfg)
{
    const std::vector<TraceSpec> traces = {findTrace("spec06.mcf_like.0")};
    SimBudget b;
    b.warmupInstrs = 2'000;
    b.simInstrs = 5'000;
    sweep::GridPoint point;
    point.label = "p";
    point.config = cfg;
    point.traces = traces;
    point.budget = b;
    const SimSession session(cfg, traces, b);
    std::string out;
    const Config c = cfg.toConfig();
    for (const std::string &key : c.keys())
        out += key + "=" + *c.getString(key) + "\n";
    return out + "point " + std::to_string(sweep::pointFingerprint(point)) +
           "\nwarmup " + std::to_string(session.warmupFingerprint()) + "\n";
}

TEST(ModelRegistry, EverySpellingOfAValueIsOneIdentity)
{
    // Explicit defaults, in any spelling, are no override at all.
    const std::string base = identity(configWith({"predictor=popet"}));
    for (const char *kv :
         {"popet.act_threshold=-18", "popet.feature_mask=0x1f",
          "popet.train_on_mispredict=yes", "hmp.counter_bits=2",
          "ttp.sets=0x10000", "ttp.tag_bits=16"})
        EXPECT_EQ(identity(configWith({"predictor=popet", kv})), base)
            << kv;
    // Off-default values are stored canonically too.
    const std::pair<const char *, const char *> same[] = {
        {"popet.feature_mask=3", "popet.feature_mask=0x3"},
        {"popet.train_on_mispredict=false",
         "popet.train_on_mispredict=off"},
    };
    for (const auto &[a, b] : same) {
        const std::string one = identity(configWith({"predictor=popet", a}));
        EXPECT_NE(one, base) << a;
        EXPECT_EQ(identity(configWith({"predictor=popet", b})), one) << b;
    }
}

/** What a predictor shows after one seeded load stream. */
struct Observed
{
    std::string predictions;
    std::uint64_t storageBits = 0;
    std::vector<char> state;

    bool
    operator==(const Observed &o) const
    {
        return predictions == o.predictions &&
               storageBits == o.storageBits && state == o.state;
    }
};

Observed
observe(OffChipPredictor &pred)
{
    // A quarter of the PCs mostly go off-chip, the rest mostly hit,
    // so every predictor learns and its parameters show.
    Rng rng(42);
    Observed o;
    for (int i = 0; i < 20'000; ++i) {
        const Addr pc = 0x400000 + 4 * rng.below(64);
        const Addr vaddr = rng.below(Addr{1} << 16);
        PredMeta meta;
        o.predictions += pred.predict(pc, vaddr, meta) ? '1' : '0';
        const bool off_chip =
            rng.chance((pc >> 2) % 4 == 0 ? 0.9 : 0.05);
        pred.train(pc, vaddr, meta, off_chip);
        if (off_chip)
            pred.onFillFromDram(lineAddr(vaddr));
        else if (rng.chance(0.2))
            pred.onLlcEviction(lineAddr(vaddr));
    }
    o.storageBits = pred.storageBits();
    test::VectorSink sink;
    StateWriter w(sink);
    pred.saveState(w);
    w.sealChecksum();
    o.state = std::move(sink.bytes);
    return o;
}

template <typename Model, typename Params>
std::function<std::unique_ptr<OffChipPredictor>()>
direct(void (*set)(Params &))
{
    return [set] {
        Params p;
        set(p);
        return std::make_unique<Model>(p);
    };
}

TEST(ModelRegistry, EveryKnobReachesItsModel)
{
    // One row per knob: the predictor built by the registry from an
    // off-default override must behave exactly like one built
    // directly from its typed parameters with the same field set. A
    // row with no override pins the defaults.
    struct Row
    {
        const char *model;
        const char *kv; ///< "" = no override
        std::function<std::unique_ptr<OffChipPredictor>()> build;
    };
    using P = PopetParams;
    using H = HmpParams;
    using T = TtpParams;
    const Row rows[] = {
        {"popet", "", direct<Popet, P>([](P &) {})},
        {"popet", "popet.act_threshold=-10",
         direct<Popet, P>([](P &p) { p.activationThreshold = -10; })},
        {"popet", "popet.train_threshold_neg=-20",
         direct<Popet, P>([](P &p) { p.trainingThresholdNeg = -20; })},
        {"popet", "popet.train_threshold_pos=10",
         direct<Popet, P>([](P &p) { p.trainingThresholdPos = 10; })},
        {"popet", "popet.train_on_mispredict=false",
         direct<Popet, P>([](P &p) { p.trainOnMispredict = false; })},
        {"popet", "popet.weight_bits=4",
         direct<Popet, P>([](P &p) { p.weightBits = 4; })},
        {"popet", "popet.feature_mask=5",
         direct<Popet, P>([](P &p) { p.featureMask = 5; })},
        {"popet", "popet.page_buffer_entries=16",
         direct<Popet, P>([](P &p) { p.pageBufferEntries = 16; })},
        {"hmp", "", direct<Hmp, H>([](H &) {})},
        {"hmp", "hmp.local_histories=1024",
         direct<Hmp, H>([](H &p) { p.localHistories = 1024; })},
        {"hmp", "hmp.local_history_bits=8",
         direct<Hmp, H>([](H &p) { p.localHistoryBits = 8; })},
        {"hmp", "hmp.local_counters=4096",
         direct<Hmp, H>([](H &p) { p.localCounters = 4096; })},
        {"hmp", "hmp.gshare_counters=4096",
         direct<Hmp, H>([](H &p) { p.gshareCounters = 4096; })},
        {"hmp", "hmp.global_history_bits=10",
         direct<Hmp, H>([](H &p) { p.globalHistoryBits = 10; })},
        {"hmp", "hmp.gskew_counters=2048",
         direct<Hmp, H>([](H &p) { p.gskewCounters = 2048; })},
        {"hmp", "hmp.counter_bits=3",
         direct<Hmp, H>([](H &p) { p.counterBits = 3; })},
        {"ttp", "", direct<Ttp, T>([](T &) {})},
        {"ttp", "ttp.sets=1024",
         direct<Ttp, T>([](T &p) { p.sets = 1024; })},
        {"ttp", "ttp.ways=4", direct<Ttp, T>([](T &p) { p.ways = 4; })},
        {"ttp", "ttp.tag_bits=8",
         direct<Ttp, T>([](T &p) { p.tagBits = 8; })},
    };
    const ModelRegistry &models = ModelRegistry::instance();
    auto viaRegistry = [&models](const char *model,
                                 const SystemConfig &cfg) {
        ModelContext ctx;
        ctx.knobs = &cfg.modelKnobs;
        auto pred = models.makePredictor(model, ctx);
        EXPECT_NE(pred, nullptr) << model;
        return observe(*pred);
    };
    const SystemConfig defaults = SystemConfig::baseline(1);
    std::size_t knobs = 0;
    for (const Row &row : rows) {
        SystemConfig cfg = defaults;
        if (*row.kv != '\0') {
            applyOverride(cfg, row.kv);
            ASSERT_EQ(cfg.modelKnobs.size(), 1u) << row.kv;
            ++knobs;
        }
        const Observed got = viaRegistry(row.model, cfg);
        EXPECT_TRUE(got == observe(*row.build())) << row.kv;
        // The value must show, or the row could not catch a knob the
        // factory drops.
        if (*row.kv != '\0') {
            EXPECT_FALSE(got == viaRegistry(row.model, defaults))
                << row.kv;
        }
    }
    // Every declared knob of the three models has its row.
    std::size_t declared = 0;
    for (const char *model : {"popet", "hmp", "ttp"})
        declared +=
            models.findOrThrow(ModelKind::Predictor, model).knobs.size();
    EXPECT_EQ(knobs, declared);
}

TEST(ModelRegistry, UndeclaredKnobReadIsAModelBug)
{
    ModelContext ctx;
    ModelDef def = minimalPredictorDef("ctxtest");
    ctx.model = &def;
    EXPECT_THROW(ctx.knobInt("no_such_knob"), std::logic_error);
}

TEST(ModelRegistry, RuntimeRegistrationIsSelectable)
{
    // The registry stays open: a model added after static
    // initialization (here: mid-test) is immediately selectable
    // through the live-validated selection parameters.
    const std::string name = "runtime_test_pred";
    if (!ModelRegistry::instance().find(ModelKind::Predictor, name))
        ModelRegistry::instance().add(minimalPredictorDef(name));
    const SystemConfig cfg = configWith({"predictor=runtime_test_pred"});
    EXPECT_EQ(cfg.predictor, name);
    EXPECT_EQ(cfg.toConfig().get("predictor", std::string()), name);
}

TEST(ModelSelection, OnlyRegisteredNamesSelect)
{
    // One row per selection parameter: every name constant the code
    // selects by must be registered and must apply verbatim; the same
    // non-names must be rejected by all three keys, each with a
    // nearest-name suggestion, leaving the field untouched.
    struct Row
    {
        const char *key;
        ModelKind kind;
        std::string SystemConfig::*field;
        std::vector<const char *> names;
        /** A rejected value and the name it must suggest. */
        std::pair<const char *, const char *> nearest;
    };
    const Row rows[] = {
        {"predictor",
         ModelKind::Predictor,
         &SystemConfig::predictor,
         {PredictorKind::None, PredictorKind::Popet, PredictorKind::Hmp,
          PredictorKind::Ttp, PredictorKind::Ideal},
         {"Popet", "popet"}},
        {"prefetcher",
         ModelKind::Prefetcher,
         &SystemConfig::prefetcher,
         {PrefetcherKind::None, PrefetcherKind::Streamer,
          PrefetcherKind::Spp, PrefetcherKind::Bingo, PrefetcherKind::Mlop,
          PrefetcherKind::Sms, PrefetcherKind::Pythia},
         {"Pythia", "pythia"}},
        {"llc.repl",
         ModelKind::Replacement,
         &SystemConfig::llcRepl,
         {"lru", "srrip", "ship"},
         {"plru", "lru"}},
    };
    const ParamRegistry &params = ParamRegistry::instance();
    for (const Row &row : rows) {
        // The baseline's choice is one of the names.
        const SystemConfig base = SystemConfig::baseline(1);
        EXPECT_NE(ModelRegistry::instance().find(row.kind, base.*row.field),
                  nullptr)
            << row.key;
        for (const char *name : row.names) {
            EXPECT_NE(ModelRegistry::instance().find(row.kind, name),
                      nullptr)
                << row.key << "=" << name;
            SystemConfig cfg = base;
            params.apply(cfg, row.key, name);
            EXPECT_EQ(cfg.*row.field, name);
            EXPECT_EQ(cfg.toConfig().get(row.key, std::string()), name);
        }
        for (const char *bad : {"", "Popet", "Pythia", "stride", "plru"}) {
            SystemConfig cfg = base;
            try {
                params.apply(cfg, row.key, bad);
                ADD_FAILURE() << row.key << "='" << bad << "' accepted";
            } catch (const std::invalid_argument &e) {
                const std::string msg = e.what();
                const std::string hint =
                    std::string("did you mean '") +
                    (bad == std::string(row.nearest.first)
                         ? std::string(row.nearest.second) + "'"
                         : "");
                EXPECT_NE(msg.find(hint), std::string::npos)
                    << row.key << "='" << bad << "': " << msg;
            }
            EXPECT_EQ(cfg.*row.field, base.*row.field) << row.key;
        }
    }
}

TEST(ModelRegistry, ListsHoldThePapersModels)
{
    // The paper's models and the streamer baseline are listed, and the
    // generated reference has a header line for each and a line for
    // each of its knobs, every bound printed exactly.
    const ModelRegistry &models = ModelRegistry::instance();
    const std::string ref = models.describe();
    const std::pair<ModelKind, std::vector<const char *>> lists[] = {
        {ModelKind::Predictor,
         {PredictorKind::None, PredictorKind::Popet, PredictorKind::Hmp,
          PredictorKind::Ttp, PredictorKind::Ideal}},
        {ModelKind::Prefetcher,
         {PrefetcherKind::None, PrefetcherKind::Streamer,
          PrefetcherKind::Spp, PrefetcherKind::Bingo, PrefetcherKind::Mlop,
          PrefetcherKind::Sms, PrefetcherKind::Pythia}},
    };
    for (const auto &[kind, paper] : lists) {
        const std::vector<std::string> names = models.names(kind);
        for (const char *name : paper) {
            EXPECT_NE(std::find(names.begin(), names.end(), name),
                      names.end())
                << name;
            EXPECT_NE(ref.find(std::string(modelKindLabel(kind)) + " " +
                               name + " — "),
                      std::string::npos)
                << name;
            const ModelDef &d = models.findOrThrow(kind, name);
            for (const ModelKnob &k : d.knobs)
                EXPECT_NE(ref.find("  knob " + d.knobKey(k) + " "),
                          std::string::npos)
                    << d.knobKey(k);
        }
    }
    // Bounds print as exact integers: ttp.sets goes up to 2^24.
    EXPECT_NE(ref.find("[1, 16777216] pow2"), std::string::npos);
}

} // namespace
} // namespace hermes
