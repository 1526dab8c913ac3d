// Tests for the self-registering model factory
// (sim/model_registry.hh): registration validation (duplicates,
// ill-formed names, factory/kind mismatches), nearest-name suggestions
// for unknown models and knob keys, knob validation and
// fromConfig/toConfig round trips, runtime registration visibility
// through the selection parameters, the rejection of names that are
// not registered, and deterministic runs of the new contenders.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "predictor/offchip_pred.hh"
#include "prefetch/prefetcher.hh"
#include "sim/model_registry.hh"
#include "sim/param_registry.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
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

TEST(ModelRegistry, UnknownModelGetsNearestSuggestion)
{
    try {
        ModelRegistry::instance().findOrThrow(ModelKind::Predictor,
                                              "hashprec");
        FAIL() << "unknown model did not throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'hashperc'"),
                  std::string::npos)
            << e.what();
    }
    // The same suggestion surfaces through the selection parameter.
    try {
        configWith({"predictor=hashprec"});
        FAIL() << "unknown predictor name did not throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("hashperc"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ModelRegistry, UnknownKnobKeyGetsNearestSuggestion)
{
    try {
        configWith({"pred.hashperc.table_bit=12"});
        FAIL() << "unknown knob key did not throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(
            std::string(e.what()).find("pred.hashperc.table_bits"),
            std::string::npos)
            << e.what();
    }
}

TEST(ModelRegistry, KnobValuesAreValidated)
{
    // Range check.
    EXPECT_THROW(configWith({"pred.hashperc.table_bits=40"}),
                 std::invalid_argument);
    // Power-of-two check on mask-indexed geometry.
    EXPECT_THROW(configWith({"pref.ipcp.entries=1000"}),
                 std::invalid_argument);
    // Type check.
    EXPECT_THROW(configWith({"pred.hashperc.hashes=many"}),
                 std::invalid_argument);
    // In-range values apply.
    EXPECT_NO_THROW(configWith({"pref.ipcp.entries=2048"}));
}

TEST(ModelRegistry, KnobsRoundTripThroughConfig)
{
    const SystemConfig cfg = configWith(
        {"predictor=hashperc", "pred.hashperc.table_bits=12"});
    const Config out = cfg.toConfig();
    EXPECT_EQ(out.get("predictor", std::string()), "hashperc");
    EXPECT_EQ(out.get("pred.hashperc.table_bits", std::string()), "12");
    // And back: a config rebuilt from the rendering is identical.
    const SystemConfig again = SystemConfig::fromConfig(out);
    EXPECT_EQ(again.predictor, "hashperc");
    EXPECT_EQ(again.modelKnobs, cfg.modelKnobs);

    // Untouched knobs never render: pre-registry configurations keep
    // their exact key set (and therefore their golden fingerprints).
    const Config base = SystemConfig::baseline(1).toConfig();
    for (const std::string &key : base.keys()) {
        EXPECT_NE(key.rfind("pred.", 0), 0u) << key;
        EXPECT_NE(key.rfind("pref.", 0), 0u) << key;
        EXPECT_NE(key.rfind("repl.", 0), 0u) << key;
    }
    EXPECT_FALSE(base.contains("pred.hashperc.table_bits"));
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

TEST(ModelRegistry, ListsContainTheNewContenders)
{
    const auto preds =
        ModelRegistry::instance().names(ModelKind::Predictor);
    EXPECT_NE(std::find(preds.begin(), preds.end(), "hashperc"),
              preds.end());
    const auto prefs =
        ModelRegistry::instance().names(ModelKind::Prefetcher);
    EXPECT_NE(std::find(prefs.begin(), prefs.end(), "ipcp"),
              prefs.end());
    const std::string ref = ModelRegistry::instance().describe();
    EXPECT_NE(ref.find("pred.hashperc.table_bits"), std::string::npos);
    EXPECT_NE(ref.find("pref.ipcp.degree"), std::string::npos);
}

TEST(ModelRegistryGolden, NewContendersRunDeterministically)
{
    SimBudget b;
    b.warmupInstrs = 2'000;
    b.simInstrs = 5'000;
    const TraceSpec trace = findTrace("spec06.mcf_like.0");

    const SystemConfig pred_cfg = configWith(
        {"predictor=hashperc", "hermes.enabled=true"});
    const RunStats p1 = simulate(pred_cfg, {trace}, b);
    const RunStats p2 = simulate(pred_cfg, {trace}, b);
    EXPECT_EQ(statsFingerprint(p1), statsFingerprint(p2));
    EXPECT_GT(p1.predTotal().total(), 0u);
    EXPECT_GT(p1.hermesRequestsScheduled, 0u);

    // A streaming trace: ipcp needs stable per-PC strides to trigger.
    const TraceSpec stream = findTrace("parsec.streamcluster_like.0");
    const SystemConfig pf_cfg = configWith({"prefetcher=ipcp"});
    const RunStats f1 = simulate(pf_cfg, {stream}, b);
    const RunStats f2 = simulate(pf_cfg, {stream}, b);
    EXPECT_EQ(statsFingerprint(f1), statsFingerprint(f2));
    EXPECT_GT(f1.llc.prefetchIssued, 0u);
}

} // namespace
} // namespace hermes
