// Tests for the schema'd parameter registry (sim/param_registry.hh):
// fromConfig/toConfig round trips, validation (unknown keys with
// nearest-key suggestion, range and power-of-two rejection, enum
// membership), string-driven sweep axes, and the golden guarantee that
// a string-built scenario produces byte-identical RunStats
// fingerprints to the equivalent struct-built configuration.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/config.hh"
#include "golden_util.hh"
#include "sim/param_registry.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sweep/axis.hh"
#include "trace/suite.hh"

namespace hermes
{
namespace
{

using golden::goldenBudget;
using golden::loadGoldens;

/** Every registered key with its value, as one comparable string. */
std::string
flatten(const SystemConfig &cfg)
{
    std::string out;
    const Config c = cfg.toConfig();
    for (const std::string &key : c.keys())
        out += key + "=" + *c.getString(key) + "\n";
    return out;
}

TEST(ParamRegistry, EveryParamHasDocRangeAndReparseableDefault)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    for (const ParamDef &d : ParamRegistry::instance().params()) {
        EXPECT_FALSE(d.doc.empty()) << d.key;
        if (d.type == ParamType::Int || d.type == ParamType::Size) {
            EXPECT_LT(d.minValue, d.maxValue) << d.key;
        }
        if (d.type == ParamType::Enum) {
            EXPECT_FALSE(d.choices.empty()) << d.key;
        }
        // The emitted value format must feed back through validation.
        EXPECT_NO_THROW(ParamRegistry::instance().apply(
            cfg, d.key, d.defaultValue()))
            << d.key;
    }
}

TEST(ParamRegistry, FromConfigEmptyIsBaseline)
{
    EXPECT_EQ(flatten(SystemConfig::fromConfig(Config{})),
              flatten(SystemConfig::baseline(1)));
}

TEST(ParamRegistry, ToConfigRoundTrips)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = PrefetcherKind::Pythia;
    cfg.predictor = PredictorKind::Popet;
    cfg.hermesIssueEnabled = true;
    cfg.llcLatency = 50;
    applyOverride(cfg, "popet.act_threshold=-22");
    cfg.llcBytesPerCore = 6ull << 20;
    EXPECT_EQ(flatten(SystemConfig::fromConfig(cfg.toConfig())),
              flatten(cfg));
}

TEST(ParamRegistry, CoresSeedTheBaselineDerivedDefaults)
{
    // system.cores alone must reproduce baseline(n), including the
    // DRAM channel/rank scaling baseline() derives from the core count.
    Config c;
    c.set("system.cores", "8");
    EXPECT_EQ(flatten(SystemConfig::fromConfig(c)),
              flatten(SystemConfig::baseline(8)));
}

TEST(ParamRegistry, UnknownKeySuggestsNearest)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    try {
        ParamRegistry::instance().apply(cfg, "llc.way", "8");
        FAIL() << "unknown key accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("llc.ways"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ParamRegistry, RejectsOutOfRangeAndNonPowerOfTwo)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    EXPECT_THROW(applyOverride(cfg, "llc.ways=0"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "system.cores=65"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "popet.weight_bits=9"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "l1.sets=48"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "hmp.gshare_counters=1000"),
                 std::invalid_argument);
    // The rejecting path must not half-write the config.
    EXPECT_EQ(flatten(cfg), flatten(SystemConfig::baseline(1)));
}

TEST(ParamRegistry, RejectsMalformedValues)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    EXPECT_THROW(applyOverride(cfg, "llc.latency=abc"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "llc.latency=40x"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "hermes.enabled=maybe"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "predictor=foo"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "noequalssign"),
                 std::invalid_argument);
}

TEST(ParamRegistry, SeedSpansFullUint64Range)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.seed = 1ull << 63; // legal via the struct API
    EXPECT_EQ(flatten(SystemConfig::fromConfig(cfg.toConfig())),
              flatten(cfg));
    applyOverride(cfg, "system.seed=18446744073709551615");
    EXPECT_EQ(cfg.seed, UINT64_MAX);
    EXPECT_THROW(applyOverride(cfg, "system.seed=-1"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "system.seed=18446744073709551616"),
                 std::invalid_argument);
}

TEST(ParamRegistry, SizeSuffixesParse)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    applyOverride(cfg, "llc.bytes_per_core=6M");
    EXPECT_EQ(cfg.llcBytesPerCore, 6ull << 20);
    applyOverride(cfg, "llc.bytes_per_core=131072");
    EXPECT_EQ(cfg.llcBytesPerCore, 131072u);
    applyOverride(cfg, "dram.row_buffer_bytes=4K");
    EXPECT_EQ(cfg.dram.rowBufferBytes, 4096u);
}

TEST(ParamRegistry, OverridesReachNestedParams)
{
    const SystemConfig cfg = configWith(
        SystemConfig::baseline(1),
        {"popet.act_threshold=-25", "hmp.counter_bits=3",
         "ttp.tag_bits=12", "dram.channels=2", "core.rob_size=256",
         "llc.repl=lru"});
    // Model parameters land in the knob map their factories read.
    EXPECT_EQ(cfg.modelKnobs.at("popet.act_threshold"), "-25");
    EXPECT_EQ(cfg.modelKnobs.at("hmp.counter_bits"), "3");
    EXPECT_EQ(cfg.modelKnobs.at("ttp.tag_bits"), "12");
    EXPECT_EQ(cfg.dram.channels, 2u);
    EXPECT_EQ(cfg.core.robSize, 256u);
    EXPECT_EQ(cfg.llcRepl, "lru");
}

TEST(SweepAxis, ParsesKeyAndValues)
{
    const sweep::Axis axis = sweep::parseAxis("llc.latency=30,40,50");
    EXPECT_EQ(axis.key, "llc.latency");
    EXPECT_EQ(axis.values,
              (std::vector<std::string>{"30", "40", "50"}));
}

TEST(SweepAxis, RejectsMalformedSpecs)
{
    EXPECT_THROW(sweep::parseAxis("llc.latency"),
                 std::invalid_argument);
    EXPECT_THROW(sweep::parseAxis("=30,40"), std::invalid_argument);
    EXPECT_THROW(sweep::parseAxis("llc.latency=30,,50"),
                 std::invalid_argument);
    EXPECT_THROW(sweep::parseAxis("llc.latency="),
                 std::invalid_argument);
    EXPECT_THROW(sweep::parseAxis("not.a.key=1,2"),
                 std::invalid_argument);
}

TEST(SweepAxis, ExpandAxisAppliesAndLabels)
{
    const auto pts = sweep::expandAxis(SystemConfig::baseline(1),
                                       "llc.latency=30,40");
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_EQ(pts[0].label, "llc.latency=30");
    EXPECT_EQ(pts[0].config.llcLatency, 30u);
    EXPECT_EQ(pts[1].label, "llc.latency=40");
    EXPECT_EQ(pts[1].config.llcLatency, 40u);
    // Invalid values fail before any simulation could start.
    EXPECT_THROW(sweep::expandAxis(SystemConfig::baseline(1),
                                   "l1.sets=48,64"),
                 std::invalid_argument);
}

TEST(SweepAxis, ModelAndCorpusKnobsAreAxes)
{
    const auto model = sweep::expandAxis(SystemConfig::baseline(1),
                                         "popet.act_threshold=-38,2");
    ASSERT_EQ(model.size(), 2u);
    EXPECT_EQ(model[1].config.modelKnobs.at("popet.act_threshold"), "2");
    const auto corpus = sweep::expandAxis(SystemConfig::baseline(1),
                                          "corpus.chase.alu=8,32");
    ASSERT_EQ(corpus.size(), 2u);
    EXPECT_EQ(corpus[1].config.corpusKnobs.at("corpus.chase.alu"), "32");
    EXPECT_THROW(sweep::parseAxis("corpus.chase.alu=8,65"),
                 std::invalid_argument);
    EXPECT_THROW(sweep::parseAxis("popet.no_such_knob=1"),
                 std::invalid_argument);
}

TEST(SweepAxis, ExpandGridIsCartesianLastAxisFastest)
{
    const auto pts = sweep::expandGrid(
        SystemConfig::baseline(1),
        {"llc.latency=30,40", "core.rob_size=256,512"});
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[0].label, "llc.latency=30/core.rob_size=256");
    EXPECT_EQ(pts[1].label, "llc.latency=30/core.rob_size=512");
    EXPECT_EQ(pts[3].label, "llc.latency=40/core.rob_size=512");
    EXPECT_EQ(pts[3].config.llcLatency, 40u);
    EXPECT_EQ(pts[3].config.core.robSize, 512u);
}

TEST(ParamRegistry, DescribeListsEveryKey)
{
    const std::string table = ParamRegistry::instance().describe();
    for (const ParamDef &d : ParamRegistry::instance().params())
        EXPECT_NE(table.find(d.key), std::string::npos) << d.key;
    const std::string space = describeScenarioSpace();
    EXPECT_NE(space.find("popet"), std::string::npos);
    EXPECT_NE(space.find("pythia"), std::string::npos);
    EXPECT_NE(space.find(quickSuite()[0].name()), std::string::npos);
}

// --- Golden guarantees -------------------------------------------------

TEST(ParamRegistryGolden, StringBuiltBaselineMatchesGoldenFingerprint)
{
    const auto golden = loadGoldens();
    ASSERT_TRUE(golden.count("one.base.mcf"));
    const RunStats stats =
        simulate(SystemConfig::fromConfig(Config{}),
                 {findTrace("spec06.mcf_like.0")}, goldenBudget());
    EXPECT_EQ(statsFingerprint(stats), golden.at("one.base.mcf"))
        << "string-built baseline diverged from the library-API golden";
}

TEST(ParamRegistryGolden, StringOverridesMatchStructMutation)
{
    // The golden "one.hermes.mcf" config, built through the struct API
    // in test_determinism.cc, expressed here as override strings.
    const auto golden = loadGoldens();
    ASSERT_TRUE(golden.count("one.hermes.mcf"));
    const SystemConfig cfg = configWith(
        SystemConfig::baseline(1),
        {"prefetcher=pythia", "predictor=popet", "hermes.enabled=true"});
    const RunStats stats = simulate(
        cfg, {findTrace("spec06.mcf_like.0")}, goldenBudget());
    EXPECT_EQ(statsFingerprint(stats), golden.at("one.hermes.mcf"));
}

TEST(ParamRegistryGolden, SimulateDispatcherMatchesMixGolden)
{
    const auto golden = loadGoldens();
    ASSERT_TRUE(golden.count("mix2.hermes"));
    const SystemConfig cfg = configWith(
        SystemConfig::fromConfig([] {
            Config c;
            c.set("system.cores", "2");
            return c;
        }()),
        {"prefetcher=pythia", "predictor=popet", "hermes.enabled=true"});
    const RunStats stats =
        simulate(cfg,
                 {findTrace("spec06.mcf_like.0"),
                  findTrace("parsec.streamcluster_like.0")},
                 goldenBudget());
    EXPECT_EQ(statsFingerprint(stats), golden.at("mix2.hermes"));
}

} // namespace
} // namespace hermes
