// Tests for the declarative workload corpus and the unified trace
// resolver: spec canonicalization (knob order / value formatting
// never fork a trace identity), knob validation with suggestions,
// and the resolver contract — suite names resolve exactly as before
// the resolver existed (fingerprint safety), corpus and file specs
// resolve to runnable workloads, and malformed specs fail with
// actionable errors. SuiteStreams pins every suite trace's and every
// bare generator's identity and instruction stream in
// tests/golden/suite_streams.txt; after an *intentional* stream change
// regenerate it with
//   HERMES_UPDATE_GOLDEN=1 ./test_corpus --gtest_filter='SuiteStreams.*'

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "common/fnv.hh"
#include "common/state_io.hh"
#include "golden_util.hh"
#include "sim/param_registry.hh"
#include "sim/simulator.hh"
#include "test_helpers.hh"
#include "trace/corpus.hh"
#include "trace/resolve.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"

namespace hermes
{
namespace
{

std::string
thrownMessage(const std::string &spec)
{
    try {
        resolveTrace(spec);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(Corpus, KnobOrderDoesNotForkIdentity)
{
    const TraceSpec a =
        makeCorpusTrace("corpus.chase:seed=7:footprint_mb=64");
    const TraceSpec b =
        makeCorpusTrace("corpus.chase:footprint_mb=64:seed=7");
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.category(), "CORPUS");
}

TEST(Corpus, ValueFormattingDoesNotForkIdentity)
{
    const TraceSpec a = makeCorpusTrace("corpus.chase:hit_frac=0.50");
    const TraceSpec b = makeCorpusTrace("corpus.chase:hit_frac=0.5");
    EXPECT_EQ(a.name(), b.name());
}

TEST(Corpus, DefaultsOmittedFromCanonicalName)
{
    const TraceSpec bare = makeCorpusTrace("corpus.stream");
    EXPECT_EQ(bare.name(), "corpus.stream");
}

TEST(Corpus, SameSpecSameStream)
{
    const TraceSpec a = makeCorpusTrace("corpus.gather:degree=4:seed=9");
    const TraceSpec b = makeCorpusTrace("corpus.gather:degree=4:seed=9");
    auto wa = a.make();
    auto wb = b.make();
    for (int i = 0; i < 2000; ++i) {
        const TraceInstr x = wa->next();
        const TraceInstr y = wb->next();
        ASSERT_EQ(x.pc, y.pc) << i;
        ASSERT_EQ(x.vaddr, y.vaddr) << i;
    }
}

TEST(Corpus, KnobChangesStream)
{
    auto a = makeCorpusTrace("corpus.chase:footprint_mb=4").make();
    auto b = makeCorpusTrace("corpus.chase:footprint_mb=64").make();
    bool differs = false;
    for (int i = 0; i < 5000 && !differs; ++i)
        differs = a->next().vaddr != b->next().vaddr;
    EXPECT_TRUE(differs);
}

TEST(Corpus, UnknownGeneratorSuggestsNearest)
{
    EXPECT_NE(thrownMessage("corpus.chse").find("chase"),
              std::string::npos);
}

TEST(Corpus, UnknownKnobSuggestsNearest)
{
    EXPECT_NE(thrownMessage("corpus.chase:footprnt_mb=8")
                  .find("footprint_mb"),
              std::string::npos);
}

TEST(Corpus, RejectsOutOfRangeValue)
{
    EXPECT_THROW(makeCorpusTrace("corpus.chase:footprint_mb=0"),
                 std::invalid_argument);
    EXPECT_THROW(makeCorpusTrace("corpus.chase:hit_frac=1.5"),
                 std::invalid_argument);
}

TEST(Corpus, RejectsNonIntegerForIntegerKnob)
{
    EXPECT_THROW(makeCorpusTrace("corpus.gather:degree=2.5"),
                 std::invalid_argument);
}

TEST(Corpus, RejectsDuplicateKnob)
{
    EXPECT_THROW(makeCorpusTrace("corpus.chase:seed=1:seed=2"),
                 std::invalid_argument);
}

TEST(Corpus, RejectsMalformedPair)
{
    EXPECT_THROW(makeCorpusTrace("corpus.chase:seed"),
                 std::invalid_argument);
    EXPECT_THROW(makeCorpusTrace("corpus.chase:seed=abc"),
                 std::invalid_argument);
}

TEST(Corpus, EveryGeneratorProducesRunnableWorkload)
{
    for (const auto &g : corpusGenerators()) {
        const TraceSpec spec =
            makeCorpusTrace(std::string("corpus.") + g.name);
        auto w = spec.make();
        int loads = 0;
        for (int i = 0; i < 5000; ++i)
            if (w->next().kind == InstrKind::Load)
                ++loads;
        EXPECT_GT(loads, 0) << g.name;
    }
}

TEST(Corpus, DescribeListsEveryGeneratorAndKnob)
{
    const std::string doc = describeCorpus();
    for (const auto &g : corpusGenerators()) {
        EXPECT_NE(doc.find(std::string("corpus.") + g.name),
                  std::string::npos)
            << g.name;
        for (const auto &k : g.knobs)
            EXPECT_NE(doc.find(k.key), std::string::npos)
                << g.name << ":" << k.key;
    }
}

TEST(Resolver, SuiteNamesResolveUnchanged)
{
    // Identity safety: the resolver must hand back suite traces with
    // the exact names the golden fingerprints were pinned against.
    for (const TraceSpec &t : fullSuite()) {
        const TraceSpec r = resolveTrace(t.name());
        EXPECT_EQ(r.name(), t.name());
        EXPECT_EQ(r.category(), t.category());
        EXPECT_EQ(static_cast<int>(r.source),
                  static_cast<int>(TraceSource::Synthetic));
    }
}

TEST(Resolver, UnknownNameSuggestsNearestSuiteTrace)
{
    const std::string msg = thrownMessage("spec06.mcf_like.9");
    EXPECT_NE(msg.find("spec06.mcf_like"), std::string::npos);
}

TEST(Resolver, EmptySpecThrows)
{
    EXPECT_THROW(resolveTrace(""), std::invalid_argument);
}

TEST(Resolver, FileSpecResolvesAndValidatesEagerly)
{
    const std::string path =
        ::testing::TempDir() + "corpus_resolver_test.hrm";
    auto w = makeCorpusTrace("corpus.stream").make();
    ASSERT_EQ(0u, writeTraceFile(path, *w, 200, "corpus.stream",
                                 "CORPUS"));

    const TraceSpec spec = resolveTrace("file:" + path);
    EXPECT_EQ(static_cast<int>(spec.source),
              static_cast<int>(TraceSource::File));
    EXPECT_EQ(spec.name(), "file:" + path);
    auto replay = spec.make();
    EXPECT_EQ(replay->name(), "corpus.stream");

    // A bad path must fail at resolve time, not mid-sweep.
    EXPECT_THROW(resolveTrace("file:/nonexistent/trace.hrm"),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(Resolver, SuiteSpecsQuickFullAndLists)
{
    EXPECT_EQ(resolveSuite("quick").size(), quickSuite().size());
    EXPECT_EQ(resolveSuite("full").size(), fullSuite().size());

    const auto list =
        resolveSuite("spec06.mcf_like.0,corpus.chase:seed=3");
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0].name(), "spec06.mcf_like.0");
    EXPECT_EQ(list[1].name(), "corpus.chase:seed=3");

    EXPECT_THROW(resolveSuite(""), std::invalid_argument);
    EXPECT_THROW(resolveSuite("fulll"), std::invalid_argument);
}

TEST(Resolver, SuiteRejectsDuplicateNames)
{
    EXPECT_THROW(resolveSuite("spec06.mcf_like.0,spec06.mcf_like.0"),
                 std::invalid_argument);
    // Two spellings of one corpus workload are the same trace.
    EXPECT_THROW(
        resolveSuite("corpus.chase:seed=1:footprint_mb=64,"
                     "corpus.chase:footprint_mb=64:seed=1"),
        std::invalid_argument);
}

TEST(Resolver, BuiltInSuitesHaveUniqueNames)
{
    EXPECT_NO_THROW(validateUniqueTraceNames(fullSuite()));
    EXPECT_NO_THROW(validateUniqueTraceNames(quickSuite()));
}

// ---- Stream identity ---------------------------------------------------

/** Instructions of each trace that streamFingerprint covers. */
constexpr int kPinnedInstrs = 20'000;

/**
 * @p spec's identity and stream in one hash: name, category, footprint,
 * the first kPinnedInstrs instructions (every TraceInstr field the core
 * reads) and the generator's checkpoint bytes after them. The footprint
 * is hashed itself: a sweep reads it only when it wraps, far past the
 * pinned instructions, and the checkpoint does not hold it.
 */
std::uint64_t
streamFingerprint(const TraceSpec &spec)
{
    Fnv64 f;
    f.add(spec.name());
    f.add(spec.category());
    f.add(spec.params.footprintBytes);
    auto w = spec.make();
    for (int i = 0; i < kPinnedInstrs; ++i) {
        const TraceInstr t = w->next();
        f.add(t.pc);
        f.add(static_cast<std::uint64_t>(t.kind));
        f.add(t.vaddr);
        f.add(std::uint64_t{t.branchTaken});
        f.add(std::uint64_t{t.depDistance});
    }
    test::VectorSink sink;
    StateWriter state(sink);
    w->saveState(state);
    state.sealChecksum();
    f.add(std::string(sink.bytes.begin(), sink.bytes.end()));
    return f.value();
}

// ---- corpus.<generator>.<knob> overrides ------------------------------
//
// The configuration spelling of a generator knob: ParamRegistry::apply
// validates it into SystemConfig::corpusKnobs, and SimSession applies
// it to every trace of that generator.

/** @p traces after @p key=@p value is applied the way a run applies it. */
std::vector<TraceSpec>
overridden(const std::vector<std::string> &traces, const std::string &key,
           const std::string &value)
{
    SystemConfig cfg = SystemConfig::baseline(static_cast<int>(traces.size()));
    ParamRegistry::instance().apply(cfg, key, value);
    std::vector<TraceSpec> specs;
    for (const std::string &t : traces)
        specs.push_back(resolveTrace(t));
    return SimSession(cfg, specs, SimBudget{}).traces();
}

std::string
overrideError(const std::string &key, const std::string &value)
{
    try {
        SystemConfig cfg = SystemConfig::baseline(1);
        ParamRegistry::instance().apply(cfg, key, value);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(CorpusOverride, MatchesTheInlineSpelling)
{
    const TraceSpec inline_spec =
        makeCorpusTrace("corpus.chase:alu=16:seed=3");
    const auto traces =
        overridden({"corpus.chase:seed=3"}, "corpus.chase.alu", "16.0");
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].name(), inline_spec.name());
    EXPECT_EQ(streamFingerprint(traces[0]), streamFingerprint(inline_spec));
}

TEST(CorpusOverride, ReplacesAnInlineSettingOfTheSameKnob)
{
    const auto traces = overridden({"corpus.chase:alu=4:seed=3"},
                                   "corpus.chase.alu", "16");
    EXPECT_EQ(traces[0].name(), "corpus.chase:alu=16:seed=3");
}

TEST(CorpusOverride, ReachesOnlyTracesOfItsGenerator)
{
    const auto traces =
        overridden({"spec06.mcf_like.0", "corpus.chase:seed=3",
                    "corpus.stream:seed=3"},
                   "corpus.chase.alu", "16");
    EXPECT_EQ(traces[0].name(), "spec06.mcf_like.0");
    EXPECT_EQ(traces[1].name(), "corpus.chase:alu=16:seed=3");
    EXPECT_EQ(traces[2].name(), "corpus.stream:seed=3");
}

TEST(CorpusOverride, RejectsADeadOverride)
{
    // Suite traces are corpus specs under suite names; an override does
    // not reach them, so with no corpus.chase trace it would be dead.
    try {
        overridden({"spec06.mcf_like.0"}, "corpus.chase.alu", "16");
        FAIL() << "a dead override was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("dead"), std::string::npos)
            << e.what();
    }
}

TEST(CorpusOverride, RejectsUnknownNamesWithASuggestion)
{
    EXPECT_NE(overrideError("corpus.chse.alu", "4")
                  .find("did you mean 'chase'"),
              std::string::npos);
    EXPECT_NE(overrideError("corpus.chase.alux", "4")
                  .find("did you mean 'alu'"),
              std::string::npos);
    EXPECT_NE(overrideError("corpus.chase", "4").find("corpus.<generator>"),
              std::string::npos);
}

TEST(CorpusOverride, RejectsBadValues)
{
    EXPECT_NE(overrideError("corpus.chase.alu", "65").find("out of range"),
              std::string::npos);
    EXPECT_NE(overrideError("corpus.chase.alu", "2.5").find("integer"),
              std::string::npos);
    EXPECT_NE(overrideError("corpus.chase.hit_frac", "x").find("invalid"),
              std::string::npos);
    EXPECT_EQ(overrideError("corpus.chase.hit_frac", "0.25"), "");
}

// ---- Pinned suite streams -------------------------------------------

/** Hash of a suite's trace names, in order. */
std::uint64_t
orderFingerprint(const std::vector<TraceSpec> &suite)
{
    Fnv64 f;
    for (const TraceSpec &t : suite)
        f.add(t.name());
    return f.value();
}

TEST(SuiteStreams, EveryTraceMatchesItsGolden)
{
    ASSERT_EQ(fullSuite().size(), 56u);
    ASSERT_EQ(quickSuite().size(), 10u);

    std::map<std::string, std::uint64_t> actual;
    actual["suite:full"] = orderFingerprint(fullSuite());
    actual["suite:quick"] = orderFingerprint(quickSuite());
    for (const TraceSpec &t : fullSuite())
        actual[t.name()] = streamFingerprint(t);
    for (const char *gen :
         {"chase", "stream", "gather", "mlp", "tlb", "mix"}) {
        const TraceSpec t = makeCorpusTrace(std::string("corpus.") + gen);
        actual[t.name()] = streamFingerprint(t);
    }

    const std::string path = golden::goldenPath("suite_streams.txt");
    if (std::getenv("HERMES_UPDATE_GOLDEN") != nullptr) {
        ASSERT_TRUE(golden::writeGoldens(
            path,
            "# Suite trace identities and streams (name, category, "
            "footprint,\n"
            "# first 20000 instructions, checkpoint bytes), plus the suite "
            "orders.\n"
            "# Regenerate: HERMES_UPDATE_GOLDEN=1 ./test_corpus "
            "--gtest_filter='SuiteStreams.*'\n",
            actual))
            << "cannot write " << path;
        GTEST_LOG_(INFO) << "golden file updated: " << path;
        return;
    }

    const auto golden = golden::loadGoldens(path);
    EXPECT_EQ(golden.size(), actual.size())
        << path << " and the suite list different traces";
    for (const auto &[key, fp] : actual) {
        const auto it = golden.find(key);
        ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
        EXPECT_EQ(it->second, fp)
            << key << ": trace identity or stream changed; if "
            << "intentional, regenerate with HERMES_UPDATE_GOLDEN=1";
    }
}

} // namespace
} // namespace hermes
