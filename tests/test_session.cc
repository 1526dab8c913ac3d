// Checkpoint determinism tests for the SimSession snapshot/restore
// seam and the warmup checkpoint store:
//  1. snapshot -> restore -> measure reproduces the straight-run
//     fingerprint exactly, across predictors, prefetchers and a
//     multi-core mix — including against the pinned golden file, so a
//     restore that silently perturbs state fails the same way a
//     hot-path regression would;
//  2. corrupt, truncated, wrong-version, wrong-magic and
//     wrong-identity checkpoints are rejected (restore returns false)
//     and the session re-simulates to the correct result;
//  3. warmupFingerprint() keys on warmup-affecting state only:
//     measure-only parameters (hermes.issue_latency, simInstrs) leave
//     it unchanged, warmup-affecting ones (predictor, warmup window)
//     change it;
//  4. the WarmupCache round-trips warmed state through disk, unlinks
//     bad entries and evicts past its budget (the spec parser and the
//     checkpoint mutation sweep live in test_content_store.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "golden_util.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/warmup_cache.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"

namespace hermes
{
namespace
{

using golden::goldenBudget;
using golden::loadGoldens;

/** In-memory ByteSink so checkpoint bytes can be inspected/mutated. */
class VectorSink : public ByteSink
{
  public:
    void write(const void *data, std::size_t size) override
    {
        const auto *p = static_cast<const char *>(data);
        bytes.insert(bytes.end(), p, p + size);
    }
    void finish() override {}
    const std::string &path() const override { return path_; }

    std::vector<char> bytes;

  private:
    std::string path_ = "<memory>";
};

/** In-memory ByteSource over a byte vector. */
class VectorSource : public ByteSource
{
  public:
    explicit VectorSource(std::vector<char> bytes)
        : bytes_(std::move(bytes))
    {
    }

    std::size_t read(void *data, std::size_t size) override
    {
        const std::size_t n = std::min(size, bytes_.size() - pos_);
        std::memcpy(data, bytes_.data() + pos_, n);
        pos_ += n;
        return n;
    }
    void rewind() override { pos_ = 0; }
    const std::string &path() const override { return path_; }
    Compression compression() const override { return Compression::None; }
    std::int64_t sizeHint() const override
    {
        return static_cast<std::int64_t>(bytes_.size());
    }

  private:
    std::vector<char> bytes_;
    std::size_t pos_ = 0;
    std::string path_ = "<memory>";
};

struct SessionCase
{
    std::string key;
    SystemConfig config;
    std::vector<TraceSpec> traces;
};

/**
 * >= 2 predictors x >= 2 prefetchers plus a heterogeneous 2-core mix,
 * all on the golden budget so the single-core Hermes case can also be
 * pinned against tests/golden/fingerprints.txt.
 */
std::vector<SessionCase>
sessionCases()
{
    const TraceSpec mcf = findTrace("spec06.mcf_like.0");
    const TraceSpec stream = findTrace("parsec.streamcluster_like.0");

    SystemConfig popet_pythia = SystemConfig::baseline(1);
    popet_pythia.prefetcher = PrefetcherKind::Pythia;
    popet_pythia.predictor = PredictorKind::Popet;
    popet_pythia.hermesIssueEnabled = true;

    SystemConfig popet_streamer = popet_pythia;
    popet_streamer.prefetcher = PrefetcherKind::Streamer;

    SystemConfig hmp_spp = SystemConfig::baseline(1);
    hmp_spp.prefetcher = PrefetcherKind::Spp;
    hmp_spp.predictor = PredictorKind::Hmp;
    hmp_spp.hermesIssueEnabled = true;

    SystemConfig mix_cfg = SystemConfig::baseline(2);
    mix_cfg.prefetcher = PrefetcherKind::Pythia;
    mix_cfg.predictor = PredictorKind::Popet;
    mix_cfg.hermesIssueEnabled = true;

    return {
        {"one.hermes.mcf", popet_pythia, {mcf}},
        {"popet.streamer", popet_streamer, {stream}},
        {"hmp.spp", hmp_spp, {mcf}},
        {"mix2.hermes", mix_cfg, {mcf, stream}},
    };
}

std::uint64_t
straightRunFingerprint(const SessionCase &c)
{
    SimSession s(c.config, c.traces, goldenBudget());
    s.build();
    s.warmup();
    s.measure();
    return statsFingerprint(s.collect());
}

/** Snapshot a freshly warmed session of @p c into a byte vector. */
std::vector<char>
snapshotBytes(const SessionCase &c)
{
    SimSession s(c.config, c.traces, goldenBudget());
    s.build();
    s.warmup();
    VectorSink sink;
    s.snapshot(sink);
    return sink.bytes;
}

TEST(Session, SnapshotRestoreMeasureMatchesStraightRun)
{
    for (const SessionCase &c : sessionCases()) {
        const std::uint64_t straight = straightRunFingerprint(c);
        ASSERT_NE(straight, 0u) << c.key;

        const std::vector<char> bytes = snapshotBytes(c);
        ASSERT_GT(bytes.size(), 20u) << c.key;

        SimSession restored(c.config, c.traces, goldenBudget());
        restored.build();
        ASSERT_TRUE(restored.checkpointable()) << c.key;
        VectorSource src(bytes);
        ASSERT_TRUE(restored.restore(src)) << c.key;
        restored.measure();
        EXPECT_EQ(statsFingerprint(restored.collect()), straight)
            << c.key << ": restore-from-checkpoint diverged from a "
            << "straight run";
    }
}

TEST(Session, SimulateAndSessionAgreeWithGoldenFile)
{
    // simulate() is a straight SimSession run; it, a hand-driven
    // session and a restored session must all reproduce the pinned
    // golden fingerprint for the case test_determinism.cc also runs.
    const auto golden = loadGoldens();
    ASSERT_FALSE(golden.empty());
    const auto it = golden.find("one.hermes.mcf");
    ASSERT_NE(it, golden.end());

    const SessionCase c = sessionCases()[0];
    ASSERT_EQ(c.key, "one.hermes.mcf");

    EXPECT_EQ(straightRunFingerprint(c), it->second);
    EXPECT_EQ(statsFingerprint(simulate(c.config, c.traces, goldenBudget())),
              it->second);

    SimSession restored(c.config, c.traces, goldenBudget());
    restored.build();
    VectorSource src(snapshotBytes(c));
    ASSERT_TRUE(restored.restore(src));
    restored.measure();
    EXPECT_EQ(statsFingerprint(restored.collect()), it->second);
}

TEST(Session, PhaseOrderEnforced)
{
    const SessionCase c = sessionCases()[0];
    SimSession s(c.config, c.traces, goldenBudget());
    EXPECT_THROW(s.warmup(), std::logic_error);
    EXPECT_THROW(s.measure(), std::logic_error);
    s.build();
    EXPECT_THROW(s.build(), std::logic_error);
    EXPECT_THROW(s.measure(), std::logic_error);
    VectorSink sink;
    EXPECT_THROW(s.snapshot(sink), std::logic_error);
    s.warmup();
    EXPECT_THROW(s.warmup(), std::logic_error);
    s.measure();
    EXPECT_THROW(s.measure(), std::logic_error);

    EXPECT_THROW(SimSession(c.config, {}, goldenBudget()),
                 std::invalid_argument);
}

/** Restore must fail cleanly and the fallback warmup must be exact. */
void
expectRejectedThenResimulates(const SessionCase &c,
                              std::vector<char> bytes,
                              const char *what)
{
    const std::uint64_t straight = straightRunFingerprint(c);
    SimSession s(c.config, c.traces, goldenBudget());
    s.build();
    VectorSource src(std::move(bytes));
    EXPECT_FALSE(s.restore(src)) << what << " accepted";
    // The failed restore left the session built; the normal path must
    // still produce the exact straight-run result.
    s.warmup();
    s.measure();
    EXPECT_EQ(statsFingerprint(s.collect()), straight)
        << what << ": re-simulation after rejected restore diverged";
}

TEST(Session, BadCheckpointsRejectedAndResimulated)
{
    const SessionCase c = sessionCases()[0];
    const std::vector<char> good = snapshotBytes(c);
    ASSERT_GT(good.size(), 32u);

    {
        // Flipping a byte in the component payload trips the checksum.
        std::vector<char> corrupt = good;
        corrupt[good.size() / 2] ^= 0x5a;
        expectRejectedThenResimulates(c, corrupt, "corrupt payload");
    }
    {
        std::vector<char> truncated(good.begin(),
                                    good.begin() + good.size() / 2);
        expectRejectedThenResimulates(c, truncated, "truncated stream");
    }
    {
        std::vector<char> trailing = good;
        trailing.push_back('x');
        expectRejectedThenResimulates(c, trailing, "trailing garbage");
    }
    {
        // Byte 0 of the magic ("HRMCKPT1" leads every stream).
        std::vector<char> magic = good;
        magic[0] ^= 0x01;
        expectRejectedThenResimulates(c, magic, "bad magic");
    }
    {
        // The u32 format version immediately follows the 8-byte magic.
        std::vector<char> version = good;
        version[8] ^= 0x01;
        expectRejectedThenResimulates(c, version, "version mismatch");
    }
    {
        EXPECT_TRUE(std::string(SimSession::kCheckpointMagic) ==
                    std::string(good.data(), 8));
    }
}

TEST(Session, WrongIdentityCheckpointRejected)
{
    // A checkpoint from a different warmup identity (hmp+spp) must not
    // restore into a popet+pythia session.
    const auto cases = sessionCases();
    const SessionCase &target = cases[0];
    const SessionCase &other = cases[2];

    SimSession s(target.config, target.traces, goldenBudget());
    s.build();
    VectorSource src(snapshotBytes(other));
    EXPECT_FALSE(s.restore(src));
    s.warmup();
    s.measure();
    EXPECT_EQ(statsFingerprint(s.collect()),
              straightRunFingerprint(target));
}

TEST(Session, WarmupFingerprintTracksWarmupAffectingStateOnly)
{
    const SessionCase base = sessionCases()[0];
    auto fp = [&base](SystemConfig cfg, SimBudget b) {
        SimSession s(std::move(cfg), base.traces, b);
        return s.warmupFingerprint();
    };
    const std::uint64_t ref = fp(base.config, goldenBudget());

    // Measure-only knobs: same identity, so checkpoints are shared
    // across these sweep points.
    SimBudget longer_measure = goldenBudget();
    longer_measure.simInstrs *= 2;
    EXPECT_EQ(fp(base.config, longer_measure), ref);

    // Warmup-affecting knobs: distinct identities.
    SystemConfig other_pred = base.config;
    other_pred.predictor = PredictorKind::Hmp;
    EXPECT_NE(fp(other_pred, goldenBudget()), ref);

    SystemConfig other_pf = base.config;
    other_pf.prefetcher = PrefetcherKind::Streamer;
    EXPECT_NE(fp(other_pf, goldenBudget()), ref);

    SimBudget longer_warmup = goldenBudget();
    longer_warmup.warmupInstrs *= 2;
    EXPECT_NE(fp(base.config, longer_warmup), ref);

    // hermes.issue_latency *does* matter when requests issue during
    // warmup (the default): the warmed state depends on it...
    SystemConfig warm_issue_lat = base.config;
    warm_issue_lat.hermesIssueLatency = 18;
    ASSERT_TRUE(base.config.hermesWarmupIssue);
    EXPECT_NE(fp(warm_issue_lat, goldenBudget()), ref);

    // ...but gating warmup issue makes it measure-only: this is the
    // identity-sharing a post-warmup latency sweep relies on.
    SystemConfig gated = base.config;
    gated.hermesWarmupIssue = false;
    SystemConfig gated_lat = gated;
    gated_lat.hermesIssueLatency = 18;
    EXPECT_EQ(fp(gated_lat, goldenBudget()), fp(gated, goldenBudget()));

    // A different trace is a different warmed machine.
    SimSession other_trace(
        base.config, {findTrace("parsec.streamcluster_like.0")},
        goldenBudget());
    EXPECT_NE(other_trace.warmupFingerprint(), ref);
}

std::string
tempDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "hermes_warmup_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0)
        ADD_FAILURE() << "cannot clear " << dir;
    return dir;
}

TEST(WarmupCacheTest, RoundTripSharesOneWarmup)
{
    SessionCase c = sessionCases()[0];
    // Gate Hermes issue out of warmup so hermes.issue_latency becomes
    // measure-only and the latency sweep below shares one checkpoint.
    c.config.hermesWarmupIssue = false;
    WarmupCache cache({tempDir("roundtrip")});

    SimSession cold(c.config, c.traces, goldenBudget());
    const RunStats first = runSession(cold, &cache);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);

    SimSession warm(c.config, c.traces, goldenBudget());
    const RunStats second = runSession(warm, &cache);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(statsFingerprint(second), statsFingerprint(first));

    // A measure-only variation shares the same checkpoint...
    SessionCase latency = c;
    latency.config.hermesIssueLatency = 18;
    SimSession shared(latency.config, latency.traces, goldenBudget());
    runSession(shared, &cache);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.entryCount(), 1u);

    // ...and its stats equal an uncached run of the same point.
    SimSession uncached(latency.config, latency.traces, goldenBudget());
    EXPECT_EQ(statsFingerprint(shared.collect()),
              statsFingerprint(runSession(uncached, nullptr)));
}

TEST(WarmupCacheTest, CorruptEntryUnlinkedAndRewarmed)
{
    const SessionCase c = sessionCases()[0];
    const std::string dir = tempDir("corrupt");
    WarmupCache cache({dir});

    SimSession cold(c.config, c.traces, goldenBudget());
    const std::uint64_t straight =
        statsFingerprint(runSession(cold, &cache));
    const std::string entry =
        dir + "/" + WarmupCache::entryName(cold.warmupFingerprint());
    {
        std::ofstream out(entry, std::ios::binary | std::ios::trunc);
        out << "not a checkpoint";
    }

    SimSession again(c.config, c.traces, goldenBudget());
    EXPECT_EQ(statsFingerprint(runSession(again, &cache)), straight);
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().stores, 2u); // rewritten cleanly
    EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(WarmupCacheTest, EvictsPastEntryBudget)
{
    const auto cases = sessionCases();
    StoreConfig cfg{tempDir("evict")};
    cfg.maxEntries = 1;
    WarmupCache cache(std::move(cfg));

    SimSession a(cases[0].config, cases[0].traces, goldenBudget());
    runSession(a, &cache);
    SimSession b(cases[2].config, cases[2].traces, goldenBudget());
    runSession(b, &cache);
    EXPECT_EQ(cache.stats().stores, 2u);
    EXPECT_EQ(cache.stats().evicted, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);
}

} // namespace
} // namespace hermes
