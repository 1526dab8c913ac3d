// Checkpoint determinism tests for the SimSession snapshot/restore
// seam and the warmup checkpoint store:
//  1. snapshot -> restore -> measure reproduces the straight-run
//     fingerprint exactly, across predictors, prefetchers and a
//     multi-core mix — including against the pinned golden file, so a
//     restore that silently perturbs state fails the same way a
//     hot-path regression would;
//  2. corrupt, truncated, wrong-version, wrong-magic and
//     wrong-identity checkpoints are rejected (restore returns false)
//     and the session re-simulates to the correct result, through
//     sources that return the whole stream or 1 or 7 bytes per read,
//     and a seeded set of raw-stream mutants (truncations at page
//     edges, flips, insertions) never escapes an exception; a rebuild
//     that fails after a rejected restore leaves the session created,
//     never half-loaded;
//  3. warmupFingerprint() keys on warmup-affecting state only:
//     measure-only parameters (hermes.issue_latency, simInstrs) leave
//     it unchanged, warmup-affecting ones (predictor, warmup window)
//     change it;
//  4. the WarmupCache round-trips warmed state through disk, unlinks
//     bad entries and evicts past its budget (the spec parser and the
//     checkpoint mutation sweep live in test_content_store.cc);
//  5. file: traces checkpoint too (a cursor past a loop wrap, a rotated
//     clone, raw/gzip/xz HRMTRACE and gzip ChampSim, single-member gzip
//     as older builds wrote it); a restore seeks, so it never decodes a
//     damaged member before the cursor; a file whose size changed is a
//     miss; the raw-stream mutants run over a gzip file checkpoint too;
//     and the stream format itself is pinned.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "common/fnv.hh"
#include "common/state_io.hh"
#include "golden_util.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/stat_registry.hh"
#include "sim/warmup_cache.hh"
#include "test_helpers.hh"
#include "trace/resolve.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"
#include "trace/trace_io.hh"

#if HERMES_HAVE_ZLIB
#include <zlib.h>
#endif

namespace hermes
{
namespace
{

using golden::goldenBudget;
using golden::loadGoldens;
using test::VectorSink;
using test::VectorSource;

/** Read caps every restore is tried with: whole buffer, 1 and 7 bytes. */
constexpr std::size_t kMaxReads[] = {0, 1, 7};

std::string
readsName(std::size_t max_read)
{
    return max_read == 0 ? std::string("whole-buffer reads")
                         : "reads of at most " + std::to_string(max_read) +
                               " bytes";
}

struct SessionCase
{
    std::string key;
    SystemConfig config;
    std::vector<TraceSpec> traces;
    SimBudget budget = goldenBudget();
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

    std::vector<SessionCase> cases = {
        {"one.hermes.mcf", popet_pythia, {mcf}},
        {"popet.streamer", popet_streamer, {stream}},
        {"hmp.spp", hmp_spp, {mcf}},
        {"mix2.hermes", mix_cfg, {mcf, stream}},
    };
    // On the server trace Bingo's and SMS's region tables are full at
    // the seam, so their restores rebuild a table that evicts next;
    // MLOP's zone map was cleared at a round's end and restores partly
    // filled.
    const TraceSpec db = findTrace("cvp.server_db_like.0");
    for (const char *pf : {PrefetcherKind::Bingo, PrefetcherKind::Sms,
                           PrefetcherKind::Mlop}) {
        SystemConfig cfg = popet_pythia;
        cfg.prefetcher = pf;
        cases.push_back({std::string("popet.") + pf, cfg, {db}});
    }
    return cases;
}

std::uint64_t
straightRunFingerprint(const SessionCase &c)
{
    SimSession s(c.config, c.traces, c.budget);
    s.build();
    s.warmup();
    s.measure();
    return statsFingerprint(s.collect());
}

/** Snapshot a freshly warmed session of @p c into a byte vector. */
std::vector<char>
snapshotBytes(const SessionCase &c)
{
    SimSession s(c.config, c.traces, c.budget);
    s.build();
    s.warmup();
    VectorSink sink;
    s.snapshot(sink);
    return sink.bytes;
}

/**
 * Restore @p bytes into a fresh session of @p c through every read cap
 * and require each to measure to @p want.
 */
void
expectRestoresTo(const SessionCase &c, const std::vector<char> &bytes,
                 std::uint64_t want)
{
    for (const std::size_t max_read : kMaxReads) {
        SCOPED_TRACE(c.key + ", " + readsName(max_read));
        SimSession restored(c.config, c.traces, c.budget);
        restored.build();
        ASSERT_TRUE(restored.checkpointable());
        VectorSource src(bytes, max_read);
        ASSERT_TRUE(restored.restore(src));
        restored.measure();
        EXPECT_EQ(statsFingerprint(restored.collect()), want)
            << "restore-from-checkpoint diverged from a straight run";
    }
}

TEST(Session, SnapshotRestoreMeasureMatchesStraightRun)
{
    for (const SessionCase &c : sessionCases()) {
        const std::uint64_t straight = straightRunFingerprint(c);
        ASSERT_NE(straight, 0u) << c.key;

        const std::vector<char> bytes = snapshotBytes(c);
        ASSERT_GT(bytes.size(), 20u) << c.key;
        expectRestoresTo(c, bytes, straight);
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

TEST(Session, WindowIsTheDifferenceOfTwoSnapshots)
{
    // warmup() resets no counter: it stores a seam snapshot, and the
    // measured window is the difference of two snapshots.
    for (const SessionCase &c : sessionCases()) {
        if (c.key != "one.hermes.mcf" && c.key != "mix2.hermes")
            continue;
        SCOPED_TRACE(c.key);
        SimSession s(c.config, c.traces, c.budget);
        s.build();
        s.warmup();
        System &sys = s.system();
        for (int i = 0; i < c.config.numCores; ++i) {
            EXPECT_GE(sys.coreAt(i).instrsRetired(), c.budget.warmupInstrs);
            EXPECT_GT(sys.coreAt(i).stats().cycles, 0u);
            EXPECT_GT(sys.l1At(i).stats().loadLookups, 0u);
        }
        const RunStats seam = sys.snapshot();
        EXPECT_EQ(seam.simCycles, sys.now());
        s.measure();
        EXPECT_EQ(statsFingerprint(windowStats(sys.snapshot(), seam)),
                  statsFingerprint(s.collect()));
    }
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

/**
 * Restore must fail cleanly through every read cap, and the fallback
 * warmup must reproduce @p straight exactly.
 */
void
expectRejectedThenResimulates(const SessionCase &c, std::uint64_t straight,
                              const std::vector<char> &bytes,
                              const char *what)
{
    for (const std::size_t max_read : kMaxReads) {
        SCOPED_TRACE(std::string(what) + ", " + readsName(max_read));
        SimSession s(c.config, c.traces, c.budget);
        s.build();
        VectorSource src(bytes, max_read);
        EXPECT_FALSE(s.restore(src)) << "accepted";
        // The failed restore left the session built; the normal path
        // must still produce the exact straight-run result.
        s.warmup();
        s.measure();
        EXPECT_EQ(statsFingerprint(s.collect()), straight)
            << "re-simulation after rejected restore diverged";
    }
}

TEST(Session, BadCheckpointsRejectedAndResimulated)
{
    const SessionCase c = sessionCases()[0];
    const std::uint64_t straight = straightRunFingerprint(c);
    const std::vector<char> good = snapshotBytes(c);
    ASSERT_GT(good.size(), 32u);

    {
        // Flipping a byte in the component payload trips the checksum.
        std::vector<char> corrupt = good;
        corrupt[good.size() / 2] ^= 0x5a;
        expectRejectedThenResimulates(c, straight, corrupt,
                                      "corrupt payload");
    }
    {
        std::vector<char> truncated(good.begin(),
                                    good.begin() + good.size() / 2);
        expectRejectedThenResimulates(c, straight, truncated,
                                      "truncated stream");
    }
    {
        std::vector<char> trailing = good;
        trailing.push_back('x');
        expectRejectedThenResimulates(c, straight, trailing,
                                      "trailing garbage");
    }
    {
        // Byte 0 of the magic ("HRMCKPT1" leads every stream).
        std::vector<char> magic = good;
        magic[0] ^= 0x01;
        expectRejectedThenResimulates(c, straight, magic, "bad magic");
    }
    {
        // The u32 format version immediately follows the 8-byte magic.
        std::vector<char> version = good;
        version[8] ^= 0x01;
        expectRejectedThenResimulates(c, straight, version,
                                      "version mismatch");
    }
    {
        EXPECT_TRUE(std::string(SimSession::kCheckpointMagic) ==
                    std::string(good.data(), 8));
    }
}

/**
 * Restore a fixed-seed set of raw-stream mutants of @p c's checkpoint
 * through every read cap: each must be rejected without an exception
 * escaping, and the intact stream must then restore and measure to
 * @p want.
 */
void
expectMutantsRejected(const SessionCase &c, std::uint64_t want)
{
    const std::vector<char> good = snapshotBytes(c);
    constexpr std::size_t kPage = 4096;
    ASSERT_GT(good.size(), 8 * kPage);

    // Fixed seed, fixed budget. Truncations land on both sides of page
    // edges (4096 * k - 1, 4096 * k, 4096 * k + 1): the first page, one
    // staging buffer, the last whole page and three sampled ones.
    std::mt19937_64 rng(0xc4ec5eed);
    const auto at = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    std::vector<std::pair<std::string, std::vector<char>>> mutants;
    const std::size_t pages = good.size() / kPage;
    std::vector<std::size_t> ks = {1, kStateStagingBytes / kPage, pages};
    for (int i = 0; i < 3; ++i)
        ks.push_back(1 + at(pages));
    for (const std::size_t k : ks) {
        for (const std::size_t len : {k * kPage - 1, k * kPage,
                                      k * kPage + 1}) {
            if (len < good.size())
                mutants.emplace_back(
                    "truncated to " + std::to_string(len),
                    std::vector<char>(good.begin(), good.begin() + len));
        }
    }
    for (int i = 0; i < 8; ++i) {
        std::vector<char> m = good;
        const std::size_t pos = at(m.size());
        m[pos] ^= static_cast<char>(1u << at(8));
        mutants.emplace_back("bit flip at " + std::to_string(pos), m);
    }
    {
        std::vector<char> m = good;
        const std::size_t pos = at(m.size() + 1);
        m.insert(m.begin() + pos, static_cast<char>(rng()));
        mutants.emplace_back("byte inserted at " + std::to_string(pos), m);
    }
    {
        std::vector<char> m = good;
        m.push_back('\0');
        mutants.emplace_back("one trailing byte", m);
    }
    {
        std::vector<char> m = good;
        m[m.size() - 1 - at(8)] ^= static_cast<char>(1u << at(8));
        mutants.emplace_back("flipped checksum word", m);
    }

    for (const std::size_t max_read : kMaxReads) {
        SCOPED_TRACE(readsName(max_read));
        // One session takes every mutant in turn: each rejection
        // rebuilds it, so it must stay restorable throughout.
        SimSession s(c.config, c.traces, c.budget);
        s.build();
        for (const auto &[what, bytes] : mutants) {
            VectorSource src(bytes, max_read);
            bool restored = true;
            EXPECT_NO_THROW(restored = s.restore(src)) << what;
            ASSERT_FALSE(restored) << what << " accepted";
        }
        VectorSource src(good, max_read);
        ASSERT_TRUE(s.restore(src));
        s.measure();
        EXPECT_EQ(statsFingerprint(s.collect()), want);
    }
}

TEST(Session, RawStreamMutantsRejectedAtEveryReadSize)
{
    const auto golden = loadGoldens();
    const auto it = golden.find("one.hermes.mcf");
    ASSERT_NE(it, golden.end());
    const SessionCase c = sessionCases()[0];
    ASSERT_EQ(c.key, "one.hermes.mcf");
    expectMutantsRejected(c, it->second);
}

TEST(Session, CheckpointFormatIsPinned)
{
    // one.hermes.mcf's warmed state at the golden budget, byte for
    // byte. The hash covers the header's warmup fingerprint (bytes
    // 13-20) and the trailing checksum, so a change to the rendered
    // configuration moves it without changing the stream format. Any
    // other change is a format change: bump
    // SimSession::kCheckpointVersion with it, so stores filled by
    // older builds miss instead of misrestoring.
    const std::vector<char> bytes = snapshotBytes(sessionCases()[0]);
    EXPECT_EQ(bytes.size(), 1'249'301u);
    Xxh64 h;
    h.update(bytes.data(), bytes.size());
    EXPECT_EQ(h.value(), 0x24158b48afb7afb4ull);
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

/**
 * Capture @p records of spec06.mcf_like.0 at @p path (format and
 * compression follow its name) and resolve it as a file: trace.
 */
TraceSpec
writeMcfTrace(const std::string &path, std::uint64_t records)
{
    const TraceSpec mcf = findTrace("spec06.mcf_like.0");
    auto source = mcf.make();
    writeTraceFile(path, *source, records, mcf.name(), mcf.category());
    return resolveTrace("file:" + path);
}

/** A trace file shorter than the warmup window: its cursor wraps. */
constexpr std::uint64_t kShortTraceRecords = 3'001;

std::string
traceFilePath(const std::string &name, const std::string &ext = ".hrm.gz")
{
    return ::testing::TempDir() + "hermes_session_" + name + ext;
}

/**
 * A warmup that leaves the cursor past the first 256 KiB gzip member
 * even at 24 bytes a record, and a short measure window.
 */
constexpr SimBudget kLongWarmup{15'000, 5'000};
/** Records for kLongWarmup plus the core's fetch-ahead: no wrap. */
constexpr std::uint64_t kLongTraceRecords = 15'000 + 5'000 + 4'096;

/** one.hermes.mcf's configuration over @p trace at kLongWarmup. */
SessionCase
longWarmupFileCase(const std::string &key, TraceSpec trace)
{
    SessionCase c = sessionCases()[0];
    c.key = key;
    c.traces = {std::move(trace)};
    c.budget = kLongWarmup;
    return c;
}

TEST(Session, FileTraceCheckpointRestoresPastLoopWrap)
{
    ASSERT_GT(goldenBudget().warmupInstrs, kShortTraceRecords);
    const std::string path = traceFilePath("wrap");
    SessionCase c = sessionCases()[0];
    c.key = "file.one";
    c.traces = {writeMcfTrace(path, kShortTraceRecords)};

    expectRestoresTo(c, snapshotBytes(c), straightRunFingerprint(c));
    std::remove(path.c_str());
}

TEST(Session, FileTraceCheckpointRestoresRotatedClone)
{
    const std::string path = traceFilePath("clone");
    SessionCase c = sessionCases()[3]; // Pythia + POPET + Hermes-O, 2 cores
    ASSERT_EQ(c.config.numCores, 2);
    c.key = "file.two";
    // One file on two cores: core 1 replays a rotated clone.
    c.traces = {writeMcfTrace(path, kShortTraceRecords)};

    const std::uint64_t straight = straightRunFingerprint(c);
    expectRestoresTo(c, snapshotBytes(c), straight);

    // The on-disk store path the sweep takes: warm once, then restore.
    WarmupCache cache({tempDir("file_clone")});
    SimSession cold(c.config, c.traces, goldenBudget());
    EXPECT_EQ(statsFingerprint(runSession(cold, &cache)), straight);
    SimSession warm(c.config, c.traces, goldenBudget());
    EXPECT_EQ(statsFingerprint(runSession(warm, &cache)), straight);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().rejected, 0u);
    std::remove(path.c_str());
}

TEST(Session, FileTraceRestoresInEveryEncoding)
{
    // A restore seeks the trace reader instead of replaying the warmup:
    // a raw file exactly, gzip from the member holding the cursor, xz
    // from the first byte; ChampSim also restores its expansion state.
    for (const char *ext :
         {".hrm", ".hrm.gz", ".hrm.xz", ".champsimtrace.gz"}) {
        const std::string path = traceFilePath("encoding", ext);
        if (!compressionSupported(compressionForPath(path)))
            continue;
        const SessionCase c = longWarmupFileCase(
            std::string("file") + ext, writeMcfTrace(path, kLongTraceRecords));
        expectRestoresTo(c, snapshotBytes(c), straightRunFingerprint(c));
        std::remove(path.c_str());
    }
}

TEST(Session, SingleMemberGzipTraceStillRestores)
{
#if HERMES_HAVE_ZLIB
    // Builds before member cutting wrote every .gz trace as one gzip
    // member. Such a file has no restart point past its first byte, so
    // its restore inflates from the start and still lands exactly.
    const std::string raw_path = traceFilePath("legacy", ".hrm");
    const std::string path = traceFilePath("legacy", ".hrm.gz");
    writeMcfTrace(raw_path, kLongTraceRecords);
    std::string raw;
    {
        std::ifstream in(raw_path, std::ios::binary);
        raw.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_GT(raw.size(), 2 * kGzipMemberBytes);
    z_stream z{};
    ASSERT_EQ(deflateInit2(&z, Z_DEFAULT_COMPRESSION, Z_DEFLATED, 15 + 16,
                           8, Z_DEFAULT_STRATEGY),
              Z_OK);
    std::string gz(deflateBound(&z, raw.size()), '\0');
    z.next_in = reinterpret_cast<Bytef *>(raw.data());
    z.avail_in = static_cast<uInt>(raw.size());
    z.next_out = reinterpret_cast<Bytef *>(gz.data());
    z.avail_out = static_cast<uInt>(gz.size());
    ASSERT_EQ(deflate(&z, Z_FINISH), Z_STREAM_END);
    gz.resize(z.total_out);
    deflateEnd(&z);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(gz.data(), static_cast<std::streamsize>(gz.size()));
    }
    {
        auto source = openByteSource(path);
        std::vector<char> buf(raw.size());
        std::size_t got = 0;
        while (std::size_t n = source->read(buf.data() + got,
                                            buf.size() - got))
            got += n;
        ASSERT_EQ(got, raw.size());
        EXPECT_EQ(source->restartPoint(got).fileOffset, 0u);
    }

    const SessionCase c =
        longWarmupFileCase("file.legacy_gzip", resolveTrace("file:" + path));
    expectRestoresTo(c, snapshotBytes(c), straightRunFingerprint(c));
    std::remove(raw_path.c_str());
    std::remove(path.c_str());
#else
    GTEST_SKIP() << "zlib not compiled in";
#endif
}

TEST(Session, FileRestoreDoesNotDecodeTheWarmupPrefix)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "zlib not compiled in";
    // The cursor ends the warmup in the third member; member 1 is then
    // damaged. A run that decodes the file from the start fails, and
    // a restore, which seeks past it, must not notice.
    const std::string path = traceFilePath("prefix");
    SessionCase c = longWarmupFileCase(
        "file.prefix", writeMcfTrace(path, 25'000 + 5'000 + 4'096));
    c.budget.warmupInstrs = 25'000;
    const std::uint64_t straight = straightRunFingerprint(c);
    const std::vector<char> bytes = snapshotBytes(c);

    RestartPoint second, third;
    {
        auto source = openByteSource(path);
        std::vector<char> buf(kGzipMemberBytes);
        std::uint64_t decoded = 0;
        while (decoded <= 2 * kGzipMemberBytes) {
            const std::size_t n = source->read(buf.data(), buf.size());
            ASSERT_GT(n, 0u);
            decoded += n;
        }
        second = source->restartPoint(kGzipMemberBytes);
        third = source->restartPoint(2 * kGzipMemberBytes);
    }
    ASSERT_EQ(second.streamOffset, kGzipMemberBytes);
    ASSERT_EQ(third.streamOffset, 2 * kGzipMemberBytes);
    ASSERT_LT(second.fileOffset, third.fileOffset);
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        const auto at = static_cast<std::streamoff>(
            (second.fileOffset + third.fileOffset) / 2);
        char byte = 0;
        f.seekg(at);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0xFF);
        f.seekp(at);
        f.write(&byte, 1);
    }
    EXPECT_THROW(straightRunFingerprint(c), std::runtime_error);
    expectRestoresTo(c, bytes, straight);
    std::remove(path.c_str());
}

TEST(Session, FileCheckpointMutantsRejectedAtEveryReadSize)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "zlib not compiled in";
    // The raw-stream mutants again, over a checkpoint whose WFIL
    // section holds a gzip restart point past the first member.
    const std::string path = traceFilePath("mutants");
    const SessionCase c = longWarmupFileCase(
        "file.mutants", writeMcfTrace(path, kLongTraceRecords));
    expectMutantsRejected(c, straightRunFingerprint(c));
    std::remove(path.c_str());
}

TEST(Session, FileCheckpointOfResizedTraceRejected)
{
    // Bytes appended after the last record change nothing the replay
    // reads, but a trace file whose size changed is not the file the
    // checkpoint was taken on: a clean miss that re-warms.
    const std::string path = traceFilePath("resized", ".hrm");
    const SessionCase c = longWarmupFileCase(
        "file.resized", writeMcfTrace(path, kLongTraceRecords));
    const std::uint64_t straight = straightRunFingerprint(c);
    const std::vector<char> bytes = snapshotBytes(c);
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("tail", 4);
    }
    expectRejectedThenResimulates(c, straight, bytes, "resized trace");
    std::remove(path.c_str());
}

/**
 * The one.hermes.mcf configuration over a file: trace at @p path, and
 * a checkpoint of it whose payload is corrupt, so a restore half-loads
 * the machine before the defect shows.
 */
SessionCase
fileCaseWithCorruptCheckpoint(const std::string &path,
                              std::vector<char> &corrupt)
{
    SessionCase c = sessionCases()[0];
    c.key = "file.corrupt";
    c.traces = {writeMcfTrace(path, kShortTraceRecords)};
    corrupt = snapshotBytes(c);
    corrupt[corrupt.size() / 2] ^= 0x5a;
    return c;
}

TEST(Session, FailedRebuildAfterRejectedRestoreLeavesSessionCreated)
{
    const std::string path = traceFilePath("vanishing");
    std::vector<char> corrupt;
    const SessionCase c = fileCaseWithCorruptCheckpoint(path, corrupt);
    const std::uint64_t straight = straightRunFingerprint(c);

    SimSession s(c.config, c.traces, goldenBudget());
    s.build();
    ASSERT_EQ(std::remove(path.c_str()), 0);
    // The defect shows only after loadState has written part of the
    // machine; the rebuild then cannot reopen the trace.
    VectorSource src(corrupt);
    EXPECT_THROW(s.restore(src), std::runtime_error);
    // The half-loaded machine is gone and nothing may run.
    EXPECT_THROW(s.warmup(), std::logic_error);
    EXPECT_THROW(s.system(), std::logic_error);

    // With the trace back, the same session builds and runs exactly.
    writeMcfTrace(path, kShortTraceRecords);
    s.build();
    s.warmup();
    s.measure();
    EXPECT_EQ(statsFingerprint(s.collect()), straight);
    std::remove(path.c_str());
}

/**
 * True once some descriptor of this process is open on @p file. It
 * looks through /proc/self/fd by path, never touching another thread's
 * descriptors, so the thread sanitizer sees no fd race.
 */
bool
waitUntilOpen(const struct stat &file)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        for (int fd = 0; fd < 1024; ++fd) {
            const std::string link = "/proc/self/fd/" + std::to_string(fd);
            struct stat st = {};
            if (::stat(link.c_str(), &st) == 0 &&
                st.st_dev == file.st_dev && st.st_ino == file.st_ino)
                return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

TEST(WarmupCacheTest, RunSessionThrowsWhenRebuildFailsAfterRejectedEntry)
{
    struct stat proc = {};
    if (::stat("/proc/self/fd", &proc) != 0)
        GTEST_SKIP() << "needs /proc/self/fd to see the trace opened";
    const std::string path = traceFilePath("vanishing_store");
    std::vector<char> corrupt;
    const SessionCase c = fileCaseWithCorruptCheckpoint(path, corrupt);
    const std::string dir = tempDir("vanishing_store");
    WarmupCache cache({dir});
    const std::uint64_t fp =
        SimSession(c.config, c.traces, goldenBudget()).warmupFingerprint();
    {
        std::ofstream out(dir + "/" + WarmupCache::entryName(fp),
                          std::ios::binary | std::ios::trunc);
        out.write(corrupt.data(),
                  static_cast<std::streamsize>(corrupt.size()));
    }
    struct stat trace = {};
    ASSERT_EQ(::stat(path.c_str(), &trace), 0);

    // Holding the identity's lock stops runSession between build() and
    // the restore; the trace is removed once build() has opened it.
    std::unique_lock<std::mutex> held = cache.lockFingerprint(fp);
    bool returned = false;
    bool logicError = false;
    std::thread worker([&] {
        SimSession s(c.config, c.traces, goldenBudget());
        try {
            runSession(s, &cache);
            returned = true;
        } catch (const std::logic_error &) {
            logicError = true;
        } catch (const std::exception &) {
        }
    });
    EXPECT_TRUE(waitUntilOpen(trace));
    EXPECT_EQ(std::remove(path.c_str()), 0);
    held.unlock();
    worker.join();

    // The entry is rejected and the rebuild fails, so no stats come
    // back: the session is left created and warmup() throws.
    EXPECT_FALSE(returned);
    EXPECT_TRUE(logicError);
    EXPECT_EQ(cache.stats().rejected, 1u);
}

} // namespace
} // namespace hermes
