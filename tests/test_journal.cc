// Tests for the journaled sweep store and the shard/resume/merge
// orchestration layer: byte-identical shard unions, thread-count
// invariance of canonical journals, resume after a simulated mid-sweep
// kill, crash-truncated tails, corruption rejection and scenario-space
// validation.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/report.hh"
#include "sim/stat_registry.hh"
#include "sweep/journal.hh"
#include "sweep/sweep.hh"

namespace hermes
{
namespace
{

SimBudget
tinyBudget()
{
    SimBudget b;
    b.warmupInstrs = 1'000;
    b.simInstrs = 4'000;
    return b;
}

/** A (2 configs x 3 traces) grid, small enough for unit tests. */
std::vector<sweep::GridPoint>
smallGrid()
{
    const SimBudget b = tinyBudget();
    SystemConfig nopf = SystemConfig::baseline(1);
    SystemConfig pythia = nopf;
    pythia.prefetcher = PrefetcherKind::Pythia;

    const auto traces = quickSuite();
    std::vector<sweep::GridPoint> grid;
    for (int c = 0; c < 2; ++c) {
        const SystemConfig &cfg = c == 0 ? nopf : pythia;
        for (int t = 0; t < 3; ++t)
            grid.push_back({"cfg" + std::to_string(c) + "." +
                                traces[t].name(),
                            cfg,
                            {traces[t]},
                            b});
    }
    return grid;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "hermes_journal_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
}

TEST(Journal, CanonicalFormIsThreadCountInvariant)
{
    // Run the same grid on 1 and 8 workers: appends land in completion
    // order, but the canonical journals must agree byte for byte once
    // the host-perf fields ("wall", "host"), the only values a
    // simulation does not determine, are zeroed.
    const auto grid = smallGrid();
    const auto canonical = [&grid](int threads) {
        const std::string path =
            tempPath("threads" + std::to_string(threads) + ".jsonl");
        std::remove(path.c_str());
        {
            sweep::JournalWriter w(path);
            sweep::OrchestrateOptions oopts;
            oopts.journal = &w;
            sweep::SweepOptions eopts;
            eopts.threads = threads;
            EXPECT_TRUE(sweep::runJournaled(eopts, grid, oopts).complete());
        }
        auto segments = sweep::mergeSegments({sweep::readJournal(path)});
        std::remove(path.c_str());
        for (sweep::JournalSegment &seg : segments) {
            for (sweep::JournalRecord &rec : seg.records) {
                rec.result.wallSeconds = 0;
                rec.result.stats.hostPerf = HostPerf{};
            }
        }
        return sweep::journalText(segments);
    };
    const std::string one = canonical(1);
    EXPECT_NE(one.find("\"wall\":0"), std::string::npos);
    EXPECT_EQ(one, canonical(8));
}

TEST(ShardSpec, ParseValid)
{
    const sweep::ShardSpec s = sweep::parseShardSpec("2/4");
    EXPECT_EQ(s.index, 2);
    EXPECT_EQ(s.count, 4);
    EXPECT_EQ(sweep::parseShardSpec("1/1").count, 1);
}

TEST(ShardSpec, ParseRejectsMalformed)
{
    EXPECT_THROW(sweep::parseShardSpec("24"), std::invalid_argument);
    EXPECT_THROW(sweep::parseShardSpec("/4"), std::invalid_argument);
    EXPECT_THROW(sweep::parseShardSpec("2/"), std::invalid_argument);
    EXPECT_THROW(sweep::parseShardSpec("0/4"), std::invalid_argument);
    EXPECT_THROW(sweep::parseShardSpec("5/4"), std::invalid_argument);
    EXPECT_THROW(sweep::parseShardSpec("2/0"), std::invalid_argument);
    EXPECT_THROW(sweep::parseShardSpec("a/b"), std::invalid_argument);
    EXPECT_THROW(sweep::parseShardSpec("1/4x"), std::invalid_argument);
}

TEST(ShardSpec, PartitionCoversEveryIndexExactlyOnce)
{
    const int shards = 4;
    for (std::size_t i = 0; i < 23; ++i) {
        int owners = 0;
        for (int s = 1; s <= shards; ++s)
            owners += sweep::SweepEngine::inShard(i, {s, shards}) ? 1
                                                                  : 0;
        EXPECT_EQ(owners, 1) << "index " << i;
    }
    // A 1-way "partition" owns everything.
    EXPECT_TRUE(sweep::SweepEngine::inShard(7, {1, 1}));
}

TEST(Fingerprints, PointFingerprintKeyedOnEveryIngredient)
{
    const auto grid = smallGrid();
    const std::uint64_t base = sweep::pointFingerprint(grid[0]);

    sweep::GridPoint p = grid[0];
    p.label += "x";
    EXPECT_NE(sweep::pointFingerprint(p), base);

    p = grid[0];
    p.config.llcLatency += 1;
    EXPECT_NE(sweep::pointFingerprint(p), base);

    p = grid[0];
    p.budget.simInstrs += 1;
    EXPECT_NE(sweep::pointFingerprint(p), base);

    p = grid[0];
    p.traces = grid[1].traces;
    EXPECT_NE(sweep::pointFingerprint(p), base);

    EXPECT_EQ(sweep::pointFingerprint(grid[0]), base);
}

TEST(Fingerprints, SpaceFingerprintSeesOrderAndSize)
{
    auto grid = smallGrid();
    const std::uint64_t base = sweep::spaceFingerprint(grid);
    std::swap(grid[0], grid[1]);
    EXPECT_NE(sweep::spaceFingerprint(grid), base);
    grid = smallGrid();
    grid.pop_back();
    EXPECT_NE(sweep::spaceFingerprint(grid), base);
}

TEST(Journal, WriterRoundTripReproducesResultsExactly)
{
    const auto grid = smallGrid();
    const auto direct = sweep::SweepEngine().run(grid);

    const std::string path = tempPath("roundtrip.jsonl");
    {
        sweep::JournalWriter w(path);
        w.beginGrid(grid);
        for (const auto &r : direct)
            w.append(r);
    }

    bool truncated = true;
    const auto segments = sweep::readJournal(path, &truncated);
    EXPECT_FALSE(truncated);
    ASSERT_EQ(segments.size(), 1u);
    sweep::validateSegment(segments[0], grid);
    ASSERT_EQ(segments[0].records.size(), grid.size());

    std::vector<sweep::PointResult> loaded;
    for (const auto &rec : segments[0].records)
        loaded.push_back(rec.result);
    // Deterministic columns, fingerprints AND the non-deterministic
    // host-perf doubles all survive the round trip bit-for-bit.
    const auto all = defaultStatColumns(true);
    EXPECT_EQ(sweep::toCsv(loaded, all), sweep::toCsv(direct, all));
    EXPECT_EQ(sweep::toJson(loaded, all), sweep::toJson(direct, all));
    EXPECT_EQ(sweep::sweepFingerprint(loaded),
              sweep::sweepFingerprint(direct));
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].wallSeconds, direct[i].wallSeconds);
        EXPECT_EQ(loaded[i].stats.hostPerf.seconds,
                  direct[i].stats.hostPerf.seconds);
    }
    std::remove(path.c_str());
}

TEST(Journal, ShardUnionByteIdenticalToUnshardedRun)
{
    const auto grid = smallGrid();
    const auto direct = sweep::SweepEngine().run(grid);

    const int shards = 3;
    std::vector<std::string> paths;
    for (int s = 1; s <= shards; ++s) {
        const std::string path =
            tempPath("shard" + std::to_string(s) + ".jsonl");
        paths.push_back(path);
        sweep::JournalWriter w(path);
        sweep::OrchestrateOptions oopts;
        oopts.shard = {s, shards};
        oopts.journal = &w;
        const auto run = sweep::runJournaled({}, grid, oopts);
        EXPECT_FALSE(run.complete());
        EXPECT_EQ(run.simulated + run.otherShard, grid.size());
    }

    std::vector<std::vector<sweep::JournalSegment>> files;
    for (const auto &p : paths)
        files.push_back(sweep::readJournal(p));
    const auto merged = sweep::mergeSegments(files);
    ASSERT_EQ(merged.size(), 1u);
    sweep::validateSegment(merged[0], grid);
    ASSERT_EQ(merged[0].records.size(), grid.size());

    std::vector<sweep::PointResult> unioned;
    for (const auto &rec : merged[0].records)
        unioned.push_back(rec.result);
    const auto cols = defaultStatColumns();
    EXPECT_EQ(sweep::toCsv(unioned, cols), sweep::toCsv(direct, cols));
    EXPECT_EQ(sweep::toJson(unioned, cols), sweep::toJson(direct, cols));
    EXPECT_EQ(sweep::sweepFingerprint(unioned),
              sweep::sweepFingerprint(direct));
    for (const auto &p : paths)
        std::remove(p.c_str());
}

TEST(Journal, ResumeSimulatesOnlyMissingPoints)
{
    const auto grid = smallGrid();
    const auto direct = sweep::SweepEngine().run(grid);

    // Simulate a mid-sweep kill: only shard 1/2's points got recorded.
    const std::string path = tempPath("resume.jsonl");
    std::size_t recorded = 0;
    {
        sweep::JournalWriter w(path);
        sweep::OrchestrateOptions oopts;
        oopts.shard = {1, 2};
        oopts.journal = &w;
        recorded = sweep::runJournaled({}, grid, oopts).simulated;
    }
    ASSERT_GT(recorded, 0u);
    ASSERT_LT(recorded, grid.size());

    auto segments = sweep::readJournal(path);
    ASSERT_EQ(segments.size(), 1u);
    sweep::validateSegment(segments[0], grid);

    sweep::OrchestrateOptions oopts;
    oopts.resume = &segments[0];
    const auto run = sweep::runJournaled({}, grid, oopts);
    EXPECT_TRUE(run.complete());
    EXPECT_EQ(run.resumed, recorded);
    // The contract under test: resuming re-simulates ONLY the points
    // the journal is missing.
    EXPECT_EQ(run.simulated, grid.size() - recorded);
    EXPECT_EQ(sweep::toCsv(run.results, defaultStatColumns()),
              sweep::toCsv(direct, defaultStatColumns()));
    EXPECT_EQ(sweep::sweepFingerprint(run.results),
              sweep::sweepFingerprint(direct));
    std::remove(path.c_str());
}

TEST(Journal, TruncatedFinalLineIsTolerated)
{
    const auto grid = smallGrid();
    const auto direct = sweep::SweepEngine().run(grid);
    const std::string path = tempPath("trunc.jsonl");
    {
        sweep::JournalWriter w(path);
        w.beginGrid(grid);
        for (const auto &r : direct)
            w.append(r);
    }
    const std::string text = slurp(path);
    spit(path, text.substr(0, text.size() - 30)); // tear the last line

    bool truncated = false;
    const auto segments = sweep::readJournal(path, &truncated);
    EXPECT_TRUE(truncated);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].records.size(), grid.size() - 1);
    sweep::validateSegment(segments[0], grid);
    std::remove(path.c_str());
}

TEST(Journal, GarbledEarlierLineIsRejectedWithLineNumber)
{
    const auto grid = smallGrid();
    const auto direct = sweep::SweepEngine().run(grid);
    const std::string path = tempPath("garbled.jsonl");
    {
        sweep::JournalWriter w(path);
        w.beginGrid(grid);
        for (const auto &r : direct)
            w.append(r);
    }
    // Flip a stats digit on line 2 (the first record): the recorded
    // fingerprint no longer matches, which must be a hard error.
    std::string text = slurp(path);
    const std::size_t cycles = text.find("\"cycles\":");
    ASSERT_NE(cycles, std::string::npos);
    const std::size_t digit = cycles + std::strlen("\"cycles\":");
    text[digit] = text[digit] == '1' ? '2' : '1';
    spit(path, text);

    try {
        sweep::readJournal(path);
        FAIL() << "garbled record must be rejected";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fingerprint mismatch"), std::string::npos)
            << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

TEST(Journal, RecordedForDifferentSpaceIsRejected)
{
    const auto grid = smallGrid();
    const std::string path = tempPath("space.jsonl");
    {
        sweep::JournalWriter w(path);
        w.beginGrid(grid);
        w.append(sweep::SweepEngine().run(grid)[0]);
    }
    auto other = smallGrid();
    other[0].budget.simInstrs += 1; // same size, different scenario
    const auto segments = sweep::readJournal(path);
    try {
        sweep::validateSegment(segments[0], other);
        FAIL() << "space mismatch must be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "different scenario space"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Journal, OldFormatVersionIsRejectedWithAClearError)
{
    // A version-1 journal (pre-registry stats layout) must fail as an
    // incompatible version, not as a misleading decode error.
    const std::string path = tempPath("oldversion.jsonl");
    spit(path,
         "{\"hermes_journal\":1,\"space\":\"0000000000000001\","
         "\"points\":2}\n"
         "{\"i\":0}\n");
    try {
        sweep::readJournal(path);
        FAIL() << "old journal version must be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported journal version 1"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Journal, EmptyOrHeaderlessFilesAreRejected)
{
    const std::string path = tempPath("empty.jsonl");
    spit(path, "");
    EXPECT_THROW(sweep::readJournal(path), std::runtime_error);
    spit(path, "{\"i\":0}\n{\"i\":1}\n");
    EXPECT_THROW(sweep::readJournal(path), std::runtime_error);
    std::remove(path.c_str());
    EXPECT_THROW(sweep::readJournal(path), std::runtime_error);
}

TEST(Journal, MergeRejectsConflictingRecords)
{
    sweep::JournalSegment a;
    a.spaceFp = 42;
    a.points = 2;
    sweep::JournalRecord rec;
    rec.index = 0;
    rec.result.stats.simCycles = 100;
    a.records.push_back(rec);

    sweep::JournalSegment b = a;
    b.records[0].result.stats.simCycles = 200;

    EXPECT_THROW(sweep::mergeSegments({{a}, {b}}), std::runtime_error);
    // Identical duplicates dedup fine.
    const auto merged = sweep::mergeSegments({{a}, {a}});
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].records.size(), 1u);
}

TEST(Journal, MergeRejectsDifferentSpaces)
{
    sweep::JournalSegment a;
    a.spaceFp = 1;
    a.points = 2;
    sweep::JournalSegment b;
    b.spaceFp = 2;
    b.points = 2;
    EXPECT_THROW(sweep::mergeSegments({{a}, {b}}), std::runtime_error);
}

TEST(Journal, MultiSegmentJournalsRoundTrip)
{
    // A fig driver journals one segment per runGrid() call; both must
    // come back, in order, each validating against its own grid.
    const auto grid = smallGrid();
    std::vector<sweep::GridPoint> grid2(grid.begin(), grid.begin() + 2);
    const std::string path = tempPath("segments.jsonl");
    {
        sweep::JournalWriter w(path);
        w.beginGrid(grid);
        w.append(sweep::SweepEngine().run(grid)[3]);
        w.beginGrid(grid2);
        w.append(sweep::SweepEngine().run(grid2)[1]);
    }
    const auto segments = sweep::readJournal(path);
    ASSERT_EQ(segments.size(), 2u);
    sweep::validateSegment(segments[0], grid);
    sweep::validateSegment(segments[1], grid2);
    EXPECT_EQ(segments[0].records.size(), 1u);
    EXPECT_EQ(segments[0].records[0].index, 3u);
    EXPECT_EQ(segments[1].records.size(), 1u);
    EXPECT_EQ(segments[1].records[0].index, 1u);

    // journalText() round trip preserves everything.
    spit(path, sweep::journalText(segments));
    const auto again = sweep::readJournal(path);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(sweep::journalText(again), sweep::journalText(segments));
    std::remove(path.c_str());
}

TEST(Journal, CodecRoundTripsEveryRegisteredCounter)
{
    // Distinct values in every raw counter, written through the
    // registry setters: RunStats -> journal record -> RunStats must be
    // an identity for every registered key (a swapped or dropped field
    // in the codec plan cannot hide behind equal values).
    const auto &reg = StatRegistry::instance();
    RunStats s;
    std::uint64_t v = 1;
    for (const StatCodecItem &item : reg.codecPlan()) {
        switch (item.kind) {
        case StatCodecItem::Kind::Scalar:
            item.defs[0]->setU64(s, v++);
            break;
        case StatCodecItem::Kind::Group:
            item.resize(s, 3);
            for (std::size_t i = 0; i < 3; ++i)
                for (const StatDef *d : item.defs)
                    d->setAtU64(s, i, v++);
            break;
        case StatCodecItem::Kind::Section:
            for (const StatDef *d : item.defs)
                d->setU64(s, v++);
            break;
        }
    }
    s.hostPerf.seconds = 0.1259765625; // exact in binary
    s.hostPerf.instrs = 777;

    sweep::JournalSegment seg;
    seg.spaceFp = 42;
    seg.points = 1;
    sweep::JournalRecord rec;
    rec.index = 0;
    rec.pointFp = 7;
    rec.result.index = 0;
    rec.result.label = "synthetic";
    rec.result.stats = s;
    rec.result.wallSeconds = 0.5;
    seg.records.push_back(rec);

    const std::string path = tempPath("codec.jsonl");
    spit(path, sweep::journalText({seg}));
    const auto loaded = sweep::readJournal(path);
    ASSERT_EQ(loaded.size(), 1u);
    ASSERT_EQ(loaded[0].records.size(), 1u);
    const RunStats &d = loaded[0].records[0].result.stats;

    for (const StatCodecItem &item : reg.codecPlan()) {
        if (item.kind == StatCodecItem::Kind::Group) {
            ASSERT_EQ(item.count(d), 3u) << item.name;
            for (std::size_t i = 0; i < 3; ++i)
                for (const StatDef *def : item.defs)
                    EXPECT_EQ(def->getAtU64(d, i),
                              def->getAtU64(s, i))
                        << def->key << "[" << i << "]";
            continue;
        }
        for (const StatDef *def : item.defs)
            EXPECT_EQ(def->getU64(d), def->getU64(s)) << def->key;
    }
    EXPECT_EQ(d.hostPerf.seconds, s.hostPerf.seconds);
    EXPECT_EQ(d.hostPerf.instrs, s.hostPerf.instrs);
    EXPECT_EQ(loaded[0].records[0].result.wallSeconds, 0.5);
    EXPECT_EQ(statsFingerprint(d), statsFingerprint(s));
    std::remove(path.c_str());
}

TEST(ShardSpec, InShardThrowsOnDegenerateSpecs)
{
    // A zero-count spec used to hit "% 0"; any out-of-range spec must
    // be a loud error, never a silent mis-partition.
    EXPECT_THROW(sweep::SweepEngine::inShard(3, {0, 0}),
                 std::invalid_argument);
    EXPECT_THROW(sweep::SweepEngine::inShard(3, {0, 4}),
                 std::invalid_argument);
    EXPECT_THROW(sweep::SweepEngine::inShard(3, {5, 4}),
                 std::invalid_argument);
    EXPECT_THROW(sweep::SweepEngine::inShard(3, {2, 0}),
                 std::invalid_argument);
    EXPECT_THROW(sweep::SweepEngine::inShard(3, {-1, 3}),
                 std::invalid_argument);
    EXPECT_TRUE(sweep::SweepEngine::inShard(0, {1, 1}));
}

TEST(ShardSpec, ParseRejectsCountBeyondIntRange)
{
    EXPECT_THROW(sweep::parseShardSpec("1/99999999999"),
                 std::invalid_argument);
}

TEST(Journal, HeaderIsOnDiskBeforeAnyAppend)
{
    // Regression: beginGrid used to fflush without fsync, so a crash
    // right after it could leave appends pointing at a hole. The
    // observable contract is that the header line is complete and
    // parseable the moment beginGrid returns, with the writer still
    // open and no records appended.
    const auto grid = smallGrid();
    const std::string path = tempPath("headerfirst.jsonl");
    sweep::JournalWriter w(path);
    w.beginGrid(grid);

    const std::string text = slurp(path);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    const auto segments = sweep::readJournal(path);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].spaceFp, sweep::spaceFingerprint(grid));
    EXPECT_EQ(segments[0].points, grid.size());
    EXPECT_TRUE(segments[0].records.empty());
    std::remove(path.c_str());
}

TEST(Journal, TrailingHeaderOnlySegmentIsAToleratedTail)
{
    // A crash between beginGrid and the first append leaves a bare
    // header as the final segment. That is a truncated tail — drop it
    // and keep every earlier record — not a hard error.
    const auto grid = smallGrid();
    std::vector<sweep::GridPoint> grid2(grid.begin(), grid.begin() + 2);
    const std::string path = tempPath("bareheader.jsonl");
    {
        sweep::JournalWriter w(path);
        w.beginGrid(grid);
        w.append(sweep::SweepEngine().run(grid)[3]);
        w.beginGrid(grid2); // killed here: no appends follow
    }
    bool truncated = false;
    const auto segments = sweep::readJournal(path, &truncated);
    EXPECT_TRUE(truncated);
    ASSERT_EQ(segments.size(), 1u);
    sweep::validateSegment(segments[0], grid);
    ASSERT_EQ(segments[0].records.size(), 1u);
    EXPECT_EQ(segments[0].records[0].index, 3u);
    std::remove(path.c_str());
}

TEST(Journal, SingleBareHeaderJournalLoadsAsEmptySegment)
{
    // A journal holding exactly one header and nothing else is a valid
    // "began a grid, recorded nothing yet" state (e.g. a shard owning
    // none of a tiny grid): it must load, not throw and not vanish.
    const auto grid = smallGrid();
    const std::string path = tempPath("singleheader.jsonl");
    {
        sweep::JournalWriter w(path);
        w.beginGrid(grid);
    }
    bool truncated = false;
    const auto segments = sweep::readJournal(path, &truncated);
    EXPECT_FALSE(truncated);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_TRUE(segments[0].records.empty());
    sweep::validateSegment(segments[0], grid);
    std::remove(path.c_str());
}

TEST(Journal, RecordCodecExposedAndVerifying)
{
    const auto grid = smallGrid();
    const auto r = sweep::SweepEngine().run(grid)[0];
    sweep::JournalRecord rec;
    rec.index = 0;
    rec.pointFp = sweep::pointFingerprint(grid[0]);
    rec.result = r;
    const std::string line = sweep::encodeJournalRecord(rec);
    const sweep::JournalRecord back = sweep::decodeJournalRecord(line);
    EXPECT_EQ(back.index, rec.index);
    EXPECT_EQ(back.pointFp, rec.pointFp);
    EXPECT_EQ(statsFingerprint(back.result.stats),
              statsFingerprint(r.stats));

    // decode re-derives the stats fingerprint; a flipped digit fails.
    std::string bad = line;
    const std::size_t cycles = bad.find("\"cycles\":");
    ASSERT_NE(cycles, std::string::npos);
    const std::size_t digit = cycles + std::strlen("\"cycles\":");
    bad[digit] = bad[digit] == '1' ? '2' : '1';
    EXPECT_THROW(sweep::decodeJournalRecord(bad), std::runtime_error);
}

TEST(Journal, PrefetchEntriesThatDisagreeWithTheLlcAreRejected)
{
    // pf.* are the LLC's prefetch counters, so a record carries each
    // value twice. A record whose two copies disagree is corrupt, even
    // when its fingerprint matches the reading where the later pf
    // entry overwrites the LLC's.
    sweep::JournalRecord rec;
    rec.result.label = "pf";
    rec.result.stats.llc.prefetchIssued = 5;
    rec.result.stats.llc.usefulPrefetches = 3;
    rec.result.stats.llc.uselessPrefetches = 1;
    const std::string line = sweep::encodeJournalRecord(rec);
    EXPECT_NO_THROW(sweep::decodeJournalRecord(line));

    RunStats later = rec.result.stats;
    later.llc.prefetchIssued = 6;
    std::string bad = line;
    for (const auto &[from, to] :
         {std::pair{std::string("\"pf\":[5,3,1]"),
                    std::string("\"pf\":[6,3,1]")},
          std::pair{fingerprintHex(statsFingerprint(rec.result.stats)),
                    fingerprintHex(statsFingerprint(later))}}) {
        const std::size_t at = bad.find(from);
        ASSERT_NE(at, std::string::npos) << from << " in " << line;
        bad.replace(at, from.size(), to);
    }
    try {
        sweep::decodeJournalRecord(bad);
        FAIL() << "disagreeing pf entries were accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("llc.pf_issued"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Journal, FailedPointsAreNeverRecorded)
{
    sweep::PointResult bad;
    bad.index = 0;
    bad.label = "bad";
    bad.ok = false;
    const auto grid = smallGrid();
    const std::string path = tempPath("failed.jsonl");
    {
        sweep::JournalWriter w(path);
        w.beginGrid(grid);
        w.append(bad);
    }
    const auto segments = sweep::readJournal(path);
    EXPECT_TRUE(segments[0].records.empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace hermes
