// Tests for the content-addressed result store: cold/warm determinism
// (a second run simulates nothing and reproduces every byte), corrupt
// entry rejection + re-simulation, concurrent shards sharing one
// store and LRU eviction. The spec parser and the mutation sweep over
// stored entries live in test_content_store.cc.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/report.hh"
#include "sweep/journal.hh"
#include "sweep/result_cache.hh"
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
tempDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "hermes_cache_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0)
        ADD_FAILURE() << "cannot clear " << dir;
    return dir;
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

TEST(ResultCache, StoreLoadRoundTripVerifiesEverything)
{
    const auto grid = smallGrid();
    const auto direct = sweep::SweepEngine().run(grid);
    sweep::ResultCache cache({tempDir("roundtrip"), 0, 0});

    EXPECT_FALSE(cache.load(grid[0]).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.store(grid[0], direct[0]);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);

    const auto hit = cache.load(grid[0]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->label, grid[0].label);
    EXPECT_TRUE(hit->ok);
    EXPECT_EQ(statsFingerprint(hit->stats),
              statsFingerprint(direct[0].stats));
    // The stored result comes back wholesale, host-perf included.
    EXPECT_EQ(hit->wallSeconds, direct[0].wallSeconds);
    EXPECT_EQ(hit->stats.hostPerf.seconds,
              direct[0].stats.hostPerf.seconds);

    // Failed results are never stored.
    sweep::PointResult bad = direct[1];
    bad.ok = false;
    cache.store(grid[1], bad);
    EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(ResultCache, WarmRunSimulatesNothingAndMatchesByteForByte)
{
    const auto grid = smallGrid();
    sweep::ResultCache cache({tempDir("warm"), 0, 0});
    const std::string j1 = ::testing::TempDir() + "cache_warm1.jsonl";
    const std::string j2 = ::testing::TempDir() + "cache_warm2.jsonl";

    // Eight workers whatever the host: simulated points then journal
    // in completion order, which departs from the grid order the warm
    // run's cache hits journal in.
    sweep::OrchestratedRun cold;
    {
        sweep::JournalWriter w(j1);
        sweep::OrchestrateOptions oopts;
        oopts.journal = &w;
        oopts.cache = &cache;
        sweep::SweepOptions eopts;
        eopts.threads = 8;
        cold = sweep::runJournaled(eopts, grid, oopts);
    }
    EXPECT_TRUE(cold.complete());
    EXPECT_EQ(cold.simulated, grid.size());
    EXPECT_EQ(cold.cached, 0u);
    EXPECT_EQ(cache.entryCount(), grid.size());

    sweep::OrchestratedRun warm;
    {
        sweep::JournalWriter w(j2);
        sweep::OrchestrateOptions oopts;
        oopts.journal = &w;
        oopts.cache = &cache;
        warm = sweep::runJournaled({}, grid, oopts);
    }
    EXPECT_TRUE(warm.complete());
    // The contract under test: the second run simulates ZERO points.
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cached, grid.size());

    // Cached and simulated results merge byte-identically: same CSV
    // (host-perf columns included), same fingerprints, and the two
    // journals are byte-for-byte the same in canonical form (the
    // identity journal.hh defines; appends keep completion order).
    const auto all = defaultStatColumns(true);
    EXPECT_EQ(sweep::toCsv(warm.results, all),
              sweep::toCsv(cold.results, all));
    EXPECT_EQ(sweep::toJson(warm.results, all),
              sweep::toJson(cold.results, all));
    EXPECT_EQ(sweep::sweepFingerprint(warm.results),
              sweep::sweepFingerprint(cold.results));
    const auto canonical = [](const std::string &path) {
        return sweep::journalText(
            sweep::mergeSegments({sweep::readJournal(path)}));
    };
    EXPECT_EQ(canonical(j2), canonical(j1));
    std::remove(j1.c_str());
    std::remove(j2.c_str());
}

TEST(ResultCache, CorruptEntryIsRejectedAndResimulated)
{
    const auto grid = smallGrid();
    const std::string dir = tempDir("corrupt");
    sweep::ResultCache cache({dir, 0, 0});
    sweep::OrchestrateOptions oopts;
    oopts.cache = &cache;
    const auto cold = sweep::runJournaled({}, grid, oopts);

    // Flip a stats digit inside one entry: its recorded fingerprint no
    // longer matches, so the load must reject it rather than serve it.
    const std::string victim =
        dir + "/" +
        sweep::ResultCache::entryName(sweep::pointFingerprint(grid[2]));
    std::string text = slurp(victim);
    ASSERT_FALSE(text.empty());
    const std::size_t cycles = text.find("\"cycles\":");
    ASSERT_NE(cycles, std::string::npos);
    const std::size_t digit = cycles + 9;
    text[digit] = text[digit] == '1' ? '2' : '1';
    spit(victim, text);

    const auto warm = sweep::runJournaled({}, grid, oopts);
    EXPECT_TRUE(warm.complete());
    EXPECT_EQ(warm.cached, grid.size() - 1);
    EXPECT_EQ(warm.simulated, 1u);
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(sweep::sweepFingerprint(warm.results),
              sweep::sweepFingerprint(cold.results));

    // The re-simulation rewrote the entry cleanly.
    ASSERT_TRUE(cache.load(grid[2]).has_value());
    EXPECT_EQ(cache.entryCount(), grid.size());
}

TEST(ResultCache, TruncatedEntryIsRejected)
{
    const auto grid = smallGrid();
    const std::string dir = tempDir("truncated");
    sweep::ResultCache cache({dir, 0, 0});
    cache.store(grid[0], sweep::SweepEngine().run(grid)[0]);

    const std::string path =
        dir + "/" +
        sweep::ResultCache::entryName(sweep::pointFingerprint(grid[0]));
    const std::string text = slurp(path);
    spit(path, text.substr(0, text.size() - 10));

    EXPECT_FALSE(cache.load(grid[0]).has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(cache.entryCount(), 0u); // unlinked, not served
}

TEST(ResultCache, ConcurrentShardsShareOneStore)
{
    // Two writers (shard 1/2 and 2/2 of the same grid) filling one
    // directory concurrently, as two CI shard jobs sharing a cache
    // artifact would. Every point must land; a full follow-up run is
    // then answered entirely from the store.
    const auto grid = smallGrid();
    const std::string dir = tempDir("concurrent");
    sweep::ResultCache cache1({dir, 0, 0});
    sweep::ResultCache cache2({dir, 0, 0});

    std::thread t1([&] {
        sweep::OrchestrateOptions oopts;
        oopts.shard = {1, 2};
        oopts.cache = &cache1;
        sweep::runJournaled({}, grid, oopts);
    });
    std::thread t2([&] {
        sweep::OrchestrateOptions oopts;
        oopts.shard = {2, 2};
        oopts.cache = &cache2;
        sweep::runJournaled({}, grid, oopts);
    });
    t1.join();
    t2.join();
    EXPECT_EQ(cache1.entryCount(), grid.size());

    const auto direct = sweep::SweepEngine().run(grid);
    sweep::ResultCache reader({dir, 0, 0});
    sweep::OrchestrateOptions oopts;
    oopts.cache = &reader;
    const auto warm = sweep::runJournaled({}, grid, oopts);
    EXPECT_TRUE(warm.complete());
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cached, grid.size());
    EXPECT_EQ(sweep::sweepFingerprint(warm.results),
              sweep::sweepFingerprint(direct));
}

TEST(ResultCache, OverlappingGridsShareEntries)
{
    // A different grid containing some of the same points hits the
    // store for exactly the shared ones — content addressing, not
    // per-sweep caching.
    const auto grid = smallGrid();
    sweep::ResultCache cache({tempDir("overlap"), 0, 0});
    sweep::OrchestrateOptions oopts;
    oopts.cache = &cache;
    sweep::runJournaled({}, grid, oopts);

    std::vector<sweep::GridPoint> other(grid.begin() + 2,
                                        grid.begin() + 5);
    const auto run = sweep::runJournaled({}, other, oopts);
    EXPECT_TRUE(run.complete());
    EXPECT_EQ(run.cached, other.size());
    EXPECT_EQ(run.simulated, 0u);
}

TEST(ResultCache, LruEvictionDropsTheColdestEntry)
{
    const auto grid = smallGrid();
    const auto direct = sweep::SweepEngine().run(grid);
    sweep::ResultCache cache({tempDir("lru"), 0, 2});

    // Stores 10ms apart so the mtime LRU clock orders them even on a
    // coarse-timestamp filesystem.
    cache.store(grid[0], direct[0]);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cache.store(grid[1], direct[1]);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cache.store(grid[2], direct[2]);

    EXPECT_EQ(cache.entryCount(), 2u);
    EXPECT_EQ(cache.stats().evicted, 1u);
    EXPECT_FALSE(cache.load(grid[0]).has_value()); // the coldest
    EXPECT_TRUE(cache.load(grid[1]).has_value());
    EXPECT_TRUE(cache.load(grid[2]).has_value());

    // A hit refreshes the clock: touch grid[1], store another entry,
    // and grid[2] (now the coldest) is the one evicted.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(cache.load(grid[1]).has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cache.store(grid[3], direct[3]);
    EXPECT_EQ(cache.entryCount(), 2u);
    EXPECT_TRUE(cache.load(grid[1]).has_value());
    EXPECT_TRUE(cache.load(grid[3]).has_value());
    EXPECT_FALSE(cache.load(grid[2]).has_value());
}

TEST(ResultCache, ResumedRecordsMigrateIntoTheStore)
{
    // A journal-only sweep followed by a resume WITH a cache seeds the
    // store from the journal — existing journals warm new caches.
    const auto grid = smallGrid();
    const std::string path =
        ::testing::TempDir() + "cache_migrate.jsonl";
    {
        sweep::JournalWriter w(path);
        sweep::OrchestrateOptions oopts;
        oopts.journal = &w;
        sweep::runJournaled({}, grid, oopts);
    }
    auto segments = sweep::readJournal(path);
    ASSERT_EQ(segments.size(), 1u);

    sweep::ResultCache cache({tempDir("migrate"), 0, 0});
    sweep::OrchestrateOptions oopts;
    oopts.resume = &segments[0];
    oopts.cache = &cache;
    const auto run = sweep::runJournaled({}, grid, oopts);
    EXPECT_EQ(run.resumed, grid.size());
    EXPECT_EQ(run.simulated, 0u);
    EXPECT_EQ(cache.entryCount(), grid.size());
    std::remove(path.c_str());
}

} // namespace
} // namespace hermes
