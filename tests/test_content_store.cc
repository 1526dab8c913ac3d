// Tests for the store engine under the result and warmup stores
// (common/content_store.hh): the one spec grammar, store resolution
// from flag and environment, the publish locking rule, and a seeded,
// fixed-budget mutation sweep over both entry kinds. Every mutant must
// either miss — unlinked and counted as rejected — or hit and
// reproduce the unmutated statistics; nothing may escape load().

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "sim/report.hh"
#include "sim/warmup_cache.hh"
#include "sweep/journal.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep.hh"
#include "trace/suite.hh"

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

/** POPET + Pythia + Hermes-O on one core: every checkpointed model. */
SystemConfig
hermesConfig()
{
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = PrefetcherKind::Pythia;
    cfg.predictor = PredictorKind::Popet;
    cfg.hermesIssueEnabled = true;
    return cfg;
}

sweep::GridPoint
onePoint()
{
    return {"mut.mcf", hermesConfig(), {findTrace("spec06.mcf_like.0")},
            tinyBudget()};
}

std::string
tempDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "hermes_store_" + name;
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
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

bool
exists(const std::string &path)
{
    return access(path.c_str(), F_OK) == 0;
}

TEST(ContentStore, OneSpecGrammarForBothStores)
{
    struct Case
    {
        const char *spec;
        bool ok;
        const char *dir;
        std::uint64_t maxBytes;
        std::uint64_t maxEntries;
    };
    const Case cases[] = {
        {"/tmp/c", true, "/tmp/c", 0, 0},
        {"cache,max_bytes=2M,max_entries=100", true, "cache",
         2ull * 1024 * 1024, 100},
        {"/tmp/wc,max_bytes=64M,max_entries=9", true, "/tmp/wc",
         64ull * 1024 * 1024, 9},
        {"d,max_entries=3,max_bytes=1K", true, "d", 1024, 3},
        {"", false, "", 0, 0},
        {",max_entries=1", false, "", 0, 0},
        {"c,max_bytes=0", false, "", 0, 0},
        {"c,max_bytes=x", false, "", 0, 0},
        {"/d,max_bytes=", false, "", 0, 0},
        {"c,max_entries=0", false, "", 0, 0},
        {"c,max_entries=-3", false, "", 0, 0},
        {"c,bogus=1", false, "", 0, 0},
    };
    for (const char *what : {sweep::ResultCache::kWhat, WarmupCache::kWhat})
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(what) + " '" + c.spec + "'");
            if (!c.ok) {
                try {
                    parseStoreSpec(c.spec, what);
                    ADD_FAILURE() << "accepted a malformed spec";
                } catch (const std::invalid_argument &e) {
                    // Errors name the store the flag configures.
                    EXPECT_NE(std::string(e.what()).find(what),
                              std::string::npos)
                        << e.what();
                }
                continue;
            }
            const StoreConfig cfg = parseStoreSpec(c.spec, what);
            EXPECT_EQ(cfg.dir, c.dir);
            EXPECT_EQ(cfg.maxBytes, c.maxBytes);
            EXPECT_EQ(cfg.maxEntries, c.maxEntries);
        }

    EXPECT_EQ(sweep::ResultCache::entryName(0xabcdef0123456789ull),
              "abcdef0123456789.rec");
    EXPECT_EQ(WarmupCache::entryName(0xabcdef0123456789ull),
              "abcdef0123456789.ckpt");
}

TEST(ContentStore, OpenStorePrefersFlagThenEnvironment)
{
    const char *env = sweep::ResultCache::kEnv;
    const char *saved = std::getenv(env);
    const std::string saved_value = saved != nullptr ? saved : "";
    const std::string flag_dir = tempDir("open_flag");
    const std::string env_dir = tempDir("open_env");

    unsetenv(env);
    EXPECT_EQ(openStore<sweep::ResultCache>("", false), nullptr);

    setenv(env, env_dir.c_str(), 1);
    auto from_env = openStore<sweep::ResultCache>("", false);
    ASSERT_NE(from_env, nullptr);
    EXPECT_EQ(from_env->dir(), env_dir);
    // --no-cache ignores the environment...
    EXPECT_EQ(openStore<sweep::ResultCache>("", true), nullptr);
    // ...and the flag beats it.
    auto from_flag =
        openStore<sweep::ResultCache>(flag_dir + ",max_entries=2", false);
    ASSERT_NE(from_flag, nullptr);
    EXPECT_EQ(from_flag->dir(), flag_dir);
    EXPECT_THROW(openStore<sweep::ResultCache>("d,bogus=1", false),
                 std::invalid_argument);

    if (saved != nullptr)
        setenv(env, saved_value.c_str(), 1);
    else
        unsetenv(env);
}

TEST(ContentStore, ConcurrentPublishesOfOneKeyWriteOnce)
{
    // The locking rule: publish holds the store's lock from the
    // existence check to the rename, so racing publishes of one key
    // never share a temporary and exactly one of them writes.
    const sweep::GridPoint point = onePoint();
    const sweep::PointResult r = sweep::SweepEngine().run({point})[0];
    ASSERT_TRUE(r.ok);
    const std::string dir = tempDir("race");
    sweep::ResultCache cache({dir, 0, 0});

    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&] {
            for (int i = 0; i < 8; ++i)
                cache.store(point, r);
        });
    for (std::thread &t : writers)
        t.join();
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);
    const auto hit = cache.load(point);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(statsFingerprint(hit->stats), statsFingerprint(r.stats));
}

TEST(ContentStore, EveryMutatedResultEntryMissesOrHitsExactly)
{
    const sweep::GridPoint point = onePoint();
    const sweep::PointResult r = sweep::SweepEngine().run({point})[0];
    ASSERT_TRUE(r.ok);
    const std::uint64_t want = statsFingerprint(r.stats);
    const std::string dir = tempDir("rec_mutants");
    sweep::ResultCache cache({dir, 0, 0});
    cache.store(point, r);
    const std::string path =
        dir + "/" +
        sweep::ResultCache::entryName(sweep::pointFingerprint(point));
    const std::string good = slurp(path);
    ASSERT_FALSE(good.empty());

    std::vector<std::string> mutants;
    for (std::size_t i = 0; i < good.size(); ++i)
        for (const char v : {'\x01', '\x20', '\x5a', '\xff'}) {
            std::string m = good;
            m[i] = v;
            mutants.push_back(std::move(m));
        }
    for (std::size_t n = 0; n < good.size(); n += 7)
        mutants.push_back(good.substr(0, n));

    std::size_t hits = 0;
    for (const std::string &m : mutants) {
        spit(path, m);
        const std::size_t rejected = cache.stats().rejected;
        std::optional<sweep::PointResult> got;
        ASSERT_NO_THROW(got = cache.load(point));
        if (got) {
            ++hits;
            EXPECT_EQ(statsFingerprint(got->stats), want);
            EXPECT_EQ(got->label, point.label);
            EXPECT_TRUE(exists(path));
        } else {
            EXPECT_EQ(cache.stats().rejected, rejected + 1);
            EXPECT_FALSE(exists(path));
        }
    }
    EXPECT_EQ(cache.stats().hits, hits);
    EXPECT_EQ(cache.stats().rejected, mutants.size() - hits);
    // The sweep is not vacuous: the unmutated entry still hits.
    spit(path, good);
    EXPECT_TRUE(cache.load(point).has_value());
}

TEST(ContentStore, EveryMutatedCheckpointMissesOrRestoresExactly)
{
    const sweep::GridPoint point = onePoint();
    SimSession straight(point.config, point.traces, point.budget);
    const std::uint64_t want =
        statsFingerprint(runSession(straight, nullptr));

    const std::string dir = tempDir("ckpt_mutants");
    WarmupCache cache({dir, 0, 0});
    {
        SimSession warmed(point.config, point.traces, point.budget);
        warmed.build();
        warmed.warmup();
        cache.store(warmed);
    }
    const std::string path =
        dir + "/" + WarmupCache::entryName(straight.warmupFingerprint());
    const std::string good = slurp(path);
    ASSERT_GT(good.size(), 64u);

    // Fixed seed, fixed budget: 13 rounds of a bit flip, a truncation,
    // a byte insertion and an 8-byte overwrite, then four header and
    // tail edits. Each mutant is a full-size copy, so make them one at
    // a time.
    std::mt19937_64 rng(0x5eedc0de);
    const auto at = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const auto mutate = [&](std::size_t k, std::string &m) {
        switch (k) {
          case 52:
            m.clear();
            return;
          case 53:
            m.resize(8); // the magic alone
            return;
          case 54:
            m += 'x'; // trailing garbage
            return;
          case 55:
            m[8] ^= 0x01; // the format version
            return;
        }
        switch (k % 4) {
          case 0:
            m[at(m.size())] ^= static_cast<char>(1u << at(8));
            break;
          case 1:
            m.resize(at(m.size()));
            break;
          case 2:
            m.insert(at(m.size() + 1), 1, static_cast<char>(rng()));
            break;
          default: {
            const std::size_t pos = at(m.size() - 8);
            for (std::size_t b = 0; b < 8; ++b)
                m[pos + b] = static_cast<char>(rng());
          }
        }
    };
    constexpr std::size_t kMutants = 56;

    std::size_t hits = 0;
    for (std::size_t k = 0; k < kMutants; ++k) {
        SCOPED_TRACE("mutant " + std::to_string(k));
        std::string m = good;
        mutate(k, m);
        spit(path, m);
        const std::size_t rejected = cache.stats().rejected;
        SimSession session(point.config, point.traces, point.budget);
        session.build();
        bool restored = false;
        ASSERT_NO_THROW(restored = cache.load(session));
        if (restored) {
            ++hits;
            session.measure();
            EXPECT_EQ(statsFingerprint(session.collect()), want);
            EXPECT_TRUE(exists(path));
        } else {
            EXPECT_EQ(cache.stats().rejected, rejected + 1);
            EXPECT_FALSE(exists(path));
        }
    }
    EXPECT_EQ(cache.stats().hits, hits);
    EXPECT_EQ(cache.stats().rejected, kMutants - hits);
    spit(path, good);
    SimSession control(point.config, point.traces, point.budget);
    control.build();
    EXPECT_TRUE(cache.load(control));
}

} // namespace
} // namespace hermes
