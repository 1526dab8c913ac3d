// Tests for the cache model: hit/miss behaviour, timing, MSHR handling,
// write paths, prefetch plumbing and a reference-model cross-check.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "test_helpers.hh"

namespace hermes
{
namespace
{

using test::FakeMemory;
using test::loadReq;
using test::RecordingClient;

struct CacheHarness
{
    explicit CacheHarness(CacheParams p = defaultParams(),
                          std::unique_ptr<ReplacementPolicy> repl = nullptr)
        : cache(p, std::move(repl))
    {
        cache.setLower(&memory);
        cache.setUpper(0, &client);
        memory.setClient(&cache);
    }

    static CacheParams
    defaultParams()
    {
        CacheParams p;
        p.sets = 16;
        p.ways = 4;
        p.latency = 5;
        p.mshrs = 8;
        p.rqSize = 16;
        return p;
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            ++now;
            memory.tick(now);
            cache.tick(now);
        }
    }

    FakeMemory memory{50};
    Cache cache;
    RecordingClient client;
    Cycle now = 0;
};

TEST(Cache, MissGoesToLowerAndFills)
{
    CacheHarness h;
    EXPECT_TRUE(h.cache.addRead(loadReq(0x1000)));
    h.run(100);
    ASSERT_EQ(h.client.responses.size(), 1u);
    EXPECT_EQ(h.client.responses[0].line(), lineAddr(0x1000));
    EXPECT_EQ(static_cast<int>(h.client.responses[0].servedFrom),
              static_cast<int>(MemLevel::Dram));
    EXPECT_TRUE(h.cache.probe(lineAddr(0x1000)));
    EXPECT_EQ(h.memory.reads.size(), 1u);
}

TEST(Cache, HitServedAtLookupLatency)
{
    CacheHarness h;
    h.cache.addRead(loadReq(0x1000));
    h.run(100);
    h.client.responses.clear();

    const Cycle start = h.now;
    h.cache.addRead(loadReq(0x1000, 0x400000, 0, 2));
    h.run(20);
    ASSERT_EQ(h.client.responses.size(), 1u);
    // Lookup latency of 5 cycles: response arrives at start+5.
    EXPECT_EQ(h.client.responses[0].servedFrom, MemLevel::L1);
    EXPECT_EQ(h.cache.stats().loadHits, 1u);
    EXPECT_GE(h.now, start + 5);
}

TEST(Cache, MissLatencyIncludesLookupAndMemory)
{
    CacheHarness h;
    const Cycle start = h.now;
    h.cache.addRead(loadReq(0x2000));
    while (h.client.responses.empty() && h.now < start + 300)
        h.run(1);
    // 5 (lookup) + 50 (memory) plus a couple of tick-ordering cycles.
    ASSERT_FALSE(h.client.responses.empty());
    const Cycle elapsed = h.now - start;
    EXPECT_GE(elapsed, 55u);
    EXPECT_LE(elapsed, 62u);
}

/** An SRRIP subclass that counts hits: not one of the built-in
 * classes, so the cache must reach its override virtually. */
class CountingSrrip : public SrripPolicy
{
  public:
    using SrripPolicy::SrripPolicy;

    void
    onHit(std::uint32_t set, std::uint32_t way, Addr pc,
          AccessType type) override
    {
        ++hits;
        SrripPolicy::onHit(set, way, pc, type);
    }

    int hits = 0;
};

TEST(Cache, PolicySubclassDispatchesVirtually)
{
    auto policy = std::make_unique<CountingSrrip>(16, 4);
    const CountingSrrip &counting = *policy;
    CacheHarness h(CacheHarness::defaultParams(), std::move(policy));
    h.cache.addRead(loadReq(0x1000));
    h.run(100);
    h.cache.addRead(loadReq(0x1000, 0x400000, 0, 2));
    h.run(20);
    EXPECT_EQ(h.cache.stats().loadHits, 1u);
    EXPECT_EQ(counting.hits, 1);
}

TEST(Cache, MshrMergesSameLine)
{
    CacheHarness h;
    h.cache.addRead(loadReq(0x3000, 0x400000, 0, 1));
    h.cache.addRead(loadReq(0x3008, 0x400004, 0, 2));
    h.cache.addRead(loadReq(0x3030, 0x400008, 0, 3));
    h.run(100);
    EXPECT_EQ(h.client.responses.size(), 3u);
    EXPECT_EQ(h.memory.reads.size(), 1u); // one fetch for the line
    EXPECT_EQ(h.cache.stats().mshrMerges, 2u);
}

TEST(Cache, RqFullRejects)
{
    CacheParams p = CacheHarness::defaultParams();
    p.rqSize = 2;
    CacheHarness h(p);
    EXPECT_TRUE(h.cache.addRead(loadReq(0x1000)));
    EXPECT_TRUE(h.cache.addRead(loadReq(0x2000)));
    EXPECT_FALSE(h.cache.addRead(loadReq(0x3000)));
    EXPECT_EQ(h.cache.stats().rqRejects, 1u);
}

TEST(Cache, MshrExhaustionBlocksThenRecovers)
{
    CacheParams p = CacheHarness::defaultParams();
    p.mshrs = 2;
    CacheHarness h(p);
    for (int i = 0; i < 4; ++i)
        h.cache.addRead(loadReq(0x10000 + i * 0x1000, 0x400000, 0, i + 1));
    h.run(400);
    EXPECT_EQ(h.client.responses.size(), 4u); // all eventually served
}

TEST(Cache, EvictionWritesBackDirtyLine)
{
    CacheParams p = CacheHarness::defaultParams();
    p.sets = 1;
    p.ways = 2;
    CacheHarness h(p);

    // Write (store commit) to line A: allocates dirty via RFO.
    MemRequest st = loadReq(0x1000);
    st.type = AccessType::Rfo;
    h.cache.addWrite(st);
    h.run(100);
    ASSERT_TRUE(h.cache.probe(lineAddr(0x1000)));

    // Fill two more lines mapping to the same (only) set.
    h.cache.addRead(loadReq(0x2000));
    h.run(100);
    h.cache.addRead(loadReq(0x3000));
    h.run(100);
    EXPECT_GE(h.cache.stats().evictions, 1u);
    EXPECT_GE(h.cache.stats().dirtyEvictions, 1u);
    ASSERT_FALSE(h.memory.writes.empty());
    EXPECT_EQ(h.memory.writes[0].line(), lineAddr(0x1000));
}

TEST(Cache, WritebackFromUpperInstallsDirectly)
{
    CacheHarness h;
    MemRequest wb = loadReq(0x4000);
    wb.type = AccessType::Writeback;
    h.cache.addWrite(wb);
    h.run(20);
    EXPECT_TRUE(h.cache.probe(lineAddr(0x4000)));
    EXPECT_TRUE(h.memory.reads.empty()); // no fetch for a writeback fill
}

TEST(Cache, StoreMissFetchesLineAndInstallsDirty)
{
    CacheHarness h;
    MemRequest st = loadReq(0x5000);
    st.type = AccessType::Rfo;
    h.cache.addWrite(st);
    h.run(100);
    EXPECT_TRUE(h.cache.probe(lineAddr(0x5000)));
    EXPECT_EQ(h.memory.reads.size(), 1u); // write-allocate fetch
    EXPECT_TRUE(h.client.responses.empty()); // no upward response
}

TEST(Cache, ProbeMshrSeesOutstandingMiss)
{
    CacheHarness h;
    h.cache.addRead(loadReq(0x6000));
    h.run(8); // past lookup, before fill
    EXPECT_TRUE(h.cache.probeMshr(lineAddr(0x6000)));
    h.run(100);
    EXPECT_FALSE(h.cache.probeMshr(lineAddr(0x6000)));
}

TEST(Cache, EvictionHookFires)
{
    CacheParams p = CacheHarness::defaultParams();
    p.sets = 1;
    p.ways = 1;
    CacheHarness h(p);
    std::vector<Addr> evicted;
    h.cache.onEviction = [&](Addr line) { evicted.push_back(line); };
    h.cache.addRead(loadReq(0x1000));
    h.run(100);
    h.cache.addRead(loadReq(0x2000));
    h.run(100);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], lineAddr(0x1000));
}

TEST(Cache, FillFromDramHookFires)
{
    CacheHarness h;
    std::vector<Addr> filled;
    h.cache.onFillFromDram = [&](Addr line) { filled.push_back(line); };
    h.cache.addRead(loadReq(0x7000));
    h.run(100);
    ASSERT_EQ(filled.size(), 1u);
    EXPECT_EQ(filled[0], lineAddr(0x7000));
}

/** Prefetcher stub that requests the next line on every access. */
class NextLinePf : public Prefetcher
{
  public:
    const char *name() const override { return "nextline"; }
    void
    onAccess(Addr addr, Addr, bool, std::vector<Addr> &out) override
    {
        out.push_back(lineAddr(addr) + 1);
    }
    std::uint64_t storageBits() const override { return 0; }
};

TEST(Cache, PrefetchFillsAndCountsUseful)
{
    CacheHarness h;
    NextLinePf pf;
    h.cache.setPrefetcher(&pf);

    h.cache.addRead(loadReq(0x8000)); // miss; prefetch 0x8040 issued
    h.run(200);
    EXPECT_TRUE(h.cache.probe(lineAddr(0x8040)));
    EXPECT_EQ(h.cache.stats().prefetchIssued, 1u);

    h.cache.addRead(loadReq(0x8040, 0x400000, 0, 2)); // hits prefetch
    h.run(20);
    EXPECT_EQ(h.cache.stats().usefulPrefetches, 1u);
}

TEST(Cache, PrefetchToResidentLineDropped)
{
    CacheHarness h;
    NextLinePf pf;
    h.cache.setPrefetcher(&pf);
    h.cache.addRead(loadReq(0x9000));
    h.run(200);
    // Access the prefetched line: its own prefetch (next-next line)
    // is to a missing line; access the original line again -> its
    // prefetch target is now resident -> dropped.
    h.cache.addRead(loadReq(0x9000, 0x400000, 0, 2));
    h.run(200);
    EXPECT_GE(h.cache.stats().prefetchDropped, 1u);
}

/**
 * Reference-model cross-check: an LRU cache must agree with a simple
 * map-based functional model on the hit/miss sequence (single
 * outstanding request at a time, so timing cannot reorder handling).
 */
class CacheReferenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(CacheReferenceTest, MatchesFunctionalLruModel)
{
    const auto [sets, ways] = GetParam();
    CacheParams p;
    p.sets = sets;
    p.ways = ways;
    p.latency = 1;
    p.mshrs = 4;
    p.rqSize = 4;
    CacheHarness h(p);

    // Functional model: per-set LRU list of line addresses.
    std::map<std::uint32_t, std::vector<Addr>> model;
    Rng rng(1234);
    unsigned model_hits = 0;

    for (int i = 0; i < 800; ++i) {
        const Addr line = rng.below(sets * ways * 3);
        const Addr addr = line << kLogBlockSize;
        const auto set = static_cast<std::uint32_t>(line & (sets - 1));

        auto &lru = model[set];
        auto it = std::find(lru.begin(), lru.end(), line);
        const bool model_hit = it != lru.end();
        if (model_hit) {
            ++model_hits;
            lru.erase(it);
        } else if (lru.size() >= ways) {
            lru.erase(lru.begin());
        }
        lru.push_back(line);

        const std::uint64_t hits_before = h.cache.stats().loadHits;
        ASSERT_TRUE(h.cache.addRead(loadReq(addr, 0x400000, 0, i + 1)));
        h.run(80); // complete fully before the next access
        const bool sim_hit = h.cache.stats().loadHits > hits_before;
        ASSERT_EQ(sim_hit, model_hit)
            << "access " << i << " line " << line;
    }
    EXPECT_EQ(h.cache.stats().loadHits, model_hits);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheReferenceTest,
                         ::testing::Combine(::testing::Values(4u, 16u),
                                            ::testing::Values(2u, 4u,
                                                              8u)));

} // namespace
} // namespace hermes
