// Differential property test for the flat-storage cache rewrite.
//
// Drives the real Cache (contiguous tag arrays, open-addressed MSHR
// index, ring queues) and an obviously-correct reference model
// (map-based storage, no timing, no queues) with the same seeded
// random access/evict sequences, and asserts that the hit/miss
// outcome of every access, the ordered eviction stream, the ordered
// dirty-writeback stream and the final residency agree exactly.
//
// The reference model shares only the ReplacementPolicy object
// (LRU or SHiP) with the production cache — everything the hot-path
// rewrite restructured (tag search, victim-way bookkeeping, MSHR
// machinery, writeback generation) is implemented independently on
// top of std::map.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "sim/model_registry.hh"
#include "test_helpers.hh"

namespace hermes
{
namespace
{

using test::FakeMemory;
using test::loadReq;
using test::RecordingClient;

/** A registered policy by name, as System builds the LLC's. */
std::unique_ptr<ReplacementPolicy>
makePolicy(const char *name, std::uint32_t sets, std::uint32_t ways)
{
    ModelContext ctx;
    ctx.sets = sets;
    ctx.ways = ways;
    return ModelRegistry::instance().makeReplacement(name, std::move(ctx));
}

/** The three operation classes the write/read paths distinguish. */
enum class Op
{
    Load,      ///< addRead, AccessType::Load
    Store,     ///< addWrite, AccessType::Rfo (write-allocate)
    Writeback, ///< addWrite, AccessType::Writeback (direct install)
};

/**
 * Map-based functional cache model mirroring cache.cc semantics one
 * access at a time (the driver completes each access before the next,
 * so MSHR merging/timing never reorders handling).
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint32_t sets, std::uint32_t ways,
                   const char *policy)
        : sets_(sets), ways_(ways), repl_(makePolicy(policy, sets, ways))
    {
    }

    /** @return true on hit. Mirrors the cache's per-type handling. */
    bool
    access(Op op, Addr line, Addr pc)
    {
        const std::uint32_t set =
            static_cast<std::uint32_t>(line & (sets_ - 1));
        auto &ways = sets_map_[set];
        for (auto &[way, entry] : ways) {
            if (entry.line != line)
                continue;
            switch (op) {
              case Op::Load:
                repl_->onHit(set, way, pc, AccessType::Load);
                break;
              case Op::Store:
              case Op::Writeback:
                entry.dirty = true;
                repl_->onHit(set, way, pc,
                             op == Op::Store ? AccessType::Rfo
                                             : AccessType::Writeback);
                break;
            }
            return true;
        }
        // Miss: every class installs the line (loads/stores fetch it,
        // writebacks install directly), evicting a victim if full.
        install(set, line, pc,
                op == Op::Load
                    ? AccessType::Load
                    : (op == Op::Store ? AccessType::Rfo
                                       : AccessType::Writeback),
                op != Op::Load);
        return false;
    }

    bool
    resident(Addr line) const
    {
        const std::uint32_t set =
            static_cast<std::uint32_t>(line & (sets_ - 1));
        const auto it = sets_map_.find(set);
        if (it == sets_map_.end())
            return false;
        for (const auto &[way, entry] : it->second)
            if (entry.line == line)
                return true;
        return false;
    }

    std::vector<Addr> evictions;
    std::vector<Addr> writebacks;

  private:
    struct Entry
    {
        Addr line = 0;
        bool dirty = false;
    };

    void
    install(std::uint32_t set, Addr line, Addr pc, AccessType type,
            bool dirty)
    {
        auto &ways = sets_map_[set];
        std::uint32_t way = ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (ways.find(w) == ways.end()) {
                way = w;
                break;
            }
        }
        if (way == ways_) {
            way = repl_->victim(set);
            const Entry victim = ways.at(way);
            repl_->onEvict(set, way);
            evictions.push_back(victim.line);
            if (victim.dirty)
                writebacks.push_back(victim.line);
            ways.erase(way);
        }
        ways[way] = Entry{line, dirty};
        repl_->onInsert(set, way, pc, type);
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::unique_ptr<ReplacementPolicy> repl_;
    std::map<std::uint32_t, std::map<std::uint32_t, Entry>> sets_map_;
};

struct DiffHarness
{
    DiffHarness(std::uint32_t sets, std::uint32_t ways, const char *policy)
    {
        CacheParams p;
        p.sets = sets;
        p.ways = ways;
        p.latency = 1;
        p.mshrs = 4;
        p.rqSize = 8;
        cache = std::make_unique<Cache>(p, makePolicy(policy, sets, ways));
        cache->setLower(&memory);
        cache->setUpper(0, &client);
        memory.setClient(cache.get());
        cache->onEviction = [this](Addr line) {
            evictions.push_back(line);
        };
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            ++now;
            memory.tick(now);
            cache->tick(now);
        }
    }

    /** Submit one op and run it to completion; @return hit. */
    bool
    access(Op op, Addr line, Addr pc, int seq)
    {
        const CacheStats before = cache->stats();
        MemRequest req = loadReq(line << kLogBlockSize, pc, 0, seq);
        switch (op) {
          case Op::Load:
            EXPECT_TRUE(cache->addRead(req));
            break;
          case Op::Store:
            req.type = AccessType::Rfo;
            cache->addWrite(req);
            break;
          case Op::Writeback:
            req.type = AccessType::Writeback;
            cache->addWrite(req);
            break;
        }
        run(80); // cover lookup + memory latency + fill
        const CacheStats &after = cache->stats();
        switch (op) {
          case Op::Load:
            return after.loadHits > before.loadHits;
          case Op::Store:
          case Op::Writeback:
            return after.writebackHits > before.writebackHits;
        }
        return false;
    }

    FakeMemory memory{20};
    std::unique_ptr<Cache> cache;
    RecordingClient client;
    std::vector<Addr> evictions;
    Cycle now = 0;
};

class CacheDiffTest
    : public ::testing::TestWithParam<std::tuple<const char *, std::uint64_t>>
{
};

TEST_P(CacheDiffTest, MatchesReferenceModelStreams)
{
    const auto [policy, seed] = GetParam();
    const std::uint32_t sets = 16;
    const std::uint32_t ways = 4;

    DiffHarness real(sets, ways, policy);
    ReferenceCache ref(sets, ways, policy);
    Rng rng(seed);

    for (int i = 0; i < 1200; ++i) {
        const Addr line = rng.below(sets * ways * 3);
        // 9 distinct PCs so SHiP's signature table sees reuse patterns.
        const Addr pc = 0x400000 + 4 * rng.below(9);
        const double roll = rng.uniform();
        const Op op = roll < 0.7 ? Op::Load
                                 : (roll < 0.9 ? Op::Store
                                               : Op::Writeback);

        const bool real_hit = real.access(op, line, pc, i + 1);
        const bool ref_hit = ref.access(op, line, pc);
        ASSERT_EQ(real_hit, ref_hit)
            << "op " << static_cast<int>(op) << " line " << line
            << " at access " << i;
    }

    // Ordered event streams must agree exactly.
    ASSERT_EQ(real.evictions, ref.evictions);
    std::vector<Addr> real_wb;
    for (const MemRequest &w : real.memory.writes)
        real_wb.push_back(w.line());
    ASSERT_EQ(real_wb, ref.writebacks);

    // Final residency: everything the model holds must probe resident.
    for (Addr line = 0; line < sets * ways * 3; ++line)
        ASSERT_EQ(real.cache->probe(line), ref.resident(line)) << line;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CacheDiffTest,
    ::testing::Combine(::testing::Values("lru", "ship"),
                       ::testing::Values(1u, 7u, 1234u)));

} // namespace
} // namespace hermes
