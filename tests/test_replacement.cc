// Tests for the replacement policies (LRU, SRRIP, SHiP), used
// directly and through their model-registry factories.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cache/replacement.hh"
#include "sim/model_registry.hh"

namespace hermes
{
namespace
{

/** A registered policy by name, as System builds the LLC's. */
std::unique_ptr<ReplacementPolicy>
makePolicy(const std::string &name, std::uint32_t sets, std::uint32_t ways)
{
    ModelContext ctx;
    ctx.sets = sets;
    ctx.ways = ways;
    return ModelRegistry::instance().makeReplacement(name, std::move(ctx));
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy lru(1, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        lru.onInsert(0, w, 0, AccessType::Load);
    // Touch ways 0, 2, 3: way 1 is the LRU.
    lru.onHit(0, 0, 0, AccessType::Load);
    lru.onHit(0, 2, 0, AccessType::Load);
    lru.onHit(0, 3, 0, AccessType::Load);
    EXPECT_EQ(lru.victim(0), 1u);
}

TEST(Lru, InsertCountsAsUse)
{
    LruPolicy lru(1, 2);
    lru.onInsert(0, 0, 0, AccessType::Load);
    lru.onInsert(0, 1, 0, AccessType::Load);
    EXPECT_EQ(lru.victim(0), 0u);
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy lru(2, 2);
    lru.onInsert(0, 0, 0, AccessType::Load);
    lru.onInsert(0, 1, 0, AccessType::Load);
    lru.onInsert(1, 1, 0, AccessType::Load);
    lru.onInsert(1, 0, 0, AccessType::Load);
    EXPECT_EQ(lru.victim(0), 0u);
    EXPECT_EQ(lru.victim(1), 1u);
}

TEST(Srrip, HitPromotesToNearImminent)
{
    SrripPolicy p(1, 2);
    p.onInsert(0, 0, 0, AccessType::Load);
    p.onInsert(0, 1, 0, AccessType::Load);
    p.onHit(0, 0, 0, AccessType::Load);
    // Way 1 still at insert RRPV, way 0 promoted: victim must be 1.
    EXPECT_EQ(p.victim(0), 1u);
}

TEST(Ship, PrefetchInsertedAtDistantRrpv)
{
    ShipPolicy p(1, 2);
    p.onInsert(0, 0, 0x400, AccessType::Load);
    p.onInsert(0, 1, 0x404, AccessType::Prefetch);
    // The prefetch-inserted line is the more distant victim.
    EXPECT_EQ(p.victim(0), 1u);
}

TEST(Ship, LearnsNoReuseSignature)
{
    ShipPolicy p(4, 2);
    const Addr bad_pc = 0x1230;
    // Repeatedly insert and evict the bad PC without reuse; its SHCT
    // counter should fall to zero, demoting later insertions.
    for (int i = 0; i < 8; ++i) {
        p.onInsert(0, 0, bad_pc, AccessType::Load);
        p.onEvict(0, 0);
    }
    p.onInsert(0, 0, bad_pc, AccessType::Load); // distant now
    p.onInsert(0, 1, 0x5678, AccessType::Load); // near
    EXPECT_EQ(p.victim(0), 0u);
}

TEST(Ship, ReuseRestoresSignature)
{
    ShipPolicy p(4, 2);
    const Addr pc = 0x1230;
    for (int i = 0; i < 4; ++i) {
        p.onInsert(0, 0, pc, AccessType::Load);
        p.onEvict(0, 0);
    }
    // Now show reuse several times: counter climbs back.
    for (int i = 0; i < 6; ++i) {
        p.onInsert(0, 0, pc, AccessType::Load);
        p.onHit(0, 0, pc, AccessType::Load);
        p.onEvict(0, 0);
    }
    p.onInsert(0, 0, pc, AccessType::Load);
    p.onInsert(0, 1, 0x999, AccessType::Prefetch);
    EXPECT_EQ(p.victim(0), 1u);
}

TEST(Replacement, FactoryAndNames)
{
    for (const char *name : {"lru", "srrip", "ship"})
        EXPECT_STREQ(makePolicy(name, 2, 2)->name(), name);
}

TEST(Replacement, StorageBitsPositive)
{
    for (const char *name : {"lru", "srrip", "ship"})
        EXPECT_GT(makePolicy(name, 64, 8)->storageBits(), 0u);
}

/** Property: victim() always returns a valid way for any geometry. */
class ReplacementGeometry
    : public ::testing::TestWithParam<
          std::tuple<const char *, std::uint32_t, std::uint32_t>>
{
};

TEST_P(ReplacementGeometry, VictimAlwaysInRange)
{
    const auto [name, sets, ways] = GetParam();
    auto p = makePolicy(name, sets, ways);
    for (std::uint32_t s = 0; s < sets; ++s)
        for (std::uint32_t w = 0; w < ways; ++w)
            p->onInsert(s, w, 0x400000 + w * 4,
                        w % 3 ? AccessType::Load : AccessType::Prefetch);
    for (std::uint32_t s = 0; s < sets; ++s) {
        for (int round = 0; round < 4; ++round) {
            const std::uint32_t v = p->victim(s);
            ASSERT_LT(v, ways);
            p->onEvict(s, v);
            p->onInsert(s, v, 0x500000, AccessType::Load);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReplacementGeometry,
    ::testing::Combine(::testing::Values("lru", "srrip", "ship"),
                       ::testing::Values(1u, 16u, 64u),
                       ::testing::Values(1u, 4u, 12u, 20u)));

} // namespace
} // namespace hermes
