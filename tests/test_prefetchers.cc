// Tests for the five hardware prefetchers: pattern learning,
// address-range discipline, feedback handling and storage budgets.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "prefetch/bingo.hh"
#include "prefetch/mlop.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/pythia.hh"
#include "prefetch/sms.hh"
#include "prefetch/spp.hh"
#include "prefetch/streamer.hh"
#include "sim/model_registry.hh"

namespace hermes
{
namespace
{

/** A registered prefetcher by name, as System builds it. */
std::unique_ptr<Prefetcher>
makeByName(const std::string &name)
{
    return ModelRegistry::instance().makePrefetcher(name, ModelContext{});
}

/** Feed a unit-stride stream and count covered next-lines. */
double
streamCoverage(Prefetcher &pf, unsigned accesses = 2000,
               Addr pc = 0x400000)
{
    std::set<Addr> prefetched;
    unsigned covered = 0;
    Addr line = 0x100000;
    for (unsigned i = 0; i < accesses; ++i, ++line) {
        if (prefetched.count(line))
            ++covered;
        std::vector<Addr> out;
        const bool hit = prefetched.count(line) > 0;
        pf.onAccess(line << kLogBlockSize, pc, hit, out);
        for (Addr l : out) {
            prefetched.insert(l);
            pf.onPrefetchFill(l);
        }
    }
    return static_cast<double>(covered) / accesses;
}

TEST(Streamer, CoversUnitStrideStream)
{
    Streamer s;
    EXPECT_GT(streamCoverage(s), 0.9);
}

TEST(Streamer, DetectsDescendingStream)
{
    Streamer s;
    std::set<Addr> prefetched;
    Addr line = 0x200000;
    unsigned covered = 0;
    for (int i = 0; i < 500; ++i, --line) {
        covered += prefetched.count(line);
        std::vector<Addr> out;
        s.onAccess(line << kLogBlockSize, 0x400000, false, out);
        prefetched.insert(out.begin(), out.end());
    }
    EXPECT_GT(covered, 400u);
}

TEST(Streamer, NoPrefetchOnRandomAccesses)
{
    Streamer s;
    Rng rng(3);
    unsigned issued = 0;
    for (int i = 0; i < 500; ++i) {
        std::vector<Addr> out;
        s.onAccess(rng.next() & 0x3FFFFFC0, 0x400000, false, out);
        issued += out.size();
    }
    EXPECT_LT(issued, 100u);
}

TEST(Spp, CoversUnitStrideStream)
{
    Spp spp;
    EXPECT_GT(streamCoverage(spp), 0.85);
}

TEST(Spp, LearnsConstantStridePattern)
{
    Spp spp;
    // Stride of 3 lines within pages.
    std::set<Addr> prefetched;
    unsigned covered = 0;
    Addr line = 0x300000;
    for (int i = 0; i < 3000; ++i, line += 3) {
        covered += prefetched.count(line);
        std::vector<Addr> out;
        spp.onAccess(line << kLogBlockSize, 0x400000,
                     prefetched.count(line) > 0, out);
        prefetched.insert(out.begin(), out.end());
    }
    EXPECT_GT(covered, 2000u);
}

TEST(Spp, LookaheadRunsAhead)
{
    Spp spp;
    Addr line = 0x400000;
    std::vector<Addr> out;
    for (int i = 0; i < 200; ++i, ++line) {
        out.clear();
        spp.onAccess(line << kLogBlockSize, 0x400000, false, out);
    }
    // With high path confidence, candidates reach several lines ahead.
    Addr max_ahead = 0;
    for (Addr l : out)
        max_ahead = std::max(max_ahead, l - line);
    EXPECT_GE(max_ahead, 2u);
}

TEST(Spp, PerceptronFilterSuppressesAfterUselessFeedback)
{
    SppParams params;
    params.ppfThreshold = 0;
    Spp spp(params);
    // Train a stream, then punish every prefetch as useless; issue
    // volume must drop.
    Addr line = 0x500000;
    unsigned early = 0, late = 0;
    for (int i = 0; i < 4000; ++i, ++line) {
        std::vector<Addr> out;
        spp.onAccess(line << kLogBlockSize, 0x400000, false, out);
        if (i < 500)
            early += out.size();
        if (i >= 3500)
            late += out.size();
        for (Addr l : out)
            spp.onPrefetchUseless(l);
    }
    EXPECT_LT(late, early);
}

TEST(Bingo, ReplaysRegionFootprint)
{
    Bingo bingo;
    const Addr pc = 0x400000;
    // Touch a fixed footprint {0,2,5,9} in many different regions with
    // the same trigger (offset 0): Bingo should learn it via PC+Offset
    // and replay it for a fresh region.
    for (Addr region = 0; region < 300; ++region) {
        const Addr base = (0x1000 + region * 97) * 2048; // distinct
        for (unsigned off : {0u, 2u, 5u, 9u}) {
            std::vector<Addr> out;
            bingo.onAccess(base + off * 64, pc, false, out);
        }
    }
    const Addr fresh = 0x7777 * 2048ull * 131; // brand-new region
    std::vector<Addr> out;
    bingo.onAccess(fresh, pc, false, out);
    std::set<Addr> lines(out.begin(), out.end());
    const Addr fresh_line = fresh / 64;
    EXPECT_TRUE(lines.count(fresh_line + 2));
    EXPECT_TRUE(lines.count(fresh_line + 5));
    EXPECT_TRUE(lines.count(fresh_line + 9));
}

TEST(Bingo, SingleTouchRegionsNotStored)
{
    Bingo bingo;
    for (Addr region = 0; region < 200; ++region) {
        std::vector<Addr> out;
        bingo.onAccess(region * 2048 * 3, 0x400000, false, out);
    }
    // A fresh region with the same trigger must produce no replay.
    std::vector<Addr> out;
    bingo.onAccess(0x9999 * 2048ull * 7, 0x400000, false, out);
    EXPECT_TRUE(out.empty());
}

TEST(Mlop, SelectsDominantOffset)
{
    MlopParams p;
    p.roundLength = 128;
    Mlop mlop(p);
    // Stride-2 stream: offset +2 should become active.
    Addr line = 0x600000;
    for (int i = 0; i < 1500; ++i, line += 2) {
        std::vector<Addr> out;
        mlop.onAccess(line << kLogBlockSize, 0x400000, false, out);
    }
    bool has_plus2 = false;
    for (int o : mlop.activeOffsets())
        has_plus2 |= o == 2;
    EXPECT_TRUE(has_plus2);
}

TEST(Mlop, StaysWithinZone)
{
    Mlop mlop;
    Addr line = 0x700000;
    for (int i = 0; i < 3000; ++i, ++line) {
        std::vector<Addr> out;
        mlop.onAccess(line << kLogBlockSize, 0x400000, false, out);
        for (Addr l : out)
            ASSERT_EQ(l / kBlocksPerPage, line / kBlocksPerPage);
    }
}

TEST(Sms, ReplaysSpatialPattern)
{
    Sms sms;
    const Addr pc = 0x400000;
    for (Addr region = 0; region < 300; ++region) {
        const Addr base = (0x2000 + region * 101) * 2048;
        for (unsigned off : {0u, 3u, 7u}) {
            std::vector<Addr> out;
            sms.onAccess(base + off * 64, pc, false, out);
        }
    }
    std::vector<Addr> out;
    const Addr fresh = 0x8888 * 2048ull * 113;
    sms.onAccess(fresh, pc, false, out);
    std::set<Addr> lines(out.begin(), out.end());
    EXPECT_TRUE(lines.count(fresh / 64 + 3));
    EXPECT_TRUE(lines.count(fresh / 64 + 7));
}

TEST(Pythia, LearnsToPrefetchStream)
{
    Pythia pythia;
    // Unit-stride stream with useful feedback for covered lines.
    std::set<Addr> prefetched;
    unsigned late_covered = 0;
    Addr line = 0x900000;
    for (int i = 0; i < 6000; ++i, ++line) {
        const bool hit = prefetched.count(line) > 0;
        if (hit) {
            pythia.onPrefetchUseful(line, 0x400000);
            if (i >= 4000)
                ++late_covered;
        }
        std::vector<Addr> out;
        pythia.onAccess(line << kLogBlockSize, 0x400000, hit, out);
        prefetched.insert(out.begin(), out.end());
    }
    EXPECT_GT(late_covered, 1200u); // >60% coverage once learnt
}

TEST(Pythia, LearnsToStopOnRandomAccesses)
{
    Pythia pythia;
    Rng rng(11);
    unsigned early = 0, late = 0;
    for (int i = 0; i < 20000; ++i) {
        std::vector<Addr> out;
        pythia.onAccess(rng.next() & 0x3FFFFFC0, 0x400000, false, out);
        if (i < 2000)
            early += out.size();
        if (i >= 18000)
            late += out.size();
    }
    // No reward ever arrives: the policy should drift toward the
    // no-prefetch action.
    EXPECT_LT(late, early / 2 + 100);
}

TEST(Pythia, PrefetchesStayInPage)
{
    Pythia pythia;
    Addr line = 0xA00000;
    for (int i = 0; i < 3000; ++i, ++line) {
        std::vector<Addr> out;
        pythia.onAccess(line << kLogBlockSize, 0x400000, false, out);
        for (Addr l : out)
            ASSERT_EQ(l / kBlocksPerPage, line / kBlocksPerPage);
    }
}

TEST(Registry, FactoryAndNames)
{
    EXPECT_EQ(makeByName(PrefetcherKind::None), nullptr);
    for (const char *name :
         {PrefetcherKind::Streamer, PrefetcherKind::Spp,
          PrefetcherKind::Bingo, PrefetcherKind::Mlop, PrefetcherKind::Sms,
          PrefetcherKind::Pythia}) {
        auto pf = makeByName(name);
        ASSERT_NE(pf, nullptr);
        EXPECT_STREQ(pf->name(), name);
        EXPECT_GT(pf->storageBits(), 0u);
    }
    EXPECT_THROW(makeByName("oracle"), std::invalid_argument);
}

TEST(Storage, RelativeBudgetsMatchTable6Order)
{
    // Paper Table 6 ordering: MLOP < SMS < Pythia < SPP < Bingo.
    const auto bits = [](const char *name) {
        return makeByName(name)->storageBits();
    };
    EXPECT_LT(bits(PrefetcherKind::Mlop), bits(PrefetcherKind::Sms));
    EXPECT_LT(bits(PrefetcherKind::Sms), bits(PrefetcherKind::Pythia));
    EXPECT_LT(bits(PrefetcherKind::Pythia), bits(PrefetcherKind::Spp));
    EXPECT_LT(bits(PrefetcherKind::Spp), bits(PrefetcherKind::Bingo));
}

/** Property: every prefetcher returns bounded, sane candidates. */
class PrefetcherFuzzTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PrefetcherFuzzTest, CandidatesBoundedUnderRandomTraffic)
{
    auto pf = makeByName(GetParam());
    ASSERT_NE(pf, nullptr);
    Rng rng(42);
    for (int i = 0; i < 20000; ++i) {
        std::vector<Addr> out;
        Addr addr;
        if (rng.chance(0.5)) {
            addr = (0x100000ull + i) << kLogBlockSize; // stream phase
        } else {
            addr = rng.next() & 0xFFFFFFFFC0ull; // random phase
        }
        pf->onAccess(addr, 0x400000 + (rng.next() & 0x3C),
                     rng.chance(0.5), out);
        ASSERT_LE(out.size(), 64u);
        if (!out.empty() && rng.chance(0.3))
            pf->onPrefetchUseful(out.front(), 0x400000);
        if (!out.empty() && rng.chance(0.3))
            pf->onPrefetchUseless(out.front());
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    All, PrefetcherFuzzTest,
    ::testing::Values(PrefetcherKind::Streamer, PrefetcherKind::Spp,
                      PrefetcherKind::Bingo, PrefetcherKind::Mlop,
                      PrefetcherKind::Sms, PrefetcherKind::Pythia),
    [](const auto &info) { return std::string(info.param); });

} // namespace
} // namespace hermes
