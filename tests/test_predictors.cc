// Tests for the comparison off-chip predictors: HMP (hybrid
// local/gshare/gskew), TTP (tag tracking) and the Ideal oracle, plus
// the PredictorStats accuracy/coverage arithmetic (paper Eq. 3-4).

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "predictor/hmp.hh"
#include "predictor/ideal.hh"
#include "predictor/offchip_pred.hh"
#include "predictor/ttp.hh"

namespace hermes
{
namespace
{

TEST(PredictorStats, AccuracyAndCoverageFormulas)
{
    PredictorStats s;
    s.truePositives = 60;
    s.falsePositives = 40;
    s.falseNegatives = 20;
    s.trueNegatives = 880;
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.6); // TP/(TP+FP)
    EXPECT_DOUBLE_EQ(s.coverage(), 0.75); // TP/(TP+FN)
    EXPECT_EQ(s.total(), 1000u);
}

TEST(PredictorStats, EmptyIsZero)
{
    PredictorStats s;
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(s.coverage(), 0.0);
}

TEST(Hmp, DefaultsPredictOnChip)
{
    Hmp hmp;
    PredMeta meta;
    EXPECT_FALSE(hmp.predict(0x400000, 0x1000, meta));
    EXPECT_TRUE(meta.valid);
}

TEST(Hmp, LearnsAlwaysMissPc)
{
    Hmp hmp;
    const Addr pc = 0x400700;
    for (int i = 0; i < 200; ++i) {
        PredMeta meta;
        hmp.predict(pc, 0x1000 + i * 64, meta);
        hmp.train(pc, 0x1000 + i * 64, meta, true);
    }
    PredMeta meta;
    EXPECT_TRUE(hmp.predict(pc, 0x99999, meta));
}

TEST(Hmp, LearnsAlternatingPatternViaHistory)
{
    Hmp hmp;
    const Addr pc = 0x400800;
    // Strict alternation hit/miss: history-based components should
    // track it far better than chance after warmup.
    for (int i = 0; i < 4000; ++i) {
        PredMeta meta;
        hmp.predict(pc, 0x1000, meta);
        hmp.train(pc, 0x1000, meta, i % 2 == 0);
    }
    int correct = 0;
    for (int i = 4000; i < 4400; ++i) {
        PredMeta meta;
        const bool pred = hmp.predict(pc, 0x1000, meta);
        const bool actual = i % 2 == 0;
        correct += pred == actual;
        hmp.train(pc, 0x1000, meta, actual);
    }
    EXPECT_GT(correct, 320); // >80%
}

TEST(Hmp, StorageNearPaperBudget)
{
    Hmp hmp;
    const double kb = hmp.storageBits() / 8.0 / 1024.0;
    EXPECT_NEAR(kb, 11.0, 3.0); // paper: 11KB
}

TEST(Ttp, PredictsOffChipWhenUntracked)
{
    Ttp ttp;
    PredMeta meta;
    EXPECT_TRUE(ttp.predict(0x400000, 0x5000, meta));
}

TEST(Ttp, FillThenEvictionRoundTrip)
{
    Ttp ttp;
    const Addr line = lineAddr(0x123456780);
    ttp.onFillFromDram(line);
    EXPECT_TRUE(ttp.tracked(line));
    PredMeta meta;
    EXPECT_FALSE(ttp.predict(0x400000, 0x123456780, meta));
    ttp.onLlcEviction(line);
    EXPECT_FALSE(ttp.tracked(line));
    EXPECT_TRUE(ttp.predict(0x400000, 0x123456780, meta));
}

TEST(Ttp, DuplicateFillIdempotent)
{
    Ttp ttp;
    const Addr line = 0x77777;
    ttp.onFillFromDram(line);
    ttp.onFillFromDram(line);
    ttp.onLlcEviction(line);
    EXPECT_FALSE(ttp.tracked(line));
}

TEST(Ttp, EvictionOfUntrackedLineIsNoop)
{
    Ttp ttp;
    ttp.onLlcEviction(0x1234); // must not crash or corrupt
    ttp.onFillFromDram(0x1235);
    EXPECT_TRUE(ttp.tracked(0x1235));
}

TEST(Ttp, SetOverflowEvictsLru)
{
    TtpParams p;
    p.sets = 1;
    p.ways = 4;
    Ttp ttp(p);
    // All lines map to set 0 (sets == 1); fill 5 distinct tags.
    std::vector<Addr> lines = {0x10, 0x20, 0x30, 0x40, 0x50};
    for (Addr l : lines)
        ttp.onFillFromDram(l);
    unsigned tracked = 0;
    for (Addr l : lines)
        tracked += ttp.tracked(l);
    EXPECT_EQ(tracked, 4u); // one victimised
    EXPECT_FALSE(ttp.tracked(lines[0])); // the LRU one
}

TEST(Ttp, StorageNearPaperBudget)
{
    Ttp ttp;
    const double mb = ttp.storageBits() / 8.0 / 1024.0 / 1024.0;
    EXPECT_NEAR(mb, 1.5, 0.1); // paper: ~1536KB
}

TEST(Ideal, FollowsProbe)
{
    std::set<Addr> resident = {lineAddr(0x1000)};
    IdealPredictor ideal(
        [&resident](Addr line) { return resident.count(line) > 0; });
    PredMeta meta;
    EXPECT_FALSE(ideal.predict(0x400000, 0x1000, meta));
    EXPECT_TRUE(ideal.predict(0x400000, 0x2000, meta));
    resident.insert(lineAddr(0x2000));
    EXPECT_FALSE(ideal.predict(0x400000, 0x2000, meta));
    EXPECT_EQ(ideal.storageBits(), 0u);
}

/** Property: TTP tracked-set behaviour is conservative under random
 * fill/evict streams (never tracks more than capacity). */
class TtpRandomTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TtpRandomTest, NeverExceedsCapacity)
{
    TtpParams p;
    p.sets = 16;
    p.ways = GetParam();
    Ttp ttp(p);
    Rng rng(GetParam());
    std::vector<Addr> lines;
    for (int i = 0; i < 2000; ++i) {
        const Addr line = rng.below(1 << 20);
        if (rng.chance(0.7)) {
            ttp.onFillFromDram(line);
            lines.push_back(line);
        } else if (!lines.empty()) {
            ttp.onLlcEviction(lines[rng.below(lines.size())]);
        }
    }
    // Count tracked among a sample; bounded by structure capacity.
    unsigned tracked = 0;
    for (const Addr l : lines)
        tracked += ttp.tracked(l);
    EXPECT_LE(tracked, p.sets * p.ways * 2); // aliasing slack
}

INSTANTIATE_TEST_SUITE_P(Ways, TtpRandomTest,
                         ::testing::Values(2u, 4u, 8u, 11u));

} // namespace
} // namespace hermes
