// Tests for the hashed-perceptron branch predictor.

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/branch_predictor.hh"

namespace hermes
{
namespace
{

TEST(Branch, LearnsAlwaysTaken)
{
    BranchPredictor bp;
    const Addr pc = 0x400000;
    for (int i = 0; i < 200; ++i) {
        bp.predict(pc);
        bp.update(pc, true);
    }
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        correct += bp.predict(pc);
        bp.update(pc, true);
    }
    EXPECT_EQ(correct, 100);
}

TEST(Branch, LearnsAlwaysNotTaken)
{
    BranchPredictor bp;
    const Addr pc = 0x400040;
    for (int i = 0; i < 200; ++i) {
        bp.predict(pc);
        bp.update(pc, false);
    }
    int taken = 0;
    for (int i = 0; i < 100; ++i) {
        taken += bp.predict(pc);
        bp.update(pc, false);
    }
    EXPECT_EQ(taken, 0);
}

TEST(Branch, LearnsAlternationViaHistory)
{
    BranchPredictor bp;
    const Addr pc = 0x400080;
    for (int i = 0; i < 2000; ++i) {
        bp.predict(pc);
        bp.update(pc, i % 2 == 0);
    }
    int correct = 0;
    for (int i = 2000; i < 2400; ++i) {
        const bool pred = bp.predict(pc);
        const bool actual = i % 2 == 0;
        correct += pred == actual;
        bp.update(pc, actual);
    }
    EXPECT_GT(correct, 380);
}

TEST(Branch, LearnsLoopExitPattern)
{
    // Taken 15 times, not-taken once (16-iteration loop).
    BranchPredictor bp;
    const Addr pc = 0x4000C0;
    for (int i = 0; i < 8000; ++i) {
        bp.predict(pc);
        bp.update(pc, i % 16 != 15);
    }
    unsigned mispredicts = 0;
    for (int i = 0; i < 1600; ++i) {
        const bool actual = i % 16 != 15;
        const bool pred = bp.predict(pc);
        mispredicts += pred != actual;
        bp.update(pc, actual);
    }
    // The perceptron's 24-bit history covers the 16-long period.
    EXPECT_LT(mispredicts, 160u);
}

TEST(Branch, RandomOutcomesNearChance)
{
    BranchPredictor bp;
    Rng rng(77);
    const Addr pc = 0x400100;
    unsigned correct = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const bool actual = rng.chance(0.5);
        const bool pred = bp.predict(pc);
        correct += pred == actual;
        bp.update(pc, actual);
    }
    EXPECT_GT(correct, n * 42 / 100);
    EXPECT_LT(correct, n * 58 / 100);
}

TEST(Branch, UpdateReportsMisprediction)
{
    BranchPredictor bp;
    const Addr pc = 0x400140;
    for (int i = 0; i < 100; ++i) {
        bp.predict(pc);
        bp.update(pc, true);
    }
    bp.predict(pc);
    EXPECT_TRUE(bp.update(pc, false)); // surprise outcome
    EXPECT_GT(bp.stats().mispredicts, 0u);
}

TEST(Branch, StatsAndStorage)
{
    BranchPredictor bp;
    bp.predict(0x400000);
    bp.update(0x400000, true);
    EXPECT_EQ(bp.stats().lookups, 1u);
    EXPECT_GT(bp.storageBits(), 0u);
    EXPECT_DOUBLE_EQ(BranchStats{}.mpki(0), 0.0);
}

TEST(Branch, DistinctPcsIndependent)
{
    BranchPredictor bp;
    for (int i = 0; i < 500; ++i) {
        bp.predict(0x400200);
        bp.update(0x400200, true);
        bp.predict(0x400240);
        bp.update(0x400240, false);
    }
    EXPECT_TRUE(bp.predict(0x400200));
    bp.update(0x400200, true);
    EXPECT_FALSE(bp.predict(0x400240));
    bp.update(0x400240, false);
}

} // namespace
} // namespace hermes
