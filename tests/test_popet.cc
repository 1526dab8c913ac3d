// Tests for POPET: hashed-perceptron prediction/training mechanics, the
// page buffer first-access hint and its checkpoint validation,
// threshold semantics, feature ablation plumbing, storage accounting
// and weight-boundedness properties.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "predictor/popet.hh"
#include "test_helpers.hh"

namespace hermes
{
namespace
{

/** @p popet's sealed checkpoint section. */
std::vector<char>
checkpointOf(const Popet &popet)
{
    test::VectorSink sink;
    StateWriter w(sink);
    popet.saveState(w);
    w.sealChecksum();
    return sink.bytes;
}

/** Load @p bytes into @p popet; any defect throws StateError. */
void
restore(Popet &popet, const std::vector<char> &bytes)
{
    test::VectorSource source(bytes);
    StateReader r(source);
    popet.loadState(r);
    r.verifyChecksum();
}

TEST(Popet, UntrainedPredictsOffChipAtDefaultThreshold)
{
    // tau_act = -18 and a zero-weight sum of 0 >= -18: the paper's
    // operating point biases an untrained POPET toward off-chip.
    Popet popet;
    PredMeta meta;
    EXPECT_TRUE(popet.predict(0x400000, 0x12345678, meta));
    EXPECT_TRUE(meta.valid);
    EXPECT_EQ(meta.sum, 0);
    EXPECT_EQ(meta.indexCount, kPopetFeatureCount);
}

TEST(Popet, TrainingMovesWeightsTowardOutcome)
{
    Popet popet;
    PredMeta meta;
    const Addr pc = 0x400100, va = 0x1000;
    popet.predict(pc, va, meta);
    popet.train(pc, va, meta, true);
    PredMeta meta2;
    popet.predict(pc, va, meta2);
    EXPECT_GT(meta2.sum, meta.sum);

    popet.train(pc, va, meta2, false);
    popet.train(pc, va, meta2, false);
    PredMeta meta3;
    popet.predict(pc, va, meta3);
    EXPECT_LT(meta3.sum, meta2.sum);
}

TEST(Popet, LearnsAlwaysOnChipPc)
{
    Popet popet;
    Rng rng(5);
    const Addr pc = 0x400200;
    for (int i = 0; i < 2000; ++i) {
        PredMeta meta;
        const Addr va = rng.below(1 << 14); // small hot region
        popet.predict(pc, va, meta);
        popet.train(pc, va, meta, false);
    }
    // After training, the PC should be predicted on-chip.
    int predicted_off = 0;
    for (int i = 0; i < 200; ++i) {
        PredMeta meta;
        predicted_off += popet.predict(pc, rng.below(1 << 14), meta);
        popet.train(pc, rng.below(1 << 14), meta, false);
    }
    EXPECT_LT(predicted_off, 20);
}

TEST(Popet, SeparatesTwoPcsByOutcome)
{
    Popet popet;
    Rng rng(6);
    const Addr hit_pc = 0x400300, miss_pc = 0x400304;
    for (int i = 0; i < 4000; ++i) {
        PredMeta meta;
        if (i % 2 == 0) {
            const Addr va = rng.below(1 << 14);
            popet.predict(hit_pc, va, meta);
            popet.train(hit_pc, va, meta, false);
        } else {
            const Addr va = (rng.next() & 0x3FFFFFFF);
            popet.predict(miss_pc, va, meta);
            popet.train(miss_pc, va, meta, true);
        }
    }
    int hit_off = 0, miss_off = 0;
    for (int i = 0; i < 200; ++i) {
        PredMeta meta;
        hit_off += popet.predict(hit_pc, rng.below(1 << 14), meta);
        miss_off += popet.predict(miss_pc, rng.next() & 0x3FFFFFFF, meta);
    }
    EXPECT_LT(hit_off, 30);
    EXPECT_GT(miss_off, 170);
}

TEST(Popet, ByteOffsetFeatureSeparatesStreamLeaders)
{
    // Streaming over 4B elements: only byte offset 0 loads go off-chip
    // (the paper's motivating example for the PC ^ byte-offset feature).
    PopetParams params;
    params.featureMask = 1u << kFeatPcXorByteOffset;
    Popet popet(params);
    const Addr pc = 0x400400;
    Addr va = 0x10000000;
    for (int i = 0; i < 30000; ++i) {
        PredMeta meta;
        popet.predict(pc, va, meta);
        popet.train(pc, va, meta, byteOffsetInLine(va) == 0);
        va += 4;
    }
    PredMeta meta;
    popet.predict(pc, 0x20000000, meta); // offset 0
    const bool leader = meta.predictedOffChip;
    popet.predict(pc, 0x20000004, meta); // offset 4
    const bool follower = meta.predictedOffChip;
    EXPECT_TRUE(leader);
    EXPECT_FALSE(follower);
}

TEST(Popet, FirstAccessHintTracksPageBuffer)
{
    // Use only the offset+first-access feature and observe that the
    // second touch of the same line yields a different prediction path
    // (trained in opposite directions).
    PopetParams params;
    params.featureMask = 1u << kFeatOffsetFirstAccess;
    Popet popet(params);
    const Addr pc = 0x400500;

    // First access to a fresh line is distinguishable from a repeat:
    // train first accesses off-chip and repeats on-chip with huge
    // volume, then check behaviour on a new page.
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const Addr page = rng.below(1 << 20);
        const Addr va = (page << kLogPageSize) |
                        (rng.below(kBlocksPerPage) << kLogBlockSize);
        PredMeta m1;
        popet.predict(pc, va, m1);
        popet.train(pc, va, m1, true); // first touch -> off-chip
        PredMeta m2;
        popet.predict(pc, va, m2);
        popet.train(pc, va, m2, false); // repeat -> on-chip
    }
    const Addr fresh = 0xABC123000;
    PredMeta first, repeat;
    popet.predict(pc, fresh, first);
    popet.predict(pc, fresh, repeat);
    EXPECT_TRUE(first.predictedOffChip);
    EXPECT_FALSE(repeat.predictedOffChip);
}

TEST(Popet, RestoreRejectsAnImpossiblePageBuffer)
{
    // Three pages in a four-entry buffer: the checkpoint lists them
    // oldest first, then the unused entry, then the unused count.
    PopetParams params;
    params.pageBufferEntries = 4;
    Popet popet(params);
    PredMeta meta;
    for (Addr page = 1; page <= 3; ++page)
        popet.predict(0x400000, page << kLogPageSize, meta);
    const std::vector<char> good = checkpointOf(popet);
    Popet restored(params);
    restore(restored, good);
    EXPECT_EQ(checkpointOf(restored), good);

    // Layout: the "POPT" tag (u64 length + 4 bytes), each weight table
    // (u64 size + one byte per weight), the u64 entry count, then per
    // entry the page tag, line bitmap and stamp (u64 each), then the
    // u32 unused count. The buffer stamps its n-th access n.
    std::size_t entries = 8 + 4 + 8;
    for (const std::uint32_t size : Popet::kTableSizes)
        entries += 8 + size;
    const std::size_t unused = entries + 4 * 24;
    const auto edited = [&](std::size_t at, std::size_t width,
                            std::uint64_t was, std::uint64_t now) {
        std::vector<char> bytes = good;
        std::uint64_t old = 0;
        std::memcpy(&old, bytes.data() + at, width);
        EXPECT_EQ(old, was) << "the layout above is stale";
        for (std::size_t i = 0; i < width; ++i)
            bytes[at + i] = static_cast<char>(now >> (8 * i));
        test::resealChecksum(bytes);
        return bytes;
    };
    const auto rejects = [&](const std::vector<char> &bytes) {
        Popet fresh(params);
        EXPECT_THROW(restore(fresh, bytes), StateError);
    };
    // More unused entries than the buffer has.
    rejects(edited(unused, 4, 1, 5));
    // The second entry holds the first one's page...
    rejects(edited(entries + 24, 8, 2, 1));
    // ...or the first one's stamp.
    rejects(edited(entries + 24 + 16, 8, 2, 1));
}

TEST(Popet, TrainingGateStopsAtSaturation)
{
    PopetParams params;
    params.trainOnMispredict = false;
    Popet popet(params);
    const Addr pc = 0x400600, va = 0x1234000;
    // Push the sum past T_P = 40: training must stop there.
    for (int i = 0; i < 100; ++i) {
        PredMeta meta;
        popet.predict(pc, va, meta);
        popet.train(pc, va, meta, true);
    }
    PredMeta meta;
    popet.predict(pc, va, meta);
    EXPECT_LE(meta.sum, 40 + static_cast<int>(kPopetFeatureCount));
}

TEST(Popet, WeightsStayWithinFiveBitRange)
{
    Popet popet;
    Rng rng(8);
    for (int i = 0; i < 50000; ++i) {
        PredMeta meta;
        const Addr pc = 0x400000 + (rng.next() & 0x3C);
        const Addr va = rng.next() & 0xFFFFFFFF;
        popet.predict(pc, va, meta);
        popet.train(pc, va, meta, rng.chance(0.3));
    }
    for (unsigned f = 0; f < kPopetFeatureCount; ++f) {
        for (std::uint32_t i = 0; i < Popet::kTableSizes[f]; ++i) {
            const int w = popet.weightAt(f, i);
            ASSERT_GE(w, -16);
            ASSERT_LE(w, 15);
        }
    }
}

TEST(Popet, SumMatchesActiveFeatureCountBounds)
{
    Popet popet;
    Rng rng(9);
    for (int i = 0; i < 5000; ++i) {
        PredMeta meta;
        popet.predict(rng.next(), rng.next(), meta);
        ASSERT_GE(meta.sum, -16 * static_cast<int>(kPopetFeatureCount));
        ASSERT_LE(meta.sum, 15 * static_cast<int>(kPopetFeatureCount));
    }
}

TEST(Popet, StorageMatchesTable3)
{
    Popet popet;
    // Table 3: POPET = 3.2 KB (weight tables + page buffer).
    const double kb = popet.storageBits() / 8.0 / 1024.0;
    EXPECT_NEAR(kb, 3.2, 0.3);
}

TEST(Popet, InvalidMetaIgnoredInTraining)
{
    Popet popet;
    PredMeta meta; // never produced by predict()
    popet.train(0x400000, 0x1000, meta, true);
    PredMeta fresh;
    popet.predict(0x400000, 0x1000, fresh);
    EXPECT_EQ(fresh.sum, 0);
}

/** Feature-mask ablation: every mask produces a working predictor. */
class PopetMaskTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PopetMaskTest, MaskedPredictorOperates)
{
    PopetParams params;
    params.featureMask = GetParam();
    Popet popet(params);
    Rng rng(GetParam());
    unsigned active = 0;
    for (unsigned f = 0; f < kPopetFeatureCount; ++f)
        active += (GetParam() >> f) & 1;

    for (int i = 0; i < 3000; ++i) {
        PredMeta meta;
        popet.predict(0x400000 + (rng.next() & 0x1C), rng.next(), meta);
        ASSERT_EQ(meta.indexCount, active);
        ASSERT_GE(meta.sum, -16 * static_cast<int>(active));
        ASSERT_LE(meta.sum, 15 * static_cast<int>(active));
        popet.train(0x400000, rng.next(), meta, rng.chance(0.2));
    }
    EXPECT_GT(popet.storageBits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Masks, PopetMaskTest,
                         ::testing::Values(0x1u, 0x2u, 0x4u, 0x8u, 0x10u,
                                           0x3u, 0x7u, 0xFu, 0x1Fu));

} // namespace
} // namespace hermes
