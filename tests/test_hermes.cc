// Tests for the Hermes controller: prediction plumbing, issue-latency
// timing, predictor-only mode and confusion-matrix accounting.

#include <gtest/gtest.h>

#include "dram/dram.hh"
#include "hermes/hermes.hh"
#include "predictor/offchip_pred.hh"
#include "test_helpers.hh"

namespace hermes
{
namespace
{

using test::loadReq;
using test::RecordingClient;

/** Predictor stub with a scripted answer. */
class FixedPredictor : public OffChipPredictor
{
  public:
    explicit FixedPredictor(bool answer) : answer_(answer) {}

    const char *name() const override { return "fixed"; }

    bool
    predict(Addr, Addr, PredMeta &meta) override
    {
        ++predicts;
        meta = PredMeta{};
        meta.valid = true;
        meta.predictedOffChip = answer_;
        return answer_;
    }

    void
    train(Addr, Addr, const PredMeta &, bool went) override
    {
        ++trains;
        lastOutcome = went;
    }

    std::uint64_t storageBits() const override { return 1; }

    bool answer_;
    unsigned predicts = 0;
    unsigned trains = 0;
    bool lastOutcome = false;
};

struct HermesHarness
{
    explicit HermesHarness(bool predict_offchip, bool issue = true,
                           Cycle latency = 6)
        : dram(DramParams{}), predictor(predict_offchip),
          hermes(HermesParams{issue, latency}, &predictor, &dram)
    {
        dram.setClient(0, &client);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            ++now;
            dram.tick(now);
            hermes.tick(now);
        }
    }

    DramController dram;
    RecordingClient client;
    FixedPredictor predictor;
    HermesController hermes;
    Cycle now = 0;
};

TEST(Hermes, IssuesAfterConfiguredLatency)
{
    HermesHarness h(true, true, 6);
    PredMeta meta;
    EXPECT_TRUE(h.hermes.predictLoad(0x400000, 0x1000, meta));
    h.hermes.onLoadIssued(loadReq(0x1000), meta, h.now);
    h.run(5);
    EXPECT_EQ(h.dram.stats().hermesIssued, 0u); // not yet (latency 6)
    h.run(2);
    EXPECT_EQ(h.dram.stats().hermesIssued, 1u);
    EXPECT_EQ(h.hermes.stats().requestsScheduled, 1u);
}

TEST(Hermes, NegativePredictionIssuesNothing)
{
    HermesHarness h(false);
    PredMeta meta;
    EXPECT_FALSE(h.hermes.predictLoad(0x400000, 0x1000, meta));
    h.hermes.onLoadIssued(loadReq(0x1000), meta, h.now);
    h.run(50);
    EXPECT_EQ(h.dram.stats().hermesIssued, 0u);
    EXPECT_EQ(h.hermes.stats().requestsScheduled, 0u);
}

TEST(Hermes, PredictorOnlyModeNeverIssues)
{
    HermesHarness h(true, /*issue=*/false);
    PredMeta meta;
    EXPECT_TRUE(h.hermes.predictLoad(0x400000, 0x1000, meta));
    h.hermes.onLoadIssued(loadReq(0x1000), meta, h.now);
    h.run(50);
    EXPECT_EQ(h.dram.stats().hermesIssued, 0u);
    // But predictions and training still counted.
    h.hermes.onLoadComplete(0x400000, 0x1000, meta, true, false);
    EXPECT_EQ(h.hermes.stats().pred.truePositives, 1u);
    EXPECT_EQ(h.predictor.trains, 1u);
}

TEST(Hermes, ConfusionMatrixAllQuadrants)
{
    HermesHarness h(true);
    PredMeta pos;
    pos.valid = true;
    pos.predictedOffChip = true;
    PredMeta neg;
    neg.valid = true;
    neg.predictedOffChip = false;

    h.hermes.onLoadComplete(0, 0, pos, true, true);   // TP
    h.hermes.onLoadComplete(0, 0, pos, false, false); // FP
    h.hermes.onLoadComplete(0, 0, neg, true, false);  // FN
    h.hermes.onLoadComplete(0, 0, neg, false, false); // TN
    const auto &p = h.hermes.stats().pred;
    EXPECT_EQ(p.truePositives, 1u);
    EXPECT_EQ(p.falsePositives, 1u);
    EXPECT_EQ(p.falseNegatives, 1u);
    EXPECT_EQ(p.trueNegatives, 1u);
    EXPECT_EQ(h.hermes.stats().loadsServedByHermes, 1u);
}

TEST(Hermes, InvalidMetaIgnored)
{
    HermesHarness h(true);
    PredMeta invalid; // valid == false
    h.hermes.onLoadComplete(0, 0, invalid, true, false);
    EXPECT_EQ(h.hermes.stats().pred.total(), 0u);
    EXPECT_EQ(h.predictor.trains, 0u);
}

TEST(Hermes, TrainingForwardsTrueOutcome)
{
    HermesHarness h(true);
    PredMeta meta;
    h.hermes.predictLoad(0x400000, 0x1000, meta);
    h.hermes.onLoadComplete(0x400000, 0x1000, meta, true, false);
    EXPECT_TRUE(h.predictor.lastOutcome);
    h.hermes.predictLoad(0x400000, 0x2000, meta);
    h.hermes.onLoadComplete(0x400000, 0x2000, meta, false, false);
    EXPECT_FALSE(h.predictor.lastOutcome);
}

TEST(Hermes, NoPredictorMeansNoPredictions)
{
    DramController dram{DramParams{}};
    HermesController ctl(HermesParams{true, 6}, nullptr, &dram);
    PredMeta meta;
    EXPECT_FALSE(ctl.predictLoad(0x400000, 0x1000, meta));
    EXPECT_FALSE(meta.valid);
    ctl.onLoadComplete(0x400000, 0x1000, meta, true, false);
    EXPECT_EQ(ctl.stats().pred.total(), 0u);
}

TEST(Hermes, ZeroLatencyIssuesNextTick)
{
    HermesHarness h(true, true, 0);
    PredMeta meta;
    h.hermes.predictLoad(0x400000, 0x1000, meta);
    h.hermes.onLoadIssued(loadReq(0x1000), meta, h.now);
    h.run(1);
    EXPECT_EQ(h.dram.stats().hermesIssued, 1u);
}

TEST(Hermes, MultipleRequestsDrainInOrder)
{
    HermesHarness h(true, true, 4);
    PredMeta meta;
    meta.valid = true;
    meta.predictedOffChip = true;
    for (int i = 0; i < 5; ++i)
        h.hermes.onLoadIssued(loadReq(0x1000 + i * 0x1000), meta,
                              h.now + i);
    h.run(12);
    EXPECT_EQ(h.hermes.stats().requestsScheduled, 5u);
    EXPECT_EQ(h.dram.stats().hermesIssued, 5u);
}

} // namespace
} // namespace hermes
