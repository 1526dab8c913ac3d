#pragma once

/**
 * @file
 * Hashed-perceptron conditional branch predictor, following the style
 * of Jimenez & Lin (HPCA'01) / Tarjan & Skadron as used by the paper's
 * baseline core (Table 4: "Perceptron branch predictor with 17-cycle
 * misprediction penalty"). Three feature tables (PC, PC^GHR, GHR
 * segments) of 8-bit weights vote; training uses the usual
 * threshold-gated perceptron update.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "common/state_io.hh"
#include "common/types.hh"

namespace hermes
{

/** Branch predictor statistics. */
struct BranchStats
{
    std::uint64_t lookups = 0;
    std::uint64_t mispredicts = 0;

    double
    mpki(std::uint64_t instructions) const
    {
        return instructions
                   ? 1000.0 * static_cast<double>(mispredicts) /
                         static_cast<double>(instructions)
                   : 0.0;
    }
};

/** Hashed-perceptron branch direction predictor. */
class BranchPredictor
{
  public:
    BranchPredictor();

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc);

    /**
     * Train with the actual direction and update the global history.
     * @return true iff the prediction recorded by the immediately
     *         preceding predict() call was wrong.
     */
    bool update(Addr pc, bool taken);

    const BranchStats &stats() const { return stats_; }

    std::uint64_t storageBits() const;

    void
    saveState(StateWriter &w) const
    {
        w.section("BPRC");
        for (const auto &table : weights_)
            for (std::int8_t v : table)
                w.i8(v);
        w.u64(ghr_);
        for (std::uint32_t idx : lastIndex_)
            w.u32(idx);
        w.i32(lastSum_);
        w.b(lastPrediction_);
    }

    void
    loadState(StateReader &r)
    {
        r.section("BPRC");
        for (auto &table : weights_)
            for (std::int8_t &v : table)
                v = r.i8();
        ghr_ = r.u64();
        for (std::uint32_t &idx : lastIndex_)
            idx = r.u32();
        lastSum_ = r.i32();
        lastPrediction_ = r.b();
    }

  private:
    static constexpr unsigned kTables = 3;
    static constexpr std::uint32_t kTableSize = 4096;
    static constexpr int kThreshold = 24;
    static constexpr int kWeightMax = 127;
    static constexpr int kWeightMin = -128;

    std::uint32_t indexFor(unsigned table, Addr pc) const;

    std::array<std::vector<std::int8_t>, kTables> weights_;
    std::uint64_t ghr_ = 0;
    // Stashed between predict() and update() (calls always pair up).
    std::array<std::uint32_t, kTables> lastIndex_{};
    int lastSum_ = 0;
    bool lastPrediction_ = false;
    BranchStats stats_;
};

} // namespace hermes
