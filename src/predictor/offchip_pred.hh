#pragma once

/**
 * @file
 * Off-chip load predictor interface (the component Hermes plugs in).
 *
 * For every demand load the core consults the predictor at LQ
 * allocation; per-load metadata (hashed feature indices, perceptron sum,
 * prediction) is stored in the LQ entry exactly as the paper describes
 * (§6.1.1) and handed back verbatim at training time when the load
 * completes and its true off-chip outcome is known (§6.1.2).
 */

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"

namespace hermes
{

class StateReader;
class StateWriter;

/**
 * Per-load predictor metadata kept in the LQ entry (paper Table 3, "LQ
 * metadata"). Generic enough for every predictor implementation here.
 */
struct PredMeta
{
    std::array<std::uint32_t, 6> index{}; ///< Hashed per-feature indices
    std::uint8_t indexCount = 0;
    std::int16_t sum = 0;       ///< Cumulative perceptron weight W_sigma
    bool predictedOffChip = false;
    bool valid = false;         ///< A prediction was actually made
};

/** Confusion-matrix counters for accuracy/coverage (paper Eq. 3-4). */
struct PredictorStats
{
    std::uint64_t truePositives = 0;
    std::uint64_t falsePositives = 0;
    std::uint64_t falseNegatives = 0;
    std::uint64_t trueNegatives = 0;

    /** Pool another matrix into this one (cores, traces, a suite). */
    PredictorStats &
    operator+=(const PredictorStats &o)
    {
        truePositives += o.truePositives;
        falsePositives += o.falsePositives;
        falseNegatives += o.falseNegatives;
        trueNegatives += o.trueNegatives;
        return *this;
    }

    std::uint64_t
    total() const
    {
        return truePositives + falsePositives + falseNegatives +
               trueNegatives;
    }

    /** Eq. 3: fraction of predicted off-chip loads that went off-chip. */
    double
    accuracy() const
    {
        const std::uint64_t d = truePositives + falsePositives;
        return d ? static_cast<double>(truePositives) / d : 0.0;
    }

    /** Eq. 4: fraction of off-chip loads that were predicted. */
    double
    coverage() const
    {
        const std::uint64_t d = truePositives + falseNegatives;
        return d ? static_cast<double>(truePositives) / d : 0.0;
    }
};

/** An off-chip load predictor instance (one per core). */
class OffChipPredictor
{
  public:
    virtual ~OffChipPredictor() = default;

    virtual const char *name() const = 0;

    /**
     * Predict whether the load will go off-chip (called at LQ
     * allocation). May update internal history state.
     */
    virtual bool predict(Addr pc, Addr vaddr, PredMeta &meta) = 0;

    /**
     * Train with the true outcome when the load completes.
     * @param meta the metadata produced by predict() for this load
     * @param went_off_chip true iff the load was serviced by DRAM
     */
    virtual void train(Addr pc, Addr vaddr, const PredMeta &meta,
                       bool went_off_chip) = 0;

    /** Hierarchy events (used by the TTP tag tracker). */
    virtual void onFillFromDram(Addr line) { (void)line; }
    virtual void onLlcEviction(Addr line) { (void)line; }

    /** Metadata storage in bits (Table 3 / Table 6 accounting). */
    virtual std::uint64_t storageBits() const = 0;

    /**
     * Warmup-checkpoint support (sim/simulator.hh). A predictor that
     * does not override these stays non-checkpointable and disables
     * checkpointing for runs that select it.
     */
    virtual bool checkpointable() const { return false; }
    virtual void saveState(StateWriter &) const {}
    virtual void loadState(StateReader &) {}
};

/**
 * Registry names of the predictors evaluated in the paper (§7.2), the
 * values of SystemConfig::predictor. Every registered model is
 * selectable by name; these are spelled out for the paper's grid.
 */
namespace PredictorKind
{
inline constexpr const char *None = "none";
inline constexpr const char *Popet = "popet";
inline constexpr const char *Hmp = "hmp";
inline constexpr const char *Ttp = "ttp";
inline constexpr const char *Ideal = "ideal";
} // namespace PredictorKind

} // namespace hermes
