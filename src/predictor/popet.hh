#pragma once

/**
 * @file
 * POPET: the Perceptron-based Off-chip load Predictor (paper §6.1).
 *
 * POPET is a hashed-perceptron model. Each of five program features is
 * hashed into its own table of 5-bit signed saturating weights
 * (Table 3). Prediction sums the five indexed weights and compares
 * against the activation threshold tau_act; training nudges each
 * indexed weight toward the true outcome when the sum is not already
 * saturated beyond the training thresholds [T_N, T_P] (Table 2:
 * tau_act = -18, T_N = -35, T_P = 40).
 *
 * The selected features (paper Table 2):
 *   1. PC ^ cache-line offset (in page)     -> 1024-entry table
 *   2. PC ^ byte offset (in line)           -> 1024-entry table
 *   3. PC + first-access bit                -> 1024-entry table
 *   4. cache-line offset + first-access bit ->  128-entry table
 *   5. last-4 load PCs (shifted XOR)        -> 1024-entry table
 *
 * The first-access hint comes from a 64-entry page buffer (page tag +
 * 64-bit line bitmap, LRU), updated on every prediction.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "common/lru_table.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "predictor/offchip_pred.hh"

namespace hermes
{

/** POPET feature identifiers (bitmask positions for ablations). */
enum PopetFeature : unsigned
{
    kFeatPcXorLineOffset = 0,
    kFeatPcXorByteOffset = 1,
    kFeatPcFirstAccess = 2,
    kFeatOffsetFirstAccess = 3,
    kFeatLast4LoadPcs = 4,
    kPopetFeatureCount = 5,
};

/** Tunable POPET parameters (paper Table 2 defaults). */
struct PopetParams
{
    int activationThreshold = -18; ///< tau_act
    int trainingThresholdNeg = -35; ///< T_N
    int trainingThresholdPos = 40;  ///< T_P
    /** Also train on mispredictions outside [T_N, T_P]. */
    bool trainOnMispredict = true;
    unsigned weightBits = 5;
    /**
     * Bitmask of enabled features (Fig. 10/11 ablations). When fewer
     * than five features are active, thresholds are scaled
     * proportionally so the decision boundary stays comparable.
     */
    unsigned featureMask = (1u << kPopetFeatureCount) - 1;
    unsigned pageBufferEntries = 64;
};

/** The POPET predictor. */
class Popet : public OffChipPredictor
{
  public:
    explicit Popet(PopetParams params = PopetParams{});

    const char *name() const override { return "popet"; }
    bool predict(Addr pc, Addr vaddr, PredMeta &meta) override;
    void train(Addr pc, Addr vaddr, const PredMeta &meta,
               bool went_off_chip) override;
    std::uint64_t storageBits() const override;

    const PopetParams &params() const { return params_; }

    /** Scaled activation threshold in effect (feature ablations). */
    int effectiveActivation() const { return tauActScaled_; }

    /** Raw weight inspection (tests). */
    int weightAt(unsigned feature, std::uint32_t index) const;

    /** Table sizes per feature (Table 3). */
    static constexpr std::array<std::uint32_t, kPopetFeatureCount>
        kTableSizes = {1024, 1024, 1024, 128, 1024};

    bool checkpointable() const override { return true; }

    /** Checkpoint format is per-table (size + weights) even though the
     * weights live in one arena, so pre-arena checkpoints stay
     * compatible byte for byte. */
    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

  private:
    /**
     * Look up / update the page buffer and return the first-access
     * hint for the line (true = not recently touched).
     */
    bool firstAccessHint(Addr vaddr);

    unsigned activeFeatureCount() const;

    PopetParams params_;
    int tauActScaled_;
    int tnScaled_;
    int tpScaled_;
    /**
     * All five weight tables in one contiguous arena (per-feature base
     * offsets are the running sum of kTableSizes). Keeping the hot dot
     * product inside one allocation lets predict() gather the five
     * weights without chasing per-table vector headers; the checkpoint
     * format still writes per-table slices (see saveState).
     */
    std::vector<std::int8_t> arena_;
    /** 1 for enabled features, 0 for masked-out ones (multiplicative
     * predication: the dot product has no per-feature branches). */
    std::array<std::int32_t, kPopetFeatureCount> featActive_{};
    /** Page tag -> bitmap of the lines touched in it, stamped with
     * pageBufferClock_. */
    LruTable<std::uint64_t> pageBuffer_;
    std::uint64_t pageBufferClock_ = 0;
    std::array<Addr, 4> lastLoadPcs_{};
};

} // namespace hermes
