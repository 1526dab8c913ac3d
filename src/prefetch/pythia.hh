#pragma once

/**
 * @file
 * Pythia: the reinforcement-learning prefetching framework of Bera et
 * al. (MICRO'21), the paper's baseline prefetcher (Table 4). Pythia
 * formulates prefetching as a contextual decision: a *state* is a
 * vector of program features, *actions* are prefetch offsets, and a
 * *reward* scores the usefulness of the prefetch after the fact.
 *
 * This implementation keeps Pythia's architecture — a QVStore holding
 * per-feature Q-value tables (hashed like a perceptron), an evaluation
 * queue (EQ) that defers reward assignment until the outcome is known,
 * epsilon-greedy exploration — with one documented simplification: the
 * temporal-difference bootstrap term uses a one-step lookup with a
 * small discount rather than the full SARSA pipeline.
 *
 * Features (the two-feature configuration the Pythia paper selects):
 *   phi1 = PC (+) last delta, phi2 = sequence of last-4 offsets.
 * Storage budget follows Table 6 (25.5KB).
 */

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/lru_table.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"

namespace hermes
{

/** Pythia parameters. */
struct PythiaParams
{
    std::uint32_t tableEntries = 1024; ///< Per feature
    double alpha = 0.25;   ///< Learning rate
    double gamma = 0.0;    ///< Discount for the (optional) bootstrap term
    double epsilon = 0.002; ///< Exploration probability
    int rewardAccurate = 20;      ///< Accurate and timely (R_AT)
    int rewardAccurateLate = 12;  ///< Accurate but late (R_AL)
    int rewardInaccurate = -14;
    int rewardNoPrefetch = -2;
    std::uint32_t eqSize = 256;
    std::uint64_t seed = 7;
};

/** RL-based prefetcher. */
class Pythia : public Prefetcher
{
  public:
    explicit Pythia(PythiaParams params = PythiaParams{});

    const char *name() const override { return "pythia"; }
    void onAccess(Addr addr, Addr pc, bool hit,
                  std::vector<Addr> &out_lines) override;
    void onPrefetchUseful(Addr line, Addr pc) override;
    void onPrefetchLate(Addr line, Addr pc) override;
    std::uint64_t storageBits() const override;

    /** The action (offset) set; index 0 is "no prefetch". */
    static const std::array<int, 16> kActions;

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &w) const override
    {
        w.section("PYTH");
        const Rng::State rs = rng_.state();
        w.u64(rs.s0);
        w.u64(rs.s1);
        w.u64(table1_.size());
        for (const auto &row : table1_)
            for (float q : row)
                w.f32(q);
        w.u64(table2_.size());
        for (const auto &row : table2_)
            for (float q : row)
                w.f32(q);
        w.u64(eq_.size());
        for (const EqEntry &e : eq_) {
            w.u64(e.line);
            w.u32(e.phi1);
            w.u32(e.phi2);
            w.u32(e.action);
            w.b(e.rewarded);
        }
        for (std::uint32_t i = 0; i < kPageCtxEntries; ++i) {
            w.u64(pages_.tag(i));
            w.i32(pages_[i]);
            w.u64(pages_.stamp(i));
        }
        w.u32(pages_.invalidSlots());
        w.u64(pageClock_);
        w.u64(lastLine_);
        for (std::uint8_t o : lastOffsets_)
            w.u8(o);
        w.u32(lastPhi1_);
        w.u32(lastPhi2_);
        w.b(havePrev_);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("PYTH");
        Rng::State rs;
        rs.s0 = r.u64();
        rs.s1 = r.u64();
        rng_.setState(rs);
        if (r.u64() != table1_.size())
            throw StateError("pythia qvstore table1 size mismatch");
        for (auto &row : table1_)
            for (float &q : row)
                q = r.f32();
        if (r.u64() != table2_.size())
            throw StateError("pythia qvstore table2 size mismatch");
        for (auto &row : table2_)
            for (float &q : row)
                q = r.f32();
        eq_.clear();
        eqByLine_.clear();
        eqBaseSeq_ = 0;
        const std::size_t nEq = r.count(1u << 20);
        for (std::size_t i = 0; i < nEq; ++i) {
            EqEntry e;
            e.line = r.u64();
            e.phi1 = r.u32();
            e.phi2 = r.u32();
            e.action = r.u32();
            e.rewarded = r.b();
            // The per-line chains are derived state (they thread the
            // unrewarded entries only); rebuild them as we go.
            if (!e.rewarded)
                eqChainLink(e, eqBaseSeq_ + eq_.size());
            eq_.push_back(e);
        }
        std::vector<LruSlotState> pages(kPageCtxEntries);
        for (std::uint32_t i = 0; i < kPageCtxEntries; ++i) {
            pages[i].tag = r.u64();
            pages_[i] = r.i32();
            pages[i].stamp = r.u64();
        }
        const std::uint32_t invalid = r.u32();
        if (invalid > kPageCtxEntries)
            throw StateError("pythia page context fill count out of range");
        for (std::uint32_t i = invalid; i < kPageCtxEntries; ++i)
            pages[i].valid = true;
        pageClock_ = r.u64();
        pages_.restore(pages, pageClock_, "pythia page contexts");
        lastLine_ = r.u64();
        for (std::uint8_t &o : lastOffsets_)
            o = r.u8();
        lastPhi1_ = r.u32();
        lastPhi2_ = r.u32();
        havePrev_ = r.b();
    }

  private:
    struct EqEntry
    {
        Addr line = 0;      ///< Prefetched line (0 for no-prefetch)
        std::uint32_t phi1 = 0;
        std::uint32_t phi2 = 0;
        unsigned action = 0;
        bool rewarded = false;
        /** Derived (not checkpointed): seq of the next unrewarded EQ
         * entry with the same line, kNoSeq at the chain tail. */
        std::uint64_t nextSameLine = kNoSeq;
    };

    /** Head/tail seqs of one per-line chain of unrewarded entries. */
    struct EqChain
    {
        std::uint64_t head;
        std::uint64_t tail;
    };

    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    double qValue(std::uint32_t phi1, std::uint32_t phi2,
                  unsigned action) const;
    void updateQ(std::uint32_t phi1, std::uint32_t phi2, unsigned action,
                 double target);
    unsigned selectAction(std::uint32_t phi1, std::uint32_t phi2);
    void assignReward(EqEntry &e, int reward);
    void retireEqOverflow();

    /** Append an entry (about to sit at `seq`) to its line's chain. */
    void eqChainLink(EqEntry &e, std::uint64_t seq);
    /** Reward the oldest unrewarded EQ entry for `line`, if any. */
    void rewardLine(Addr line, int reward);

    PythiaParams params_;
    Rng rng_;
    /** QVStore: per-feature tables of Q-values, one row per action. */
    std::vector<std::array<float, 16>> table1_;
    std::vector<std::array<float, 16>> table2_;
    std::deque<EqEntry> eq_;
    /** Seq number of eq_.front(); eq_[i] has seq eqBaseSeq_ + i. */
    std::uint64_t eqBaseSeq_ = 0;
    /**
     * line -> chain of unrewarded EQ entries with that line, oldest
     * first (threaded through EqEntry::nextSameLine). Entries leave a
     * chain only at its head — rewards always hit the oldest match and
     * overflow pops the globally oldest entry — so lookups are O(1)
     * where onPrefetchUseful/Late used to scan the whole EQ.
     */
    std::unordered_map<Addr, EqChain> eqByLine_;

    static constexpr std::uint32_t kPageCtxEntries = 64;

    /** Page-local last offset, so interleaved streams keep clean
     * deltas (Pythia derives its delta feature from page context). */
    int pageLocalDelta(Addr line);

    /** Page -> last line offset touched in it, stamped with
     * pageClock_. */
    LruTable<int> pages_{kPageCtxEntries};
    std::uint64_t pageClock_ = 0;
    Addr lastLine_ = 0;
    std::array<std::uint8_t, 4> lastOffsets_{};
    std::uint32_t lastPhi1_ = 0;
    std::uint32_t lastPhi2_ = 0;
    bool havePrev_ = false;
};

} // namespace hermes
