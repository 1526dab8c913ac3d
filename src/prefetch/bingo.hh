#pragma once

/**
 * @file
 * Bingo spatial prefetcher (Bakhshalipour et al., HPCA'19): learns the
 * footprints of 2KB regions and replays them when a region is
 * re-triggered, using a "PC+Address" event for high precision with a
 * "PC+Offset" fallback for generalisation — both stored in one history
 * table as in the original design (Table 6 budget: 46KB).
 */

#include <cstdint>
#include <vector>

#include "common/lru_table.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"

namespace hermes
{

/** Bingo parameters. */
struct BingoParams
{
    unsigned regionBytes = 2048;
    std::uint32_t accumEntries = 64;
    std::uint32_t historySets = 512;
    unsigned historyWays = 8;
    unsigned maxPrefetchPerTrigger = 16;
};

/** Footprint-replay spatial prefetcher. */
class Bingo : public Prefetcher
{
  public:
    explicit Bingo(BingoParams params = BingoParams{});

    const char *name() const override { return "bingo"; }
    void onAccess(Addr addr, Addr pc, bool hit,
                  std::vector<Addr> &out_lines) override;
    std::uint64_t storageBits() const override;

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &w) const override
    {
        w.section("BNGO");
        w.u64(accum_.size());
        for (std::uint32_t i = 0; i < accum_.size(); ++i) {
            w.u64(accum_.tag(i));
            w.u64(accum_[i].triggerPc);
            w.u32(accum_[i].triggerOffset);
            w.u64(accum_[i].footprint);
            w.u64(accum_.stamp(i));
            w.b(accum_.valid(i));
        }
        w.u64(history_.size());
        for (const HistEntry &e : history_) {
            w.u64(e.keyAddr);
            w.u32(e.keyOffset);
            w.u64(e.footprint);
            w.u64(e.lastUse);
            w.b(e.valid);
        }
        w.u64(clock_);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("BNGO");
        if (r.u64() != accum_.size())
            throw StateError("bingo accumulation table size mismatch");
        std::vector<LruSlotState> accum(accum_.size());
        for (std::uint32_t i = 0; i < accum_.size(); ++i) {
            accum[i].tag = r.u64();
            accum_[i].triggerPc = r.u64();
            accum_[i].triggerOffset = r.u32();
            accum_[i].footprint = r.u64();
            accum[i].stamp = r.u64();
            accum[i].valid = r.b();
        }
        if (r.u64() != history_.size())
            throw StateError("bingo history table size mismatch");
        for (HistEntry &e : history_) {
            e.keyAddr = r.u64();
            e.keyOffset = r.u32();
            e.footprint = r.u64();
            e.lastUse = r.u64();
            e.valid = r.b();
        }
        clock_ = r.u64();
        accum_.restore(accum, clock_, "bingo accumulation table");
    }

  private:
    /** Accumulation table payload, per region. */
    struct AccumEntry
    {
        Addr triggerPc = 0;
        unsigned triggerOffset = 0;
        std::uint64_t footprint = 0;
    };

    struct HistEntry
    {
        std::uint64_t keyAddr = 0;   ///< PC+Address key
        std::uint32_t keyOffset = 0; ///< PC+Offset key
        std::uint64_t footprint = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned linesPerRegion() const { return params_.regionBytes / kBlockSize; }
    Addr regionOf(Addr addr) const { return addr / params_.regionBytes; }
    unsigned offsetInRegion(Addr addr) const;
    std::uint64_t keyAddr(Addr pc, Addr region, unsigned offset) const;
    std::uint32_t keyOffset(Addr pc, unsigned offset) const;
    void commitToHistory(Addr region, const AccumEntry &e);
    /** Predict footprint for a trigger; 0 when unknown. */
    std::uint64_t lookupHistory(Addr pc, Addr region, unsigned offset);

    BingoParams params_;
    /** Region -> footprint being accumulated, stamped with clock_. */
    LruTable<AccumEntry> accum_;
    std::vector<HistEntry> history_;
    std::uint64_t clock_ = 0;
};

} // namespace hermes
