#pragma once

/**
 * @file
 * MLOP: Multi-Lookahead Offset Prefetching (Shakerinava et al., DPC-3
 * 2019). Candidate offsets are scored against an access map of
 * recently-touched lines; instead of a single best offset (BOP), MLOP
 * maintains one best offset per lookahead level, prefetching several
 * offsets at once. This implementation keeps the structure of the
 * original — per-zone access maps, an evaluation round over candidate
 * offsets, per-level selection — with a simplified timing of rounds.
 */

#include <cstdint>
#include <vector>

#include "common/lru_table.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"

namespace hermes
{

/** MLOP parameters. */
struct MlopParams
{
    std::uint32_t mapEntries = 128; ///< Tracked 4KB zones
    int maxOffset = 31;             ///< Candidate offsets in [-max, max]
    unsigned levels = 3;            ///< Lookahead levels = live offsets
    unsigned roundLength = 256;     ///< Accesses per evaluation round
    unsigned scoreThreshold = 24;   ///< Min score to activate an offset
};

/** Multi-lookahead offset prefetcher. */
class Mlop : public Prefetcher
{
  public:
    explicit Mlop(MlopParams params = MlopParams{});

    const char *name() const override { return "mlop"; }
    void onAccess(Addr addr, Addr pc, bool hit,
                  std::vector<Addr> &out_lines) override;
    std::uint64_t storageBits() const override;

    /** Currently active offsets (testing hook). */
    const std::vector<int> &activeOffsets() const { return active_; }

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &w) const override
    {
        w.section("MLOP");
        w.u64(zones_.size());
        for (std::uint32_t i = 0; i < zones_.size(); ++i) {
            w.u64(zones_.tag(i));
            w.u64(zones_[i]);
            w.u64(zones_.stamp(i));
            w.b(zones_.valid(i));
        }
        w.u64(scores_.size());
        for (std::uint32_t v : scores_)
            w.u32(v);
        w.u64(active_.size());
        for (int v : active_)
            w.i32(v);
        w.u32(accessesThisRound_);
        w.u64(clock_);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("MLOP");
        if (r.u64() != zones_.size())
            throw StateError("mlop zone table size mismatch");
        std::vector<LruSlotState> zones(zones_.size());
        for (std::uint32_t i = 0; i < zones_.size(); ++i) {
            zones[i].tag = r.u64();
            zones_[i] = r.u64();
            zones[i].stamp = r.u64();
            zones[i].valid = r.b();
        }
        if (r.u64() != scores_.size())
            throw StateError("mlop score table size mismatch");
        for (std::uint32_t &v : scores_)
            v = r.u32();
        active_.assign(r.count(1u << 16), 0);
        for (int &v : active_)
            v = r.i32();
        accessesThisRound_ = r.u32();
        clock_ = r.u64();
        zones_.restore(zones, clock_, "mlop zone table");
    }

  private:
    /** Was (line) recently accessed according to the maps? */
    bool wasAccessed(Addr line) const;
    void finishRound();

    MlopParams params_;
    /** 4KB zone number -> bitmap of the lines accessed in it this
     * round, stamped with clock_. */
    LruTable<std::uint64_t> zones_;
    std::vector<int> candidateOffsets_;
    std::vector<std::uint32_t> scores_;
    std::vector<int> active_;
    unsigned accessesThisRound_ = 0;
    std::uint64_t clock_ = 0;
};

} // namespace hermes
