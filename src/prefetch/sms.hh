#pragma once

/**
 * @file
 * SMS: Spatial Memory Streaming (Somogyi et al., ISCA'06). Spatial
 * generations over 2KB regions are accumulated in an active generation
 * table; when a generation ends (its table entry is replaced), the
 * footprint is stored in a pattern history table keyed by the trigger's
 * (PC, region offset). A later trigger with the same signature streams
 * the recorded footprint (Table 6 budget: 20KB).
 */

#include <cstdint>
#include <vector>

#include "common/lru_table.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"

namespace hermes
{

/** SMS parameters. */
struct SmsParams
{
    unsigned regionBytes = 2048;
    std::uint32_t agtEntries = 64;
    std::uint32_t phtSets = 256;
    unsigned phtWays = 8;
    unsigned maxPrefetchPerTrigger = 16;
};

/** Spatial memory streaming prefetcher. */
class Sms : public Prefetcher
{
  public:
    explicit Sms(SmsParams params = SmsParams{});

    const char *name() const override { return "sms"; }
    void onAccess(Addr addr, Addr pc, bool hit,
                  std::vector<Addr> &out_lines) override;
    std::uint64_t storageBits() const override;

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &w) const override
    {
        w.section("SMSP");
        w.u64(agt_.size());
        for (std::uint32_t i = 0; i < agt_.size(); ++i) {
            w.u64(agt_.tag(i));
            w.u32(agt_[i].signature);
            w.u64(agt_[i].footprint);
            w.u64(agt_.stamp(i));
            w.b(agt_.valid(i));
        }
        w.u64(pht_.size());
        for (const PhtEntry &e : pht_) {
            w.u32(e.signature);
            w.u64(e.footprint);
            w.u64(e.lastUse);
            w.b(e.valid);
        }
        w.u64(clock_);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("SMSP");
        if (r.u64() != agt_.size())
            throw StateError("sms active generation table size mismatch");
        std::vector<LruSlotState> agt(agt_.size());
        for (std::uint32_t i = 0; i < agt_.size(); ++i) {
            agt[i].tag = r.u64();
            agt_[i].signature = r.u32();
            agt_[i].footprint = r.u64();
            agt[i].stamp = r.u64();
            agt[i].valid = r.b();
        }
        if (r.u64() != pht_.size())
            throw StateError("sms pattern history table size mismatch");
        for (PhtEntry &e : pht_) {
            e.signature = r.u32();
            e.footprint = r.u64();
            e.lastUse = r.u64();
            e.valid = r.b();
        }
        clock_ = r.u64();
        agt_.restore(agt, clock_, "sms active generation table");
    }

  private:
    /** Active generation table payload, per region. */
    struct AgtEntry
    {
        std::uint32_t signature = 0;
        std::uint64_t footprint = 0;
    };

    struct PhtEntry
    {
        std::uint32_t signature = 0;
        std::uint64_t footprint = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned linesPerRegion() const { return params_.regionBytes / kBlockSize; }
    std::uint32_t signature(Addr pc, unsigned offset) const;
    void commit(const AgtEntry &e);

    SmsParams params_;
    /** Region -> generation being accumulated, stamped with clock_. */
    LruTable<AgtEntry> agt_;
    std::vector<PhtEntry> pht_;
    std::uint64_t clock_ = 0;
};

} // namespace hermes
