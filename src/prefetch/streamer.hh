#pragma once

/**
 * @file
 * Simple per-page stream prefetcher: detects a monotonic direction
 * within a 4KB page and runs ahead by a configurable degree. Used as a
 * sanity baseline and in unit tests; not part of the paper's Table 6
 * set.
 */

#include <cstdint>
#include <vector>

#include "common/lru_table.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"

namespace hermes
{

/** Stream prefetcher parameters. */
struct StreamerParams
{
    std::uint32_t entries = 64;
    unsigned degree = 8;
    unsigned confidenceThreshold = 2;
};

/** Per-page stream detector. */
class Streamer : public Prefetcher
{
  public:
    explicit Streamer(StreamerParams params = StreamerParams{});

    const char *name() const override { return "streamer"; }
    void onAccess(Addr addr, Addr pc, bool hit,
                  std::vector<Addr> &out_lines) override;
    std::uint64_t storageBits() const override;

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &w) const override
    {
        w.section("STRM");
        w.u64(table_.size());
        for (std::uint32_t i = 0; i < table_.size(); ++i) {
            w.u64(table_.tag(i));
            w.i32(table_[i].lastOffset);
            w.i32(table_[i].direction);
            w.u32(table_[i].confidence);
            w.u64(table_.stamp(i));
            w.b(table_.valid(i));
        }
        w.u64(clock_);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("STRM");
        if (r.u64() != table_.size())
            throw StateError("streamer table size mismatch");
        std::vector<LruSlotState> pages(table_.size());
        for (std::uint32_t i = 0; i < table_.size(); ++i) {
            pages[i].tag = r.u64();
            table_[i].lastOffset = r.i32();
            table_[i].direction = r.i32();
            table_[i].confidence = r.u32();
            pages[i].stamp = r.u64();
            pages[i].valid = r.b();
        }
        clock_ = r.u64();
        table_.restore(pages, clock_, "streamer table");
    }

  private:
    /** Stream state, per page. */
    struct Entry
    {
        int lastOffset = 0;
        int direction = 0;
        unsigned confidence = 0;
    };

    StreamerParams params_;
    /** Page -> stream state, stamped with clock_. */
    LruTable<Entry> table_;
    std::uint64_t clock_ = 0;
};

} // namespace hermes
