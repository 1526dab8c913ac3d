#pragma once

/**
 * @file
 * SPP: the Signature Path Prefetcher (Kim et al., MICRO'16) with the
 * perceptron prefetch filter of Bhatia et al. (ISCA'19), matching the
 * paper's "SPP (with perceptron filter)" configuration (Table 6,
 * 39.3KB).
 *
 * Structures:
 *  - Signature Table (ST): per-page last offset + 12-bit compressed
 *    delta-history signature;
 *  - Pattern Table (PT): signature -> up to 4 {delta, confidence}
 *    candidates plus a signature occurrence count;
 *  - lookahead: follow the highest-confidence delta path, multiplying
 *    path confidence until it falls below a threshold;
 *  - PPF: a small hashed perceptron over (PC, signature, delta) that
 *    vetoes low-quality candidate prefetches and is trained by
 *    useful/useless feedback from the cache.
 */

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/lru_table.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"

namespace hermes
{

/** SPP + PPF parameters. */
struct SppParams
{
    std::uint32_t stEntries = 256;
    std::uint32_t ptEntries = 2048;
    double lookaheadThreshold = 0.30;
    unsigned maxLookahead = 12;
    int ppfThreshold = 0;          ///< Accept when sum >= threshold
    std::uint32_t ppfTableSize = 1024;
};

/** Signature Path Prefetcher with perceptron filter. */
class Spp : public Prefetcher
{
  public:
    explicit Spp(SppParams params = SppParams{});

    const char *name() const override { return "spp"; }
    void onAccess(Addr addr, Addr pc, bool hit,
                  std::vector<Addr> &out_lines) override;
    void onPrefetchUseful(Addr line, Addr pc) override;
    void onPrefetchUseless(Addr line) override;
    std::uint64_t storageBits() const override;

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &w) const override
    {
        w.section("SPPF");
        w.u64(st_.size());
        for (std::uint32_t i = 0; i < st_.size(); ++i) {
            w.u64(st_.tag(i));
            w.i32(st_[i].lastOffset);
            w.u16(st_[i].signature);
            w.u64(st_.stamp(i));
            w.b(st_.valid(i));
        }
        w.u64(pt_.size());
        for (const PtEntry &e : pt_) {
            for (const PtSlot &s : e.slots) {
                w.i8(s.delta);
                w.u8(s.confidence);
            }
            w.u8(e.sigCount);
        }
        for (const auto &table : ppf_) {
            w.u64(table.size());
            for (std::int8_t v : table)
                w.i8(v);
        }
        // Hash-map iteration order is unspecified: emit sorted by line
        // so the byte stream is deterministic.
        std::vector<Addr> lines;
        lines.reserve(inflight_.size());
        for (const auto &kv : inflight_)
            lines.push_back(kv.first);
        std::sort(lines.begin(), lines.end());
        w.u64(lines.size());
        for (Addr line : lines) {
            const PpfRecord &rec = inflight_.at(line);
            w.u64(line);
            for (std::uint32_t idx : rec.idx)
                w.u32(idx);
        }
        w.u64(clock_);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("SPPF");
        if (r.u64() != st_.size())
            throw StateError("spp signature table size mismatch");
        std::vector<LruSlotState> st(st_.size());
        for (std::uint32_t i = 0; i < st_.size(); ++i) {
            st[i].tag = r.u64();
            st_[i].lastOffset = r.i32();
            st_[i].signature = r.u16();
            st[i].stamp = r.u64();
            st[i].valid = r.b();
        }
        if (r.u64() != pt_.size())
            throw StateError("spp pattern table size mismatch");
        for (PtEntry &e : pt_) {
            for (PtSlot &s : e.slots) {
                s.delta = r.i8();
                s.confidence = r.u8();
            }
            e.sigCount = r.u8();
        }
        for (auto &table : ppf_) {
            if (r.u64() != table.size())
                throw StateError("spp ppf table size mismatch");
            for (std::int8_t &v : table)
                v = r.i8();
        }
        inflight_.clear();
        const std::size_t n = r.count(1u << 24);
        for (std::size_t i = 0; i < n; ++i) {
            const Addr line = r.u64();
            PpfRecord rec;
            for (std::uint32_t &idx : rec.idx)
                idx = r.u32();
            inflight_.emplace(line, rec);
        }
        clock_ = r.u64();
        st_.restore(st, clock_, "spp signature table");
    }

  private:
    /** Signature table payload, per page. */
    struct StEntry
    {
        int lastOffset = 0;
        std::uint16_t signature = 0;
    };

    struct PtSlot
    {
        std::int8_t delta = 0;
        std::uint8_t confidence = 0;
    };

    struct PtEntry
    {
        PtSlot slots[4];
        std::uint8_t sigCount = 0;
    };

    /** PPF bookkeeping for an in-flight prefetch. */
    struct PpfRecord
    {
        std::uint32_t idx[3];
    };

    static std::uint16_t advanceSignature(std::uint16_t sig, int delta);
    void trainPt(std::uint16_t sig, int delta);
    int ppfSum(Addr pc, std::uint16_t sig, int delta,
               PpfRecord &rec) const;

    SppParams params_;
    /** Page -> signature-table entry, stamped with clock_. */
    LruTable<StEntry> st_;
    std::vector<PtEntry> pt_;
    std::vector<std::int8_t> ppf_[3];
    /** In-flight prefetched line -> PPF indices (for feedback). */
    std::unordered_map<Addr, PpfRecord> inflight_;
    std::uint64_t clock_ = 0;
};

} // namespace hermes
