#pragma once

/**
 * @file
 * Cache replacement policies: LRU (L1/L2), SRRIP, and SHiP (the paper's
 * LLC policy, Table 4). Policies are separate from the cache so tests
 * can exercise them in isolation and caches can swap them by config;
 * each registers under its name ("lru", "srrip", "ship") in the model
 * registry, which is how the "llc.repl" parameter selects one.
 *
 * The concrete classes are declared here (not hidden behind the
 * factory) so the cache can devirtualize the per-access policy
 * callbacks: it recognises these exact classes once, at construction,
 * and then calls them directly, which the compiler turns into plain
 * (inlineable) calls on the L1/L2/LLC hit path.
 */

#include <cstdint>
#include <vector>

#include "cache/mem_iface.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace hermes
{

/**
 * Replacement policy interface. The cache informs the policy of every
 * insertion, hit and eviction; the policy picks victims. Way indices
 * are cache-relative; invalid ways are preferred automatically by the
 * cache itself, so victim() is only consulted when the set is full.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    virtual const char *name() const = 0;

    /** Pick a victim way in a full set. */
    virtual std::uint32_t victim(std::uint32_t set) = 0;

    /** A line was inserted into (set, way). */
    virtual void onInsert(std::uint32_t set, std::uint32_t way, Addr pc,
                          AccessType type) = 0;

    /** A demand access hit (set, way). */
    virtual void onHit(std::uint32_t set, std::uint32_t way, Addr pc,
                       AccessType type) = 0;

    /** The line at (set, way) is being evicted. */
    virtual void onEvict(std::uint32_t set, std::uint32_t way) = 0;

    /** Metadata storage in bits (for the storage report). */
    virtual std::uint64_t storageBits() const = 0;

    /**
     * Warmup checkpoint hooks. A policy that does not opt in simply
     * disables checkpointing for its cache (never a wrong checkpoint).
     */
    virtual bool checkpointable() const { return false; }
    virtual void saveState(StateWriter &) const {}
    virtual void loadState(StateReader &) {}
};

/** Classic least-recently-used via per-line access timestamps. */
class LruPolicy final : public ReplacementPolicy
{
  public:
    LruPolicy(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), stamp_(static_cast<std::size_t>(sets) * ways, 0)
    {
    }

    const char *name() const override { return "lru"; }

    std::uint32_t
    victim(std::uint32_t set) override
    {
        const std::size_t base = static_cast<std::size_t>(set) * ways_;
        std::uint32_t victim_way = 0;
        std::uint64_t oldest = stamp_[base];
        for (std::uint32_t w = 1; w < ways_; ++w) {
            if (stamp_[base + w] < oldest) {
                oldest = stamp_[base + w];
                victim_way = w;
            }
        }
        return victim_way;
    }

    void
    onInsert(std::uint32_t set, std::uint32_t way, Addr, AccessType) override
    {
        touch(set, way);
    }

    void
    onHit(std::uint32_t set, std::uint32_t way, Addr, AccessType) override
    {
        touch(set, way);
    }

    void onEvict(std::uint32_t, std::uint32_t) override {}

    std::uint64_t
    storageBits() const override
    {
        // A real LRU stack needs log2(ways) bits per line.
        std::uint32_t bits = 0;
        while ((1u << bits) < ways_)
            ++bits;
        return static_cast<std::uint64_t>(stamp_.size()) * bits;
    }

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &w) const override
    {
        w.section("RLRU");
        w.u64(clock_);
        w.u64(stamp_.size());
        for (std::uint64_t s : stamp_)
            w.u64(s);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("RLRU");
        clock_ = r.u64();
        if (r.u64() != stamp_.size())
            throw StateError("lru stamp array size mismatch");
        for (std::uint64_t &s : stamp_)
            s = r.u64();
    }

  private:
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        stamp_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
    }

    std::uint32_t ways_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamp_;
};

/** Static re-reference interval prediction (2-bit RRPV). */
class SrripPolicy : public ReplacementPolicy
{
  public:
    SrripPolicy(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways),
          rrpv_(static_cast<std::size_t>(sets) * ways, kMaxRrpv)
    {
    }

    const char *name() const override { return "srrip"; }

    std::uint32_t
    victim(std::uint32_t set) override
    {
        const std::size_t base = static_cast<std::size_t>(set) * ways_;
        for (;;) {
            for (std::uint32_t w = 0; w < ways_; ++w)
                if (rrpv_[base + w] == kMaxRrpv)
                    return w;
            for (std::uint32_t w = 0; w < ways_; ++w)
                ++rrpv_[base + w];
        }
    }

    void
    onInsert(std::uint32_t set, std::uint32_t way, Addr, AccessType) override
    {
        rrpv_[static_cast<std::size_t>(set) * ways_ + way] = kMaxRrpv - 1;
    }

    void
    onHit(std::uint32_t set, std::uint32_t way, Addr, AccessType) override
    {
        rrpv_[static_cast<std::size_t>(set) * ways_ + way] = 0;
    }

    void onEvict(std::uint32_t, std::uint32_t) override {}

    std::uint64_t
    storageBits() const override
    {
        return static_cast<std::uint64_t>(rrpv_.size()) * 2;
    }

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &w) const override
    {
        w.section("RSRP");
        saveRrpv(w);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("RSRP");
        loadRrpv(r);
    }

  protected:
    static constexpr std::uint8_t kMaxRrpv = 3;

    void
    saveRrpv(StateWriter &w) const
    {
        w.u64(rrpv_.size());
        for (std::uint8_t v : rrpv_)
            w.u8(v);
    }

    void
    loadRrpv(StateReader &r)
    {
        if (r.u64() != rrpv_.size())
            throw StateError("rrip rrpv array size mismatch");
        for (std::uint8_t &v : rrpv_)
            v = r.u8();
    }

    std::uint32_t ways_;
    std::vector<std::uint8_t> rrpv_;
};

/**
 * SHiP (signature-based hit predictor, Wu et al. MICRO'11): RRIP
 * insertion steered by a PC-signature reuse table (SHCT). Lines that
 * historically see no reuse are inserted at distant RRPV.
 */
class ShipPolicy final : public SrripPolicy
{
  public:
    ShipPolicy(std::uint32_t sets, std::uint32_t ways)
        : SrripPolicy(sets, ways),
          sig_(static_cast<std::size_t>(sets) * ways, 0),
          reused_(static_cast<std::size_t>(sets) * ways, false),
          shct_(kShctSize, 1)
    {
    }

    const char *name() const override { return "ship"; }

    void
    onInsert(std::uint32_t set, std::uint32_t way, Addr pc,
             AccessType type) override
    {
        const std::size_t i = static_cast<std::size_t>(set) * ways_ + way;
        sig_[i] = signature(pc);
        reused_[i] = false;
        // Prefetch fills and PCs with a no-reuse history go in at the
        // most distant re-reference interval.
        const bool distant =
            type == AccessType::Prefetch || shct_[sig_[i]] == 0;
        rrpv_[i] = distant ? kMaxRrpv : kMaxRrpv - 1;
    }

    void
    onHit(std::uint32_t set, std::uint32_t way, Addr, AccessType) override
    {
        const std::size_t i = static_cast<std::size_t>(set) * ways_ + way;
        rrpv_[i] = 0;
        if (!reused_[i]) {
            reused_[i] = true;
            if (shct_[sig_[i]] < kShctMax)
                ++shct_[sig_[i]];
        }
    }

    void
    onEvict(std::uint32_t set, std::uint32_t way) override
    {
        const std::size_t i = static_cast<std::size_t>(set) * ways_ + way;
        if (!reused_[i] && shct_[sig_[i]] > 0)
            --shct_[sig_[i]];
    }

    std::uint64_t
    storageBits() const override
    {
        return SrripPolicy::storageBits() +
               static_cast<std::uint64_t>(sig_.size()) * 14 + // signature
               static_cast<std::uint64_t>(reused_.size()) +   // outcome bit
               static_cast<std::uint64_t>(shct_.size()) * 2;  // SHCT
    }

    void
    saveState(StateWriter &w) const override
    {
        w.section("RSHP");
        saveRrpv(w);
        w.u64(sig_.size());
        for (std::uint16_t s : sig_)
            w.u16(s);
        w.u64(reused_.size());
        for (std::size_t i = 0; i < reused_.size(); ++i)
            w.b(reused_[i]);
        w.u64(shct_.size());
        for (std::uint8_t c : shct_)
            w.u8(c);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("RSHP");
        loadRrpv(r);
        if (r.u64() != sig_.size())
            throw StateError("ship signature array size mismatch");
        for (std::uint16_t &s : sig_)
            s = r.u16();
        if (r.u64() != reused_.size())
            throw StateError("ship reuse-bit array size mismatch");
        for (std::size_t i = 0; i < reused_.size(); ++i)
            reused_[i] = r.b();
        if (r.u64() != shct_.size())
            throw StateError("ship shct size mismatch");
        for (std::uint8_t &c : shct_)
            c = r.u8();
    }

  private:
    static constexpr std::uint32_t kShctSize = 16384;
    static constexpr std::uint8_t kShctMax = 3;

    static std::uint16_t
    signature(Addr pc)
    {
        return static_cast<std::uint16_t>(((pc >> 2) ^ (pc >> 16)) &
                                          (kShctSize - 1));
    }

    std::vector<std::uint16_t> sig_;
    std::vector<bool> reused_;
    std::vector<std::uint8_t> shct_;
};

} // namespace hermes
