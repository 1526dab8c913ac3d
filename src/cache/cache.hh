#pragma once

/**
 * @file
 * Set-associative, write-back, write-allocate cache with MSHRs, modelled
 * in the style of ChampSim: per-cache read/write/prefetch queues, a
 * fixed tag-lookup latency, miss forwarding to the next-lower level and
 * fill propagation back up. The LLC additionally hosts the hardware
 * prefetcher and exposes fill/eviction hooks used by the TTP off-chip
 * predictor and by the power model.
 *
 * Latencies are *incremental*: with L1=5, L2=10, LLC=40 a demand load
 * that hits the LLC observes the paper's 55-cycle round trip (Table 4).
 *
 * Simplification: write queues accept unconditionally (soft-bounded)
 * to avoid writeback-deadlock plumbing; an overflow statistic records
 * pressure instead.
 *
 * Hot-path layout (this cache is looked up for every simulated memory
 * access, so the data structures are shaped for throughput):
 *  - tags live in one contiguous per-set array scanned directly (an
 *    invalid way holds a sentinel tag that cannot match); per-line
 *    dirty/prefetched bits sit in a parallel flags array touched only
 *    on hits and fills;
 *  - in-flight misses are found through an open-addressed line->MSHR
 *    index (AddrIndex) instead of a linear MSHR scan; free and unsent
 *    MSHR slots are tracked in bitmasks so allocation and retry visit
 *    only live slots, in slot order;
 *  - the request queues are power-of-two ring buffers (Ring<>);
 *  - replacement callbacks are devirtualized: the cache recognises the
 *    built-in policy classes once, at construction, and calls them
 *    directly (any other policy dispatches virtually);
 *  - tick() returns immediately when all queues are empty and no MSHR
 *    is waiting to be forwarded, which is the common case for upper
 *    levels in low-MPKI phases.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/mem_iface.hh"
#include "cache/replacement.hh"
#include "common/addr_index.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"

namespace hermes
{

/** Geometry, timing and queueing parameters of one cache. */
struct CacheParams
{
    std::string name = "cache";
    MemLevel level = MemLevel::L1;
    std::uint32_t sets = 64;
    std::uint32_t ways = 12;
    /** Incremental tag+data lookup latency in core cycles. */
    Cycle latency = 5;
    std::uint32_t mshrs = 16;
    std::uint32_t rqSize = 32;
    std::uint32_t pqSize = 32;
    /** Max tag lookups per cycle per queue class. */
    std::uint32_t lookupsPerCycle = 4;

    std::uint64_t sizeBytes() const
    {
        return static_cast<std::uint64_t>(sets) * ways * kBlockSize;
    }
};

/** Per-cache counters. */
struct CacheStats
{
    std::uint64_t loadLookups = 0;
    std::uint64_t loadHits = 0;
    std::uint64_t rfoLookups = 0;
    std::uint64_t rfoHits = 0;
    std::uint64_t writebackLookups = 0;
    std::uint64_t writebackHits = 0;
    std::uint64_t prefetchLookups = 0; ///< Own-prefetch candidates probed
    std::uint64_t prefetchDropped = 0; ///< Candidates already present
    std::uint64_t prefetchIssued = 0;  ///< Forwarded to the lower level
    std::uint64_t mshrMerges = 0;
    std::uint64_t mshrLatePrefetchHits = 0; ///< Demand merged into pf MSHR
    std::uint64_t fills = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t usefulPrefetches = 0;
    std::uint64_t uselessPrefetches = 0;
    std::uint64_t rqRejects = 0;

    std::uint64_t demandLookups() const { return loadLookups + rfoLookups; }
    std::uint64_t demandHits() const { return loadHits + rfoHits; }
    std::uint64_t
    demandMisses() const
    {
        return demandLookups() - demandHits();
    }
};

/**
 * One cache level. Implements MemDevice (requests from above) and
 * MemClient (fills from below).
 */
class Cache final : public MemDevice, public MemClient
{
  public:
    /**
     * @p repl is the replacement policy for this geometry (System
     * builds the LLC's from the model registry by name); null means
     * LRU, the L1/L2 policy.
     */
    explicit Cache(CacheParams params,
                   std::unique_ptr<ReplacementPolicy> repl = nullptr);

    /** Wire the next-lower memory device (cache or DRAM controller). */
    void setLower(MemDevice *lower) { lower_ = lower; }

    /**
     * Wire the response receiver for requests from @p core_id. Private
     * caches use core_id 0; the shared LLC registers one per core.
     */
    void setUpper(int core_id, MemClient *upper);

    /** Attach the hardware prefetcher (LLC only; non-owning). */
    void setPrefetcher(Prefetcher *pf) { prefetcher_ = pf; }

    // MemDevice
    bool addRead(const MemRequest &req) override;
    bool addWrite(const MemRequest &req) override;

    /** Advance one cycle. Inline: ticked every core cycle, and for
     * upper levels in low-MPKI phases every queue is usually empty. */
    void
    tick(Cycle now) override
    {
        now_ = now;
        if (unsentMshrs_ != 0)
            retryUnsentMshrs();
        // Each sweep is a pure no-op until its queue front's deadline
        // (the earliest in the queue — see nextEventCycle) arrives, so
        // gate the out-of-line calls on it.
        if (!wq_.empty() && wq_.front().readyAt <= now)
            processWrites(now);
        if (!rq_.empty() && rq_.front().readyAt <= now)
            processReads(now);
        if (!pq_.empty() && pq_.front().readyAt <= now)
            processPrefetches(now);
    }

    /**
     * Event-horizon contract (docs/performance.md): a lower bound on
     * the next cycle at which ticking this cache could process work it
     * already holds. Ring queues keep their earliest deadline at the
     * front (appends carry now + latency with a monotone clock; retry
     * push-fronts carry now), so only the three fronts are inspected.
     * Fills arriving from below create new work but are themselves
     * events of the lower level's horizon. Never less than @p now + 1.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        if (unsentMshrs_ != 0)
            return now + 1; // forward retries run every cycle
        Cycle horizon = kNoEventCycle;
        if (!wq_.empty())
            horizon = std::min(horizon,
                               std::max(wq_.front().readyAt, now + 1));
        if (!rq_.empty())
            horizon = std::min(horizon,
                               std::max(rq_.front().readyAt, now + 1));
        if (!pq_.empty())
            horizon = std::min(horizon,
                               std::max(pq_.front().readyAt, now + 1));
        return horizon;
    }

    /** Emulate an event-free span ending at @p now: such ticks only
     * advance the cache clock (used to stamp enqueues from above). */
    void skipTo(Cycle now) { now_ = now; }

    // MemClient (fill from the lower level)
    void returnData(const MemRequest &req) override;

    /** True if @p line is resident (no state change). */
    bool probe(Addr line) const;
    /** True if a miss to @p line is outstanding. */
    bool probeMshr(Addr line) const;

    const CacheParams &params() const { return params_; }
    const CacheStats &stats() const { return stats_; }

    /** Replacement-metadata bits (storage report). */
    std::uint64_t replStorageBits() const { return repl_->storageBits(); }

    /**
     * Warmup checkpoint hooks. The cache is checkpointable iff its
     * replacement policy opted in (registry policies that don't are a
     * clean "no checkpoint", never a wrong one).
     */
    bool checkpointable() const { return repl_->checkpointable(); }
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

    /** LLC hook: a line was filled from DRAM into the hierarchy. */
    std::function<void(Addr line)> onFillFromDram;
    /** LLC hook: a valid line was evicted. */
    std::function<void(Addr line)> onEviction;

  private:
    /** Sentinel tag marking an invalid way (no real line address —
     * byte addresses shifted down by kLogBlockSize never reach it). */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** Per-line metadata bits (parallel to tags_). */
    enum LineFlag : std::uint8_t
    {
        kDirty = 1u << 0,
        kPrefetched = 1u << 1,
    };

    struct Mshr
    {
        bool sentToLower = false;
        bool fillDirty = false;      ///< Install dirty (RFO/store)
        bool originPrefetch = false; ///< Allocated by this cache's pf
        bool demandMerged = false;   ///< A demand joined after allocation
        Addr line = 0;
        MemRequest fetchReq;             ///< Request forwarded down
        std::vector<MemRequest> waiters; ///< Reads to answer upward
    };

    struct QueueEntry
    {
        MemRequest req;
        Cycle readyAt = 0;
    };

    static void saveRing(StateWriter &w, const Ring<QueueEntry> &ring);
    static void loadRing(StateReader &r, Ring<QueueEntry> &ring);

    std::uint32_t setIndex(Addr line) const;
    /** Find way of a resident line; returns ways on miss. */
    std::uint32_t findWay(std::uint32_t set, Addr line) const;
    /** MSHR slot for @p line, or AddrIndex::kNotFound. */
    std::uint32_t findMshrSlot(Addr line) const;
    /** Lowest free MSHR slot, or kNotFound when exhausted. */
    std::uint32_t allocMshrSlot(Addr line);
    void releaseMshr(std::uint32_t slot);
    unsigned freeMshrCount() const;
    void markUnsent(std::uint32_t slot);
    void forwardFetch(Mshr &m, std::uint32_t slot);

    // Devirtualized replacement dispatch (sealed policy classes).
    void replOnHit(std::uint32_t set, std::uint32_t way, Addr pc,
                   AccessType type);
    void replOnInsert(std::uint32_t set, std::uint32_t way, Addr pc,
                      AccessType type);
    void replOnEvict(std::uint32_t set, std::uint32_t way);
    std::uint32_t replVictim(std::uint32_t set);

    void processReads(Cycle now);
    void processWrites(Cycle now);
    void processPrefetches(Cycle now);
    void retryUnsentMshrs();
    void handleReadHit(const MemRequest &req, std::uint32_t set,
                       std::uint32_t way);
    /** @return true if the miss was absorbed (MSHR merge or new). */
    bool handleReadMiss(const MemRequest &req);
    /** Install a fill; evicts (and writes back) a victim if needed. */
    void installLine(Addr line, Addr pc, AccessType type, bool dirty,
                     bool prefetched);
    void respondUpward(MemRequest waiter, const MemRequest &fill);
    void invokePrefetcher(const MemRequest &req, bool hit);

    /** The policy's class, worked out once at construction: the
     * sealed built-ins are called directly, anything else virtually. */
    enum class ReplClass : std::uint8_t
    {
        Lru,
        Srrip,
        Ship,
        Virtual,
    };
    static ReplClass classify(const ReplacementPolicy &policy);

    CacheParams params_;
    std::unique_ptr<ReplacementPolicy> repl_;
    ReplClass replClass_;

    // Flat tag/metadata store: tags_[set*ways + way].
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> lineFlags_;
    /** Valid ways per set. Lines are never invalidated after install,
     * so a full set stays full: installLine skips the invalid-way scan
     * entirely in steady state. Derived from tags_ (rebuilt in
     * loadState), never checkpointed. */
    std::vector<std::uint32_t> setFill_;

    // MSHR file + open-addressed line index + slot bitmasks.
    std::vector<Mshr> mshrs_;
    AddrIndex mshrIndex_;
    std::vector<std::uint64_t> freeMask_;   ///< bit set = slot free
    std::vector<std::uint64_t> unsentMask_; ///< bit set = not yet sent
    unsigned usedMshrs_ = 0;
    unsigned unsentMshrs_ = 0;

    Ring<QueueEntry> rq_;
    Ring<QueueEntry> wq_;
    Ring<QueueEntry> pq_;
    std::vector<MemClient *> uppers_;
    MemDevice *lower_ = nullptr;
    Prefetcher *prefetcher_ = nullptr;
    /** Reused candidate buffer: no per-access heap allocation. */
    std::vector<Addr> pfCandidates_;
    CacheStats stats_;
    Cycle now_ = 0;
};

} // namespace hermes
