#pragma once

/**
 * @file
 * DDR4 main-memory controller: per-channel read/write queues, banks with
 * open-row state, FR-FCFS scheduling, a shared per-channel data bus and
 * write-drain mode. Timing parameters follow Table 4 (DDR4-3200,
 * tRCD=tRP=tCAS=12.5ns) expressed in core cycles at 4GHz.
 *
 * The controller is also where the Hermes datapath lands (paper §6.2):
 *  - a Hermes request enqueues like a read but has no cache-side waiter;
 *  - a regular LLC-miss read arriving while a Hermes request to the same
 *    line is in flight merges with it and completes when it does;
 *  - a Hermes request that completes with no waiting regular request is
 *    dropped without filling any cache (keeping the hierarchy coherent).
 */

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "cache/mem_iface.hh"
#include "common/addr_index.hh"
#include "common/ring.hh"
#include "common/types.hh"

namespace hermes
{

/** DRAM geometry and timing. */
struct DramParams
{
    unsigned channels = 1;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 8;
    unsigned rowBufferBytes = 2048;
    /** Core clock (MHz) used to convert transfer rate into cycles. */
    unsigned coreFreqMhz = 4000;
    /** Transfer rate in mega-transfers/s (Fig. 17a sweeps this). */
    unsigned mtps = 3200;
    /** Bank timing in core cycles (12.5ns at 4GHz = 50 cycles). */
    Cycle tRcd = 50;
    Cycle tRp = 50;
    Cycle tCas = 50;
    std::uint32_t rqSize = 48;  ///< Read-queue entries per channel
    std::uint32_t wqSize = 48;  ///< Write-queue entries per channel

    /** Core cycles the data bus is busy transferring one 64B line. */
    Cycle
    busCyclesPerLine() const
    {
        // 64B line over a 64-bit (8B) bus = 8 transfers.
        const double cycles_per_transfer =
            static_cast<double>(coreFreqMhz) / static_cast<double>(mtps);
        const double total = 8.0 * cycles_per_transfer;
        return total < 1.0 ? 1 : static_cast<Cycle>(total + 0.999);
    }
};

/** Controller-level counters. */
struct DramStats
{
    std::uint64_t demandReads = 0;   ///< Load/RFO reads serviced
    std::uint64_t prefetchReads = 0; ///< Prefetch reads serviced
    std::uint64_t hermesReads = 0;   ///< Hermes-initiated reads serviced
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;   ///< Closed-row activations
    std::uint64_t rowConflicts = 0;
    std::uint64_t readMerges = 0;  ///< Reads merged into in-flight reads
    std::uint64_t wqForwards = 0;  ///< Reads serviced from the write queue

    std::uint64_t hermesIssued = 0;  ///< Hermes requests enqueued
    std::uint64_t hermesMergedIntoExisting = 0; ///< Already in flight
    std::uint64_t hermesDropped = 0; ///< Completed with no waiter
    std::uint64_t hermesUseful = 0;  ///< Completed with >=1 waiter
    std::uint64_t hermesRejected = 0; ///< RQ full at enqueue

    /** Total reads serviced by DRAM (the "main memory requests" metric,
     * Fig. 15b / Fig. 22). */
    std::uint64_t
    totalReads() const
    {
        return demandReads + prefetchReads + hermesReads;
    }
};

/** DDR4-style memory controller. */
class DramController final : public MemDevice
{
  public:
    explicit DramController(DramParams params);

    /** Wire the response receiver for core @p core_id (its LLC path). */
    void setClient(int core_id, MemClient *client);

    // MemDevice
    bool addRead(const MemRequest &req) override;
    bool addWrite(const MemRequest &req) override;
    void tick(Cycle now) override;

    /**
     * Event-horizon contract (docs/performance.md): a lower bound on
     * the next cycle at which tick() could complete or issue anything —
     * the earliest in-flight finish time, or the earliest bank-ready
     * time of a Queued entry on the side the write-drain hysteresis
     * will select. Never less than @p now + 1.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Emulate an event-free span ending at @p now: such ticks only
     * advance the controller clock (used to stamp enqueues). */
    void skipTo(Cycle now) { now_ = now; }

    /**
     * Enqueue a speculative Hermes read (paper §6.2.1). Returns false if
     * the channel read queue is full, in which case the request is
     * simply not issued (accounted in stats).
     */
    bool addHermes(const MemRequest &req);

    /** True if a read (incl. Hermes) to @p line is in flight. */
    bool probeRead(Addr line) const;

    const DramParams &params() const { return params_; }
    const DramStats &stats() const { return stats_; }

    /** Warmup checkpoint hooks. */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    enum class State : std::uint8_t { Queued, Issued };

    struct ReadEntry
    {
        Addr line = 0;
        std::uint32_t bank = 0;
        std::uint64_t row = 0;
        Cycle arrived = 0;
        /** Arrival order on the channel, by which saveState lists the
         * entries. Derived state (not checkpointed, renumbered on
         * loadState). */
        std::uint64_t seq = 0;
        State state = State::Queued;
        Cycle finishAt = 0;
        bool hermesOnly = true; ///< No regular request attached yet
        bool hermesInitiated = false;
        /** Cleared, never shrunk, when the slot is reused: a warm slab
         * enqueues a read without allocating. */
        std::vector<MemRequest> waiters;
    };

    struct WriteEntry
    {
        Addr line = 0;
        std::uint32_t bank = 0;
        std::uint64_t row = 0;
        Cycle arrived = 0;
        State state = State::Queued;
        Cycle finishAt = 0;
    };

    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Cycle readyAt = 0;
    };

    struct Channel
    {
        explicit Channel(const DramParams &p);

        /** Slots [first, rqSize) become the free slots. */
        void freeSlotsFrom(std::uint32_t first);

        /**
         * The read queue, shaped like a cache's MSHR file: a slab of
         * rqSize entries, each either free or in exactly one of the
         * two lists below, and found by line through readSlots.
         */
        std::vector<ReadEntry> reads;
        std::vector<std::uint32_t> freeReads; ///< Free slots (a stack)
        /** Queued slots in arrival order: the FR-FCFS scan order. */
        std::vector<std::uint32_t> queuedReads;
        /**
         * Issued slots in issue order, which is also finish order: the
         * shared data bus makes every access on a channel finish
         * strictly after the one issued before it (see access()), so
         * completions pop the front.
         */
        Ring<std::uint32_t> issuedReads;
        /** Finish cycle of issuedReads' front (0 with none in flight):
         * the next read completion. */
        Cycle nextReadFinish = 0;
        std::uint64_t nextReadSeq = 0; ///< Next ReadEntry::seq
        /**
         * Line -> slot of every read entry (reads merge by line, so
         * entries are unique per line): the same open-addressed index
         * as the caches' MSHRs. Derived state, rebuilt on loadState.
         */
        AddrIndex readSlots;

        std::deque<WriteEntry> wq;
        std::vector<Bank> banks;
        Cycle busFreeAt = 0;
        bool drainingWrites = false;

        // Write-queue bookkeeping: how many entries are still waiting
        // for a bank (Queued) vs in flight (Issued), and the earliest
        // in-flight completion time. Lets tick() skip the write scan
        // and the completion sweep on the many cycles where neither
        // can make progress.
        unsigned queuedWrites = 0;
        unsigned issuedWrites = 0;
        Cycle nextWriteFinish = 0;
        /**
         * When the FR-FCFS read scan last found every queued entry's
         * bank busy, the earliest of those banks' readyAt cycles; the
         * scan cannot pick anything before it. Cleared whenever a read
         * arrives; bank readyAt values only ever move later, so the
         * bound stays a valid lower bound in between. Derived state
         * (not checkpointed, rebuilt lazily after loadState).
         */
        Cycle readSchedBlockedUntil = 0;
        /** Occupancy count per line in wq (writes to one line can
         * coexist): read-after-write forwarding looks a line up here. */
        std::unordered_map<Addr, unsigned> wqLines;
    };

    unsigned channelOf(Addr line) const;
    /** The bank and row that hold @p line on its channel. */
    void place(Addr line, std::uint32_t &bank, std::uint64_t &row) const;
    /** Take a free slot for a Queued read of @p line arriving now (a
     * Hermes request when @p hermes); nullptr when the channel's read
     * queue is full. */
    ReadEntry *enqueueRead(Channel &ch, Addr line, bool hermes);
    /** Hand @p resp to the LLC path of its core. */
    void deliver(const MemRequest &resp);
    /** Bank access latency for the target row; updates row state. */
    Cycle access(Channel &ch, std::uint32_t bank, std::uint64_t row,
                 Cycle now);
    /** The write-drain flag the next tick sets, from the queue sizes. */
    bool drainsWrites(const Channel &ch) const;
    void scheduleReads(Channel &ch, Cycle now);
    void scheduleWrites(Channel &ch, Cycle now);
    void completeReads(Channel &ch, Cycle now);
    void completeWrites(Channel &ch, Cycle now);

    DramParams params_;
    std::vector<Channel> channels_;
    std::vector<MemClient *> clients_;
    DramStats stats_;
    Cycle now_ = 0;
};

} // namespace hermes
