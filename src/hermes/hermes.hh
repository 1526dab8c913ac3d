#pragma once

/**
 * @file
 * The Hermes controller (paper §5-§6): glue between the core's load
 * pipeline, the off-chip predictor and the main-memory controller.
 *
 * Per load:
 *  1. at LQ allocation the predictor is consulted (predictLoad);
 *  2. if predicted off-chip, once the load's address is generated a
 *     Hermes request is scheduled and, after the configurable Hermes
 *     request issue latency (Hermes-O: 6 cycles, Hermes-P: 18 cycles,
 *     Table 4), enqueued directly at the memory controller;
 *  3. when the load completes, the predictor is trained with the true
 *     outcome and the confusion-matrix statistics are updated.
 *
 * The controller also supports a predictor-only mode (issue disabled)
 * used by the accuracy/coverage experiments (Fig. 9-11, 21).
 */

#include <algorithm>
#include <cstdint>
#include <memory>

#include "cache/mem_iface.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "dram/dram.hh"
#include "predictor/offchip_pred.hh"

namespace hermes
{

/** Hermes configuration. */
struct HermesParams
{
    /** Issue speculative requests (false = predictor-only mode). */
    bool issueEnabled = false;
    /** Hermes request issue latency in cycles (§6.2.1, Fig. 17c). */
    Cycle issueLatency = 6;
};

/** Hermes bookkeeping beyond the DRAM-side counters. */
struct HermesStats
{
    PredictorStats pred;
    std::uint64_t requestsScheduled = 0; ///< Hermes requests sent to MC
    std::uint64_t loadsServedByHermes = 0;
};

/** Per-core Hermes controller. */
class HermesController
{
  public:
    HermesController(HermesParams params, OffChipPredictor *predictor,
                     DramController *dram);

    /**
     * Consult the predictor at LQ allocation (no-op without one).
     * @return true iff the load is predicted to go off-chip.
     */
    bool predictLoad(Addr pc, Addr vaddr, PredMeta &meta);

    /**
     * The load's address has been generated and the load was issued to
     * the L1. Schedules the Hermes request if predicted off-chip.
     */
    void onLoadIssued(const MemRequest &req, const PredMeta &meta,
                      Cycle now);

    /** Drain due Hermes requests into the memory controller. Inline
     * fast path: this runs every core cycle and is almost always a
     * no-op. */
    void
    tick(Cycle now)
    {
        // pending_ is issueAt-ordered (fixed issue latency, monotone
        // enqueue times), so the front gates the whole drain.
        if (!pending_.empty() && pending_.front().issueAt <= now)
            drainPending(now);
    }

    /**
     * Event-horizon contract (docs/performance.md): when the oldest
     * pending Hermes request becomes due. Requests are appended with a
     * monotone clock and drained FIFO, so the front deadline is the
     * minimum. Never less than @p now + 1.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        if (pending_.empty())
            return kNoEventCycle;
        return std::max(pending_.front().issueAt, now + 1);
    }

    /** Train + account when the load returns to the core. */
    void onLoadComplete(Addr pc, Addr vaddr, const PredMeta &meta,
                        bool went_off_chip, bool served_by_hermes);

    OffChipPredictor *predictor() { return predictor_; }
    const HermesParams &params() const { return params_; }
    const HermesStats &stats() const { return stats_; }

    /**
     * Gate speculative issue at a phase boundary (hermes.warmup_issue):
     * with issue off the predictor still trains, matching
     * predictor-only mode during warmup.
     */
    void setIssueEnabled(bool enabled) { params_.issueEnabled = enabled; }

    /** Warmup checkpoint hooks (predictor state is saved separately). */
    void
    saveState(StateWriter &w) const
    {
        w.section("HRMC");
        w.u64(pending_.size());
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            saveMemRequest(w, pending_.at(i).req);
            w.u64(pending_.at(i).issueAt);
        }
    }

    void
    loadState(StateReader &r)
    {
        r.section("HRMC");
        pending_.clear();
        const std::size_t n = r.count(1u << 20);
        for (std::size_t i = 0; i < n; ++i) {
            PendingIssue p;
            loadMemRequest(r, p.req);
            p.issueAt = r.u64();
            pending_.push_back(p);
        }
    }

  private:
    struct PendingIssue
    {
        MemRequest req;
        Cycle issueAt = 0;
    };

    void drainPending(Cycle now);

    HermesParams params_;
    OffChipPredictor *predictor_;
    DramController *dram_;
    Ring<PendingIssue> pending_;
    HermesStats stats_;
};

} // namespace hermes
