#pragma once

/**
 * @file
 * Trace-driven out-of-order core model (ChampSim style, Table 4):
 * 6-wide fetch/retire, 512-entry ROB, 128/72-entry LQ/SQ, perceptron
 * branch predictor with a 17-cycle misprediction penalty.
 *
 * The model tracks exactly the microarchitectural effects the paper's
 * evaluation depends on:
 *  - loads occupy LQ entries, access the L1 and block retirement at the
 *    ROB head until their data returns;
 *  - explicit trace dependences serialise pointer-chase loads;
 *  - per-load stall attribution distinguishes off-chip blocking loads
 *    (Fig. 2/3/15a) and records how much of each stall the on-chip
 *    hierarchy traversal contributed (the "eliminable" fraction);
 *  - the Hermes hooks: predict at LQ allocation, issue after address
 *    generation, train at completion.
 *
 * Non-goals (documented simplifications): no register renaming — ALU
 * ILP is assumed abundant except for explicit trace dependences; stores
 * commit to the L1 write queue at retirement without store-to-load
 * forwarding.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/mem_iface.hh"
#include "common/ring.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "core/branch_predictor.hh"
#include "hermes/hermes.hh"
#include "predictor/offchip_pred.hh"
#include "trace/workload.hh"

namespace hermes
{

/** Core microarchitecture parameters (Table 4 defaults). */
struct CoreParams
{
    unsigned fetchWidth = 6;
    unsigned retireWidth = 6;
    unsigned robSize = 512;
    unsigned lqSize = 128;
    unsigned sqSize = 72;
    Cycle mispredictPenalty = 17;
    Cycle aluLatency = 1;
    /** Address-generation delay between readiness and L1 issue. */
    Cycle agenLatency = 1;
    unsigned maxLoadsPerCycle = 2;
};

/** Core-level statistics. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instrsRetired = 0;
    std::uint64_t loadsRetired = 0;
    std::uint64_t storesRetired = 0;
    std::uint64_t branchesRetired = 0;
    std::uint64_t branchMispredicts = 0;

    std::uint64_t loadsOffChip = 0;       ///< Served by DRAM
    std::uint64_t offChipBlocking = 0;    ///< ...that blocked retirement
    std::uint64_t offChipNonBlocking = 0;
    std::uint64_t loadsServedByHermes = 0;

    std::uint64_t stallCyclesOffChip = 0; ///< Head blocked by off-chip ld
    std::uint64_t stallCyclesOtherLoad = 0;
    std::uint64_t stallCyclesOther = 0;
    /** Portion of off-chip stalls removable by skipping the hierarchy
     * traversal (Fig. 3 dark bars). */
    std::uint64_t stallCyclesEliminable = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instrsRetired) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * One simulated core. Implements MemClient to receive load data from
 * its L1.
 */
class OooCore final : public MemClient
{
  public:
    /**
     * @param core_id this core's index (routed through the hierarchy)
     * @param params microarchitecture configuration
     * @param workload instruction source (not owned)
     * @param l1d first-level data cache (not owned)
     * @param hermes Hermes controller (not owned; may be null)
     */
    OooCore(int core_id, CoreParams params, Workload *workload,
            MemDevice *l1d, HermesController *hermes);

    /** Advance one cycle: retire, issue loads, fetch/dispatch. Inline
     * so the per-cycle stage guards avoid four calls when a stage has
     * nothing to do (stalled on an off-chip load, fetch squashed).
     * @return true iff at least one instruction retired this cycle
     * (System::runMeasure re-checks completion only on such cycles). */
    bool
    tick(Cycle now)
    {
        now_ = now;
        ++stats_.cycles;
        const std::uint64_t retired_before = stats_.instrsRetired;
        if (!robEmpty())
            retire(now);
        if (!readyLoads_.empty())
            issueLoads(now);
        if (now >= fetchResumeAt_ && !robFull())
            dispatch(now);
        if (hermes_ != nullptr)
            hermes_->tick(now);
        return stats_.instrsRetired != retired_before;
    }

    /**
     * Event-horizon contract (docs/performance.md): a lower bound, in
     * absolute cycles, on the next cycle at which ticking this core
     * would do anything beyond the bookkeeping skipCycles() emulates.
     * Externally triggered work — a load completion returning through
     * returnData() — is covered by the cache/DRAM horizons, not this
     * one. Never returns less than @p now + 1.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        const Cycle next = now + 1;
        Cycle horizon = kNoEventCycle;
        if (!robEmpty()) {
            const RobEntry &head = rob_[headSeq_ & robMask_];
            if (head.state == State::Done)
                return next; // retires next cycle
            if (head.instr.kind != InstrKind::Load &&
                head.state == State::Ready) {
                if (head.readyAt <= now)
                    return next; // completes and retires next cycle
                horizon = head.readyAt;
            }
            // WaitingDep / IssuedToMem / Ready-load heads advance only
            // through load issue (below) or memory completions.
        }
        if (!readyLoads_.empty()) {
            // Issue is strictly FIFO, so the front entry is the next
            // event even though issueAt is not monotone across the
            // ring (wake() can enqueue earlier deadlines behind it).
            const Cycle at = rob_[readyLoads_.front() & robMask_].issueAt;
            if (at <= now)
                return next; // issue attempt (can bump L1 rqRejects)
            horizon = std::min(horizon, at);
        }
        if (robFull())
            return horizon; // unblocked by retire, covered above
        if (next < fetchResumeAt_) {
            // Front-end squashed: nothing to dispatch until the
            // mispredicted branch's refill completes.
            return std::min(horizon, fetchResumeAt_);
        }
        if (!hasPendingFetch_)
            return next; // dispatch will fetch from the workload
        const bool blocked =
            (pendingFetch_.kind == InstrKind::Load &&
             lqUsed_ >= params_.lqSize) ||
            (pendingFetch_.kind == InstrKind::Store &&
             sqUsed_ >= params_.sqSize);
        if (!blocked)
            return next; // dispatch will insert the pending instruction
        return horizon;  // LQ/SQ drain via completions/retire, covered
    }

    /**
     * Emulate @p cycles event-free ticks ending at absolute cycle
     * @p now: exactly what tick() does on such cycles — advance the
     * cycle counter and the core clock, and attribute blocked cycles
     * to the (necessarily incomplete) ROB head.
     */
    void
    skipCycles(Cycle now, std::uint64_t cycles)
    {
        now_ = now;
        stats_.cycles += cycles;
        if (!robEmpty())
            rob_[headSeq_ & robMask_].blockedCycles += cycles;
    }

    // MemClient: load data returned by the L1.
    void returnData(const MemRequest &req) override;

    int coreId() const { return coreId_; }
    const CoreParams &params() const { return params_; }
    const CoreStats &stats() const { return stats_; }
    const BranchStats &branchStats() const { return branch_.stats(); }

    std::uint64_t instrsRetired() const { return stats_.instrsRetired; }

    /** Warmup checkpoint hooks. Statistics are not part of the state:
     * the seam is a stored System::snapshot(), so a restored core
     * counts from its restore. */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    enum class State : std::uint8_t
    {
        Empty,
        WaitingDep,  ///< Blocked on an older instruction
        Ready,       ///< Can execute / issue from readyAt
        IssuedToMem, ///< Load in flight in the memory system
        Done,
    };

    /**
     * One ROB slot. Trivially copyable on purpose: dispatch resets the
     * slot with a plain aggregate assignment and no heap traffic. The
     * dependence wakeup list is an intrusive singly-linked list through
     * the waiter entries themselves (firstWaiter/lastWaiter on the
     * producer, nextWaiter on each waiter; seq 0 terminates), replacing
     * the per-entry std::vector the wakeup loop used to allocate.
     */
    struct RobEntry
    {
        // Layout: the fields retire()/dispatch()/issueLoads() touch
        // every cycle sit together in the first 64 bytes (the ROB
        // spans more than L1D, so lines touched per entry matter);
        // load-return bookkeeping and the waiter links trail behind.
        InstrId seq = 0;
        Cycle readyAt = 0;     ///< Completion time for non-loads
        Cycle issueAt = 0;     ///< Earliest L1 issue (loads)
        std::uint64_t blockedCycles = 0;
        TraceInstr instr;
        State state = State::Empty;
        bool wentOffChip = false;
        bool servedByHermes = false;
        Cycle l1Issue = 0;
        Cycle mcArrive = 0;
        InstrId firstWaiter = 0; ///< Head of this entry's waiter list
        InstrId lastWaiter = 0;  ///< Tail (for O(1) FIFO append)
        InstrId nextWaiter = 0;  ///< Link when *this* entry is waiting
        PredMeta predMeta;
    };

    RobEntry &entry(InstrId seq);
    bool robFull() const { return nextSeq_ - headSeq_ >= params_.robSize; }
    bool robEmpty() const { return nextSeq_ == headSeq_; }

    void retire(Cycle now);
    void issueLoads(Cycle now);
    void dispatch(Cycle now);
    void dispatchOne(const TraceInstr &instr, Cycle now);
    /** Completion of a non-memory instruction or load: wake waiters. */
    void wake(RobEntry &producer, Cycle now);
    bool nonLoadComplete(const RobEntry &e, Cycle now) const;

    int coreId_;
    CoreParams params_;
    Workload *workload_;
    MemDevice *l1d_;
    HermesController *hermes_;
    BranchPredictor branch_;

    /** ROB storage, sized to the next power of two above robSize so
     * entry() indexes with a mask instead of a division. Occupancy is
     * still bounded by robSize (robFull), so slots never alias. */
    std::vector<RobEntry> rob_;
    InstrId robMask_ = 0;
    InstrId headSeq_ = 1;
    InstrId nextSeq_ = 1; ///< seq 0 reserved as "no dependence"
    unsigned lqUsed_ = 0;
    unsigned sqUsed_ = 0;
    Ring<InstrId> readyLoads_;
    TraceInstr pendingFetch_;
    bool hasPendingFetch_ = false;
    Cycle fetchResumeAt_ = 0;
    Cycle now_ = 0;
    CoreStats stats_;
};

} // namespace hermes
