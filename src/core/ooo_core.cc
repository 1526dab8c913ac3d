#include "core/ooo_core.hh"

#include <algorithm>
#include <cassert>

namespace hermes
{

OooCore::OooCore(int core_id, CoreParams params, Workload *workload,
                 MemDevice *l1d, HermesController *hermes)
    : coreId_(core_id), params_(params), workload_(workload), l1d_(l1d),
      hermes_(hermes), rob_(ceilPow2(params.robSize)),
      robMask_(rob_.size() - 1)
{
    assert(params_.robSize > 0 && params_.fetchWidth > 0);
}

OooCore::RobEntry &
OooCore::entry(InstrId seq)
{
    return rob_[seq & robMask_];
}

bool
OooCore::nonLoadComplete(const RobEntry &e, Cycle now) const
{
    return e.state == State::Ready && e.readyAt <= now;
}

void
OooCore::retire(Cycle now)
{
    for (unsigned n = 0; n < params_.retireWidth && !robEmpty(); ++n) {
        RobEntry &head = entry(headSeq_);
        const bool is_load = head.instr.kind == InstrKind::Load;
        const bool complete =
            head.state == State::Done ||
            (!is_load && nonLoadComplete(head, now));
        if (!complete) {
            ++head.blockedCycles;
            break;
        }

        switch (head.instr.kind) {
          case InstrKind::Load: {
            ++stats_.loadsRetired;
            if (head.wentOffChip) {
                ++stats_.loadsOffChip;
                if (head.blockedCycles > 0)
                    ++stats_.offChipBlocking;
                else
                    ++stats_.offChipNonBlocking;
                stats_.stallCyclesOffChip += head.blockedCycles;
                // The hierarchy-traversal portion of the load latency
                // (L1 access start -> MC arrival) bounds the stall
                // cycles Hermes could remove (Fig. 3).
                const Cycle traversal =
                    head.mcArrive > head.l1Issue
                        ? head.mcArrive - head.l1Issue
                        : 0;
                stats_.stallCyclesEliminable +=
                    std::min<std::uint64_t>(head.blockedCycles, traversal);
            } else {
                stats_.stallCyclesOtherLoad += head.blockedCycles;
            }
            if (head.servedByHermes)
                ++stats_.loadsServedByHermes;
            break;
          }
          case InstrKind::Store:
            ++stats_.storesRetired;
            stats_.stallCyclesOther += head.blockedCycles;
            // Commit the store to the L1 via its write queue
            // (write-allocate; see cache.cc).
            {
                MemRequest wr;
                wr.address = head.instr.vaddr;
                wr.pc = head.instr.pc;
                wr.coreId = coreId_;
                wr.type = AccessType::Rfo;
                wr.cycleCreated = now;
                l1d_->addWrite(wr);
                assert(sqUsed_ > 0);
                --sqUsed_;
            }
            break;
          case InstrKind::Branch:
            ++stats_.branchesRetired;
            stats_.stallCyclesOther += head.blockedCycles;
            break;
          case InstrKind::Alu:
            stats_.stallCyclesOther += head.blockedCycles;
            break;
        }

        head.state = State::Empty;
        ++headSeq_;
        ++stats_.instrsRetired;
    }
}

void
OooCore::issueLoads(Cycle now)
{
    unsigned issued = 0;
    while (issued < params_.maxLoadsPerCycle && !readyLoads_.empty()) {
        const InstrId seq = readyLoads_.front();
        RobEntry &e = entry(seq);
        assert(e.seq == seq && e.instr.kind == InstrKind::Load);
        if (e.issueAt > now)
            break;

        MemRequest req;
        req.address = e.instr.vaddr;
        req.pc = e.instr.pc;
        req.coreId = coreId_;
        req.type = AccessType::Load;
        req.instrId = seq;
        req.cycleCreated = now;
        if (!l1d_->addRead(req))
            break; // L1 read queue full: retry next cycle.
        readyLoads_.pop_front();
        e.state = State::IssuedToMem;
        e.l1Issue = now;
        if (hermes_ != nullptr)
            hermes_->onLoadIssued(req, e.predMeta, now);
        ++issued;
    }
}

void
OooCore::dispatch(Cycle now)
{
    for (unsigned n = 0; n < params_.fetchWidth; ++n) {
        if (now < fetchResumeAt_ || robFull())
            return;
        if (!hasPendingFetch_) {
            pendingFetch_ = workload_->next();
            hasPendingFetch_ = true;
        }
        const TraceInstr &instr = pendingFetch_;
        if (instr.kind == InstrKind::Load && lqUsed_ >= params_.lqSize)
            return;
        if (instr.kind == InstrKind::Store && sqUsed_ >= params_.sqSize)
            return;
        dispatchOne(instr, now);
        hasPendingFetch_ = false;
    }
}

void
OooCore::dispatchOne(const TraceInstr &instr, Cycle now)
{
    const InstrId seq = nextSeq_++;
    RobEntry &e = entry(seq);
    // Partial reset: the remaining fields (predMeta, wentOffChip,
    // servedByHermes, l1Issue, mcArrive, readyAt/issueAt) are written
    // before they are read — predictLoad overwrites predMeta for every
    // load, the timing fields only matter once returnData ran — and
    // nextWaiter is zeroed by wake() whenever the slot left a waiter
    // chain, so a recycled slot always starts with it clear.
    e.instr = instr;
    e.seq = seq;
    e.blockedCycles = 0;
    e.firstWaiter = 0;
    e.lastWaiter = 0;

    // Resolve the (optional) data dependence on an older instruction.
    // Only in-flight loads need the wakeup machinery: non-load
    // producers have statically known completion times, so dependents
    // simply inherit them.
    bool dep_pending = false;
    Cycle dep_ready_at = now;
    if (instr.depDistance > 0 && instr.depDistance < seq) {
        const InstrId dep_seq = seq - instr.depDistance;
        if (dep_seq >= headSeq_) {
            RobEntry &producer = entry(dep_seq);
            if (producer.seq == dep_seq &&
                producer.state != State::Empty) {
                const bool in_flight_load =
                    producer.instr.kind == InstrKind::Load &&
                    producer.state != State::Done;
                if (in_flight_load) {
                    // FIFO append to the producer's intrusive waiter
                    // list (wake order == registration order, which
                    // fixes the load issue order downstream).
                    if (producer.firstWaiter == 0) {
                        producer.firstWaiter = seq;
                    } else {
                        entry(producer.lastWaiter).nextWaiter = seq;
                    }
                    producer.lastWaiter = seq;
                    dep_pending = true;
                } else {
                    dep_ready_at = std::max(dep_ready_at,
                                            producer.readyAt);
                }
            }
        }
    }

    switch (instr.kind) {
      case InstrKind::Alu:
        e.state = dep_pending ? State::WaitingDep : State::Ready;
        e.readyAt = dep_ready_at + params_.aluLatency;
        break;
      case InstrKind::Branch: {
        e.state = State::Ready;
        e.readyAt = now + 1;
        branch_.predict(instr.pc);
        if (branch_.update(instr.pc, instr.branchTaken)) {
            ++stats_.branchMispredicts;
            // Squash the front-end: fetch resumes after the branch
            // resolves plus the pipeline-refill penalty.
            fetchResumeAt_ = now + 1 + params_.mispredictPenalty;
        }
        break;
      }
      case InstrKind::Store:
        ++sqUsed_;
        e.state = dep_pending ? State::WaitingDep : State::Ready;
        e.readyAt = dep_ready_at + 1;
        break;
      case InstrKind::Load: {
        ++lqUsed_;
        // LQ allocation: consult the off-chip predictor (paper §6.1.1).
        if (hermes_ != nullptr)
            hermes_->predictLoad(instr.pc, instr.vaddr, e.predMeta);
        if (dep_pending) {
            e.state = State::WaitingDep;
        } else {
            e.state = State::Ready;
            e.issueAt = dep_ready_at + params_.agenLatency;
            readyLoads_.push_back(seq);
        }
        break;
      }
    }
}

void
OooCore::wake(RobEntry &producer, Cycle now)
{
    InstrId wseq = producer.firstWaiter;
    while (wseq != 0) {
        RobEntry &w = entry(wseq);
        const InstrId next = w.nextWaiter;
        w.nextWaiter = 0;
        // Waiters cannot retire before their producer wakes them, so
        // the entry is always live; the guards are defensive.
        if (wseq >= headSeq_ && wseq < nextSeq_ && w.seq == wseq &&
            w.state == State::WaitingDep) {
            w.state = State::Ready;
            w.readyAt = now + params_.aluLatency;
            if (w.instr.kind == InstrKind::Load) {
                w.issueAt = now + params_.agenLatency;
                readyLoads_.push_back(wseq);
            }
        }
        wseq = next;
    }
    producer.firstWaiter = 0;
    producer.lastWaiter = 0;
}

void
OooCore::returnData(const MemRequest &req)
{
    const InstrId seq = req.instrId;
    if (seq < headSeq_ || seq >= nextSeq_)
        return; // Stale response (should not happen; loads block retire)
    RobEntry &e = entry(seq);
    if (e.seq != seq || e.instr.kind != InstrKind::Load ||
        e.state != State::IssuedToMem)
        return;

    e.state = State::Done;
    e.wentOffChip = req.servedFrom == MemLevel::Dram;
    e.servedByHermes = req.servedByHermes;
    e.mcArrive = req.cycleMcArrive;
    assert(lqUsed_ > 0);
    --lqUsed_;

    if (hermes_ != nullptr)
        hermes_->onLoadComplete(e.instr.pc, e.instr.vaddr, e.predMeta,
                                e.wentOffChip, e.servedByHermes);
    wake(e, now_);
}

namespace
{

void
saveInstr(StateWriter &w, const TraceInstr &instr)
{
    w.u64(instr.pc);
    w.u8(static_cast<std::uint8_t>(instr.kind));
    w.u64(instr.vaddr);
    w.b(instr.branchTaken);
    w.u32(instr.depDistance);
}

void
loadInstr(StateReader &r, TraceInstr &instr)
{
    instr.pc = r.u64();
    instr.kind = static_cast<InstrKind>(r.u8());
    instr.vaddr = r.u64();
    instr.branchTaken = r.b();
    instr.depDistance = r.u32();
}

void
savePredMeta(StateWriter &w, const PredMeta &m)
{
    for (std::uint32_t idx : m.index)
        w.u32(idx);
    w.u8(m.indexCount);
    w.i16(m.sum);
    w.b(m.predictedOffChip);
    w.b(m.valid);
}

void
loadPredMeta(StateReader &r, PredMeta &m)
{
    for (std::uint32_t &idx : m.index)
        idx = r.u32();
    m.indexCount = r.u8();
    m.sum = r.i16();
    m.predictedOffChip = r.b();
    m.valid = r.b();
}

} // namespace

void
OooCore::saveState(StateWriter &w) const
{
    w.section("CORE");
    branch_.saveState(w);
    w.u64(rob_.size());
    for (const RobEntry &e : rob_) {
        saveInstr(w, e.instr);
        w.u64(e.seq);
        w.u8(static_cast<std::uint8_t>(e.state));
        w.u64(e.readyAt);
        w.u64(e.issueAt);
        w.u64(e.blockedCycles);
        savePredMeta(w, e.predMeta);
        w.b(e.wentOffChip);
        w.b(e.servedByHermes);
        w.u64(e.l1Issue);
        w.u64(e.mcArrive);
        w.u64(e.firstWaiter);
        w.u64(e.lastWaiter);
        w.u64(e.nextWaiter);
    }
    w.u64(headSeq_);
    w.u64(nextSeq_);
    w.u32(lqUsed_);
    w.u32(sqUsed_);
    w.u64(readyLoads_.size());
    for (std::size_t i = 0; i < readyLoads_.size(); ++i)
        w.u64(readyLoads_.at(i));
    saveInstr(w, pendingFetch_);
    w.b(hasPendingFetch_);
    w.u64(fetchResumeAt_);
    w.u64(now_);
}

void
OooCore::loadState(StateReader &r)
{
    r.section("CORE");
    branch_.loadState(r);
    if (r.u64() != rob_.size())
        throw StateError("core rob size mismatch");
    for (RobEntry &e : rob_) {
        loadInstr(r, e.instr);
        e.seq = r.u64();
        e.state = static_cast<State>(r.u8());
        e.readyAt = r.u64();
        e.issueAt = r.u64();
        e.blockedCycles = r.u64();
        loadPredMeta(r, e.predMeta);
        e.wentOffChip = r.b();
        e.servedByHermes = r.b();
        e.l1Issue = r.u64();
        e.mcArrive = r.u64();
        e.firstWaiter = r.u64();
        e.lastWaiter = r.u64();
        e.nextWaiter = r.u64();
    }
    headSeq_ = r.u64();
    nextSeq_ = r.u64();
    lqUsed_ = r.u32();
    sqUsed_ = r.u32();
    readyLoads_.clear();
    const std::size_t nReady = r.count(rob_.size());
    for (std::size_t i = 0; i < nReady; ++i)
        readyLoads_.push_back(r.u64());
    loadInstr(r, pendingFetch_);
    hasPendingFetch_ = r.b();
    fetchResumeAt_ = r.u64();
    now_ = r.u64();
}

} // namespace hermes
