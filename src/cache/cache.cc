#include "cache/cache.hh"

#include <cassert>
#include <typeinfo>

namespace hermes
{

namespace
{

inline unsigned
lowestSetBit(std::uint64_t word)
{
    return static_cast<unsigned>(__builtin_ctzll(word));
}

} // namespace

Cache::ReplClass
Cache::classify(const ReplacementPolicy &policy)
{
    // Exact class matches only: a subclass of SrripPolicy (which is not
    // final) may override the callbacks, so it must dispatch virtually.
    const std::type_info &t = typeid(policy);
    if (t == typeid(LruPolicy))
        return ReplClass::Lru;
    if (t == typeid(SrripPolicy))
        return ReplClass::Srrip;
    if (t == typeid(ShipPolicy))
        return ReplClass::Ship;
    return ReplClass::Virtual;
}

Cache::Cache(CacheParams params, std::unique_ptr<ReplacementPolicy> repl)
    : params_(std::move(params)),
      repl_(repl != nullptr ? std::move(repl)
                            : std::make_unique<LruPolicy>(params_.sets,
                                                          params_.ways)),
      replClass_(classify(*repl_)),
      tags_(static_cast<std::size_t>(params_.sets) * params_.ways,
            kInvalidTag),
      lineFlags_(static_cast<std::size_t>(params_.sets) * params_.ways, 0),
      setFill_(params_.sets, 0),
      mshrs_(params_.mshrs),
      mshrIndex_(params_.mshrs),
      freeMask_((params_.mshrs + 63) / 64, 0),
      unsentMask_((params_.mshrs + 63) / 64, 0),
      rq_(params_.rqSize),
      wq_(64),
      pq_(params_.pqSize)
{
    assert((params_.sets & (params_.sets - 1)) == 0 &&
           "set count must be a power of two");
    for (std::uint32_t s = 0; s < params_.mshrs; ++s)
        freeMask_[s / 64] |= 1ull << (s % 64);
}

void
Cache::setUpper(int core_id, MemClient *upper)
{
    if (uppers_.size() <= static_cast<std::size_t>(core_id))
        uppers_.resize(core_id + 1, nullptr);
    uppers_[core_id] = upper;
}

std::uint32_t
Cache::setIndex(Addr line) const
{
    return static_cast<std::uint32_t>(line & (params_.sets - 1));
}

std::uint32_t
Cache::findWay(std::uint32_t set, Addr line) const
{
    const Addr *tags =
        tags_.data() + static_cast<std::size_t>(set) * params_.ways;
    for (std::uint32_t w = 0; w < params_.ways; ++w)
        if (tags[w] == line)
            return w;
    return params_.ways;
}

std::uint32_t
Cache::findMshrSlot(Addr line) const
{
    if (usedMshrs_ == 0)
        return AddrIndex::kNotFound;
    return mshrIndex_.find(line);
}

std::uint32_t
Cache::allocMshrSlot(Addr line)
{
    if (usedMshrs_ >= params_.mshrs)
        return AddrIndex::kNotFound;
    for (std::size_t w = 0; w < freeMask_.size(); ++w) {
        if (freeMask_[w] == 0)
            continue;
        const std::uint32_t slot =
            static_cast<std::uint32_t>(w * 64 + lowestSetBit(freeMask_[w]));
        freeMask_[w] &= freeMask_[w] - 1; // clear lowest set bit
        ++usedMshrs_;
        mshrIndex_.insert(line, slot);
        Mshr &m = mshrs_[slot];
        m.sentToLower = false;
        m.fillDirty = false;
        m.originPrefetch = false;
        m.demandMerged = false;
        m.line = line;
        m.waiters.clear();
        return slot;
    }
    return AddrIndex::kNotFound; // unreachable: usedMshrs_ is accurate
}

void
Cache::releaseMshr(std::uint32_t slot)
{
    Mshr &m = mshrs_[slot];
    mshrIndex_.erase(m.line);
    m.waiters.clear();
    const std::uint64_t bit = 1ull << (slot % 64);
    if ((unsentMask_[slot / 64] & bit) != 0) {
        unsentMask_[slot / 64] &= ~bit;
        --unsentMshrs_;
    }
    freeMask_[slot / 64] |= bit;
    --usedMshrs_;
}

unsigned
Cache::freeMshrCount() const
{
    return params_.mshrs - usedMshrs_;
}

void
Cache::markUnsent(std::uint32_t slot)
{
    unsentMask_[slot / 64] |= 1ull << (slot % 64);
    ++unsentMshrs_;
}

void
Cache::forwardFetch(Mshr &m, std::uint32_t slot)
{
    m.sentToLower = lower_ != nullptr && lower_->addRead(m.fetchReq);
    if (!m.sentToLower)
        markUnsent(slot);
}

void
Cache::replOnHit(std::uint32_t set, std::uint32_t way, Addr pc,
                 AccessType type)
{
    ReplacementPolicy *p = repl_.get();
    switch (replClass_) {
      case ReplClass::Lru:
        static_cast<LruPolicy *>(p)->LruPolicy::onHit(set, way, pc, type);
        break;
      case ReplClass::Srrip:
        static_cast<SrripPolicy *>(p)->SrripPolicy::onHit(set, way, pc,
                                                          type);
        break;
      case ReplClass::Ship:
        static_cast<ShipPolicy *>(p)->ShipPolicy::onHit(set, way, pc,
                                                        type);
        break;
      case ReplClass::Virtual:
        p->onHit(set, way, pc, type);
        break;
    }
}

void
Cache::replOnInsert(std::uint32_t set, std::uint32_t way, Addr pc,
                    AccessType type)
{
    ReplacementPolicy *p = repl_.get();
    switch (replClass_) {
      case ReplClass::Lru:
        static_cast<LruPolicy *>(p)->LruPolicy::onInsert(set, way, pc,
                                                         type);
        break;
      case ReplClass::Srrip:
        static_cast<SrripPolicy *>(p)->SrripPolicy::onInsert(set, way, pc,
                                                             type);
        break;
      case ReplClass::Ship:
        static_cast<ShipPolicy *>(p)->ShipPolicy::onInsert(set, way, pc,
                                                           type);
        break;
      case ReplClass::Virtual:
        p->onInsert(set, way, pc, type);
        break;
    }
}

void
Cache::replOnEvict(std::uint32_t set, std::uint32_t way)
{
    ReplacementPolicy *p = repl_.get();
    switch (replClass_) {
      case ReplClass::Lru:
        static_cast<LruPolicy *>(p)->LruPolicy::onEvict(set, way);
        break;
      case ReplClass::Srrip:
        static_cast<SrripPolicy *>(p)->SrripPolicy::onEvict(set, way);
        break;
      case ReplClass::Ship:
        static_cast<ShipPolicy *>(p)->ShipPolicy::onEvict(set, way);
        break;
      case ReplClass::Virtual:
        p->onEvict(set, way);
        break;
    }
}

std::uint32_t
Cache::replVictim(std::uint32_t set)
{
    ReplacementPolicy *p = repl_.get();
    switch (replClass_) {
      case ReplClass::Lru:
        return static_cast<LruPolicy *>(p)->LruPolicy::victim(set);
      case ReplClass::Srrip:
        return static_cast<SrripPolicy *>(p)->SrripPolicy::victim(set);
      case ReplClass::Ship:
        return static_cast<ShipPolicy *>(p)->ShipPolicy::victim(set);
      case ReplClass::Virtual:
        break;
    }
    return p->victim(set);
}

bool
Cache::addRead(const MemRequest &req)
{
    if (rq_.size() >= params_.rqSize) {
        ++stats_.rqRejects;
        return false;
    }
    rq_.push_back(QueueEntry{req, now_ + params_.latency});
    return true;
}

bool
Cache::addWrite(const MemRequest &req)
{
    // Soft-bounded: writes are always accepted (see file comment).
    wq_.push_back(QueueEntry{req, now_ + params_.latency});
    return true;
}

void
Cache::retryUnsentMshrs()
{
    if (lower_ == nullptr)
        return;
    for (std::size_t w = 0; w < unsentMask_.size(); ++w) {
        std::uint64_t pending = unsentMask_[w];
        while (pending != 0) {
            const std::uint32_t slot =
                static_cast<std::uint32_t>(w * 64 + lowestSetBit(pending));
            const std::uint64_t bit = pending & (~pending + 1);
            pending &= pending - 1;
            Mshr &m = mshrs_[slot];
            if (lower_->addRead(m.fetchReq) &&
                (unsentMask_[w] & bit) != 0) {
                // The mask re-check guards against addRead answering
                // synchronously (DRAM write-queue forwarding re-enters
                // returnData): the nested call already released this
                // MSHR and its unsent bit, so no further bookkeeping.
                m.sentToLower = true;
                unsentMask_[w] &= ~bit;
                --unsentMshrs_;
            }
        }
    }
}

void
Cache::processWrites(Cycle now)
{
    for (std::uint32_t budget = params_.lookupsPerCycle;
         budget > 0 && !wq_.empty() && wq_.front().readyAt <= now;
         --budget) {
        const MemRequest req = wq_.front().req;
        wq_.pop_front();
        ++stats_.writebackLookups;
        const std::uint32_t set = setIndex(req.line());
        const std::uint32_t way = findWay(set, req.line());
        if (way < params_.ways) {
            ++stats_.writebackHits;
            lineFlags_[static_cast<std::size_t>(set) * params_.ways +
                       way] |= kDirty;
            replOnHit(set, way, req.pc, req.type);
            continue;
        }
        if (req.type == AccessType::Writeback) {
            // Dirty eviction from the level above: install the line
            // here directly (no fetch), standard ChampSim behaviour.
            installLine(req.line(), req.pc, req.type, true, false);
            continue;
        }
        // Store (RFO) miss: write-allocate by fetching the line.
        if (const std::uint32_t slot = findMshrSlot(req.line());
            slot != AddrIndex::kNotFound) {
            mshrs_[slot].fillDirty = true;
            ++stats_.mshrMerges;
            continue;
        }
        const std::uint32_t slot = allocMshrSlot(req.line());
        if (slot == AddrIndex::kNotFound) {
            // No MSHR: retry next cycle.
            wq_.push_front(QueueEntry{req, now});
            break;
        }
        Mshr &m = mshrs_[slot];
        m.fetchReq = req;
        m.fetchReq.type = AccessType::Rfo;
        m.fillDirty = true;
        forwardFetch(m, slot);
    }
}

void
Cache::processReads(Cycle now)
{
    for (std::uint32_t budget = params_.lookupsPerCycle;
         budget > 0 && !rq_.empty() && rq_.front().readyAt <= now;
         --budget) {
        const MemRequest req = rq_.front().req;
        const std::uint32_t set = setIndex(req.line());
        const std::uint32_t way = findWay(set, req.line());
        const bool hit = way < params_.ways;

        if (hit) {
            rq_.pop_front();
            if (req.type == AccessType::Load)
                ++stats_.loadLookups, ++stats_.loadHits;
            else
                ++stats_.rfoLookups, ++stats_.rfoHits;
            handleReadHit(req, set, way);
            invokePrefetcher(req, true);
            continue;
        }
        if (!handleReadMiss(req))
            break; // MSHRs exhausted: head-of-line retries next cycle.
        rq_.pop_front();
        if (req.type == AccessType::Load)
            ++stats_.loadLookups;
        else
            ++stats_.rfoLookups;
        invokePrefetcher(req, false);
    }
}

void
Cache::handleReadHit(const MemRequest &req, std::uint32_t set,
                     std::uint32_t way)
{
    const std::size_t i =
        static_cast<std::size_t>(set) * params_.ways + way;
    replOnHit(set, way, req.pc, req.type);
    if ((lineFlags_[i] & kPrefetched) != 0) {
        lineFlags_[i] &= static_cast<std::uint8_t>(~kPrefetched);
        ++stats_.usefulPrefetches;
        if (prefetcher_ != nullptr)
            prefetcher_->onPrefetchUseful(tags_[i], req.pc);
    }
    MemRequest resp = req;
    resp.servedFrom = params_.level;
    respondUpward(resp, resp);
}

bool
Cache::handleReadMiss(const MemRequest &req)
{
    if (const std::uint32_t slot = findMshrSlot(req.line());
        slot != AddrIndex::kNotFound) {
        Mshr &m = mshrs_[slot];
        ++stats_.mshrMerges;
        if (m.originPrefetch && !m.demandMerged) {
            ++stats_.mshrLatePrefetchHits;
            // Late prefetch: the demand caught it in flight. Useful
            // but tardy feedback for learning prefetchers.
            if (prefetcher_ != nullptr)
                prefetcher_->onPrefetchLate(m.line, req.pc);
        }
        m.demandMerged = true;
        if (req.type == AccessType::Rfo)
            m.fillDirty = true;
        m.waiters.push_back(req);
        return true;
    }
    const std::uint32_t slot = allocMshrSlot(req.line());
    if (slot == AddrIndex::kNotFound)
        return false;
    Mshr &m = mshrs_[slot];
    m.fetchReq = req;
    m.waiters.push_back(req);
    if (req.type == AccessType::Rfo)
        m.fillDirty = true;
    forwardFetch(m, slot);
    return true;
}

void
Cache::processPrefetches(Cycle now)
{
    for (std::uint32_t budget = params_.lookupsPerCycle;
         budget > 0 && !pq_.empty() && pq_.front().readyAt <= now;
         --budget) {
        const MemRequest req = pq_.front().req;
        ++stats_.prefetchLookups;
        const std::uint32_t set = setIndex(req.line());
        if (findWay(set, req.line()) < params_.ways ||
            findMshrSlot(req.line()) != AddrIndex::kNotFound) {
            ++stats_.prefetchDropped;
            pq_.pop_front();
            continue;
        }
        if (usedMshrs_ >= params_.mshrs)
            break; // Prefetches wait for a free MSHR.
        // Keep at least a couple of MSHRs for demand traffic.
        if (freeMshrCount() <= 2) {
            ++stats_.prefetchDropped;
            pq_.pop_front();
            continue;
        }
        pq_.pop_front();
        const std::uint32_t slot = allocMshrSlot(req.line());
        Mshr &m = mshrs_[slot];
        m.fetchReq = req;
        m.originPrefetch = true;
        forwardFetch(m, slot);
        ++stats_.prefetchIssued;
    }
}

void
Cache::invokePrefetcher(const MemRequest &req, bool hit)
{
    if (prefetcher_ == nullptr)
        return;
    if (req.type != AccessType::Load && req.type != AccessType::Rfo)
        return;
    pfCandidates_.clear();
    prefetcher_->onAccess(req.address, req.pc, hit, pfCandidates_);
    for (Addr line : pfCandidates_) {
        if (pq_.size() >= params_.pqSize)
            break;
        MemRequest pf;
        pf.address = line << kLogBlockSize;
        pf.pc = req.pc;
        pf.coreId = req.coreId;
        pf.type = AccessType::Prefetch;
        pf.cycleCreated = now_;
        pq_.push_back(QueueEntry{pf, now_ + 1});
    }
}

void
Cache::installLine(Addr line, Addr pc, AccessType type, bool dirty,
                   bool prefetched)
{
    const std::uint32_t set = setIndex(line);
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;
    std::uint32_t way = params_.ways;
    if (setFill_[set] < params_.ways) {
        // Cold set: take the lowest invalid way (guaranteed to exist).
        way = 0;
        while (tags_[base + way] != kInvalidTag)
            ++way;
        ++setFill_[set];
    }
    if (way == params_.ways) {
        way = replVictim(set);
        const Addr victim_line = tags_[base + way];
        const std::uint8_t victim_flags = lineFlags_[base + way];
        ++stats_.evictions;
        if ((victim_flags & kPrefetched) != 0) {
            ++stats_.uselessPrefetches;
            if (prefetcher_ != nullptr)
                prefetcher_->onPrefetchUseless(victim_line);
        }
        replOnEvict(set, way);
        if (onEviction)
            onEviction(victim_line);
        if ((victim_flags & kDirty) != 0) {
            ++stats_.dirtyEvictions;
            if (lower_ != nullptr) {
                MemRequest wb;
                wb.address = victim_line << kLogBlockSize;
                wb.type = AccessType::Writeback;
                wb.cycleCreated = now_;
                lower_->addWrite(wb);
            }
        }
    }
    tags_[base + way] = line;
    lineFlags_[base + way] =
        static_cast<std::uint8_t>((dirty ? kDirty : 0) |
                                  (prefetched ? kPrefetched : 0));
    replOnInsert(set, way, pc, type);
}

void
Cache::respondUpward(MemRequest waiter, const MemRequest &fill)
{
    waiter.servedFrom = fill.servedFrom;
    waiter.cycleMcArrive = fill.cycleMcArrive;
    waiter.servedByHermes = fill.servedByHermes;
    const auto idx = static_cast<std::size_t>(waiter.coreId);
    MemClient *upper =
        idx < uppers_.size() ? uppers_[idx] : nullptr;
    if (upper != nullptr)
        upper->returnData(waiter);
}

void
Cache::returnData(const MemRequest &req)
{
    const std::uint32_t slot = findMshrSlot(req.line());
    assert(slot != AddrIndex::kNotFound &&
           "fill without a matching MSHR");
    Mshr &m = mshrs_[slot];

    ++stats_.fills;
    const bool prefetched = m.originPrefetch && !m.demandMerged;
    if (m.originPrefetch) {
        ++stats_.prefetchFills;
        if (prefetcher_ != nullptr)
            prefetcher_->onPrefetchFill(req.line());
    }
    installLine(req.line(), m.fetchReq.pc, m.fetchReq.type, m.fillDirty,
                prefetched);
    if (onFillFromDram && req.servedFrom == MemLevel::Dram)
        onFillFromDram(req.line());

    for (const MemRequest &w : m.waiters)
        respondUpward(w, req);
    releaseMshr(slot);
}

bool
Cache::probe(Addr line) const
{
    const std::uint32_t set = setIndex(line);
    return findWay(set, line) < params_.ways;
}

bool
Cache::probeMshr(Addr line) const
{
    return findMshrSlot(line) != AddrIndex::kNotFound;
}

void
Cache::saveRing(StateWriter &w, const Ring<QueueEntry> &ring)
{
    w.u64(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
        saveMemRequest(w, ring.at(i).req);
        w.u64(ring.at(i).readyAt);
    }
}

void
Cache::loadRing(StateReader &r, Ring<QueueEntry> &ring)
{
    ring.clear();
    const std::size_t n = r.count(1u << 20);
    for (std::size_t i = 0; i < n; ++i) {
        QueueEntry e;
        loadMemRequest(r, e.req);
        e.readyAt = r.u64();
        ring.push_back(e);
    }
}

void
Cache::saveState(StateWriter &w) const
{
    w.section("CACH");
    // Identity guard: a checkpoint for a differently-shaped cache must
    // fail here, not corrupt state downstream.
    w.str(params_.name);
    w.u64(tags_.size());
    for (Addr t : tags_)
        w.u64(t);
    for (std::uint8_t f : lineFlags_)
        w.u8(f);
    w.u64(mshrs_.size());
    for (const Mshr &m : mshrs_) {
        w.b(m.sentToLower);
        w.b(m.fillDirty);
        w.b(m.originPrefetch);
        w.b(m.demandMerged);
        w.u64(m.line);
        saveMemRequest(w, m.fetchReq);
        w.u64(m.waiters.size());
        for (const MemRequest &req : m.waiters)
            saveMemRequest(w, req);
    }
    w.u64(freeMask_.size());
    for (std::uint64_t mask : freeMask_)
        w.u64(mask);
    for (std::uint64_t mask : unsentMask_)
        w.u64(mask);
    w.u32(usedMshrs_);
    w.u32(unsentMshrs_);
    saveRing(w, rq_);
    saveRing(w, wq_);
    saveRing(w, pq_);
    w.u64(now_);
    repl_->saveState(w);
}

void
Cache::loadState(StateReader &r)
{
    r.section("CACH");
    if (r.str() != params_.name)
        throw StateError("cache name mismatch");
    if (r.u64() != tags_.size())
        throw StateError("cache tag array size mismatch");
    for (Addr &t : tags_)
        t = r.u64();
    for (std::uint8_t &f : lineFlags_)
        f = r.u8();
    // setFill_ is derived from the tag array: recount valid ways.
    std::fill(setFill_.begin(), setFill_.end(), 0u);
    for (std::uint32_t s = 0; s < params_.sets; ++s) {
        const std::size_t b = static_cast<std::size_t>(s) * params_.ways;
        for (std::uint32_t w = 0; w < params_.ways; ++w)
            if (tags_[b + w] != kInvalidTag)
                ++setFill_[s];
    }
    if (r.u64() != mshrs_.size())
        throw StateError("cache mshr file size mismatch");
    for (Mshr &m : mshrs_) {
        m.sentToLower = r.b();
        m.fillDirty = r.b();
        m.originPrefetch = r.b();
        m.demandMerged = r.b();
        m.line = r.u64();
        loadMemRequest(r, m.fetchReq);
        m.waiters.clear();
        const std::size_t nw = r.count(1u << 16);
        m.waiters.resize(nw);
        for (MemRequest &req : m.waiters)
            loadMemRequest(r, req);
    }
    if (r.u64() != freeMask_.size())
        throw StateError("cache mshr mask size mismatch");
    for (std::uint64_t &mask : freeMask_)
        mask = r.u64();
    for (std::uint64_t &mask : unsentMask_)
        mask = r.u64();
    usedMshrs_ = r.u32();
    unsentMshrs_ = r.u32();
    loadRing(r, rq_);
    loadRing(r, wq_);
    loadRing(r, pq_);
    now_ = r.u64();
    repl_->loadState(r);
    // The line->slot index is derived: rebuild it over occupied slots.
    mshrIndex_.clear();
    for (std::uint32_t slot = 0; slot < mshrs_.size(); ++slot) {
        const bool free =
            (freeMask_[slot >> 6] >> (slot & 63)) & 1u;
        if (!free)
            mshrIndex_.insert(mshrs_[slot].line, slot);
    }
}

} // namespace hermes
