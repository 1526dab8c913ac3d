#include "dram/dram.hh"

#include <algorithm>
#include <cassert>

namespace hermes
{

DramController::Channel::Channel(const DramParams &p)
    : reads(p.rqSize), issuedReads(p.rqSize), readSlots(p.rqSize),
      banks(p.ranksPerChannel * p.banksPerRank)
{
    queuedReads.reserve(p.rqSize);
    freeSlotsFrom(0);
}

void
DramController::Channel::freeSlotsFrom(std::uint32_t first)
{
    freeReads.clear();
    for (auto slot = static_cast<std::uint32_t>(reads.size()); slot > first;)
        freeReads.push_back(--slot);
}

DramController::DramController(DramParams params) : params_(params)
{
    assert(params_.channels > 0);
    channels_.reserve(params_.channels);
    for (unsigned c = 0; c < params_.channels; ++c)
        channels_.emplace_back(params_);
}

void
DramController::setClient(int core_id, MemClient *client)
{
    if (clients_.size() <= static_cast<std::size_t>(core_id))
        clients_.resize(core_id + 1, nullptr);
    clients_[core_id] = client;
}

unsigned
DramController::channelOf(Addr line) const
{
    return static_cast<unsigned>(line % params_.channels);
}

void
DramController::place(Addr line, std::uint32_t &bank,
                      std::uint64_t &row) const
{
    // Consecutive lines of a channel fill a row, consecutive rows
    // stripe across the banks.
    const Addr l = line / params_.channels;
    const Addr stripe = l / (params_.rowBufferBytes / kBlockSize);
    const unsigned banks = params_.ranksPerChannel * params_.banksPerRank;
    bank = static_cast<std::uint32_t>(stripe % banks);
    row = stripe / banks;
}

DramController::ReadEntry *
DramController::enqueueRead(Channel &ch, Addr line, bool hermes)
{
    if (ch.freeReads.empty())
        return nullptr;
    const std::uint32_t slot = ch.freeReads.back();
    ch.freeReads.pop_back();
    ReadEntry &e = ch.reads[slot];
    e.line = line;
    place(line, e.bank, e.row);
    e.arrived = now_;
    e.seq = ch.nextReadSeq++;
    e.state = State::Queued;
    e.finishAt = 0;
    e.hermesOnly = hermes;
    e.hermesInitiated = hermes;
    e.waiters.clear();
    ch.readSlots.insert(line, slot);
    ch.queuedReads.push_back(slot);
    ch.readSchedBlockedUntil = 0;
    return &e;
}

void
DramController::deliver(const MemRequest &resp)
{
    const auto idx = static_cast<std::size_t>(resp.coreId);
    if (idx < clients_.size() && clients_[idx] != nullptr)
        clients_[idx]->returnData(resp);
}

bool
DramController::addRead(const MemRequest &req)
{
    Channel &ch = channels_[channelOf(req.line())];
    MemRequest w = req;
    w.cycleMcArrive = now_;

    // Read-after-write forwarding from the write queue.
    if (!ch.wq.empty() && ch.wqLines.count(req.line()) != 0) {
        ++stats_.wqForwards;
        w.servedFrom = MemLevel::Dram;
        deliver(w);
        return true;
    }

    // Merge with an in-flight read (regular or Hermes) to the same line.
    const std::uint32_t slot = ch.readSlots.find(req.line());
    if (slot != AddrIndex::kNotFound) {
        ReadEntry &e = ch.reads[slot];
        if (e.hermesInitiated && e.hermesOnly)
            w.servedByHermes = true;
        e.waiters.push_back(w);
        e.hermesOnly = false;
        ++stats_.readMerges;
        return true;
    }

    ReadEntry *e = enqueueRead(ch, req.line(), false);
    if (e == nullptr)
        return false;
    e->waiters.push_back(w);
    return true;
}

bool
DramController::addHermes(const MemRequest &req)
{
    Channel &ch = channels_[channelOf(req.line())];

    // Already in flight (regular or another Hermes request): nothing to
    // do, the data is on its way.
    if (ch.readSlots.contains(req.line())) {
        ++stats_.hermesMergedIntoExisting;
        return true;
    }
    if (enqueueRead(ch, req.line(), true) == nullptr) {
        ++stats_.hermesRejected;
        return false;
    }
    ++stats_.hermesIssued;
    return true;
}

bool
DramController::addWrite(const MemRequest &req)
{
    Channel &ch = channels_[channelOf(req.line())];
    // Soft-bounded like the cache write path; pressure shows up through
    // drain mode stealing read bandwidth.
    WriteEntry w;
    w.line = req.line();
    place(w.line, w.bank, w.row);
    w.arrived = req.cycleCreated;
    ++ch.wqLines[w.line];
    ch.wq.push_back(w);
    ++ch.queuedWrites;
    return true;
}

Cycle
DramController::access(Channel &ch, std::uint32_t bank, std::uint64_t row,
                       Cycle now)
{
    Bank &b = ch.banks[bank];
    const Cycle start = std::max(now, b.readyAt);
    // CAS latency is pipelined: consecutive column reads to an open row
    // are spaced by the data burst (tCCD), not by tCAS. Activation and
    // precharge do occupy the bank.
    Cycle latency;      // command-to-data latency
    Cycle bank_busy;    // cycles the bank cannot accept a new command
    if (b.open && b.row == row) {
        latency = params_.tCas;
        bank_busy = params_.busCyclesPerLine();
        ++stats_.rowHits;
    } else if (!b.open) {
        latency = params_.tRcd + params_.tCas;
        bank_busy = params_.tRcd + params_.busCyclesPerLine();
        ++stats_.rowMisses;
    } else {
        latency = params_.tRp + params_.tRcd + params_.tCas;
        bank_busy = params_.tRp + params_.tRcd +
                    params_.busCyclesPerLine();
        ++stats_.rowConflicts;
    }
    b.open = true;
    b.row = row;

    // Data transfer occupies the shared channel bus, so every access
    // finishes strictly after the one issued before it on the channel:
    // the issue-order FIFO of in-flight reads relies on this.
    const Cycle data_start = std::max(start + latency, ch.busFreeAt);
    const Cycle finish = data_start + params_.busCyclesPerLine();
    ch.busFreeAt = finish;
    b.readyAt = start + bank_busy +
                (data_start - (start + latency)); // inherit bus backlog
    return finish;
}

bool
DramController::drainsWrites(const Channel &ch) const
{
    // Write drain hysteresis: start draining when the WQ is deep or
    // reads are absent; leave drain mode quickly once pressure eases
    // so reads are not starved behind long write bursts.
    const unsigned writes = ch.queuedWrites + ch.issuedWrites;
    const bool reads = !ch.queuedReads.empty() || !ch.issuedReads.empty();
    bool draining = ch.drainingWrites;
    if (writes >= params_.wqSize * 7 / 8 || (!reads && writes != 0))
        draining = true;
    if (writes == 0 || (writes <= params_.wqSize / 2 && reads))
        draining = false;
    return draining;
}

void
DramController::scheduleReads(Channel &ch, Cycle now)
{
    // FR-FCFS over the Queued reads in arrival order: prefer the
    // oldest row-hit among ready banks, else the oldest request whose
    // bank is ready.
    const std::size_t none = ch.queuedReads.size();
    std::size_t pick = none;
    Cycle earliest_bank = kNoEventCycle;
    for (std::size_t i = 0; i < ch.queuedReads.size(); ++i) {
        const ReadEntry &e = ch.reads[ch.queuedReads[i]];
        const Bank &b = ch.banks[e.bank];
        if (b.readyAt > now) {
            earliest_bank = std::min(earliest_bank, b.readyAt);
            continue;
        }
        if (b.open && b.row == e.row) {
            pick = i;
            break;
        }
        if (pick == none)
            pick = i;
    }
    if (pick == none) {
        // Every queued entry's bank is busy; nothing can be picked
        // before the earliest bank frees up, so skip the scan until
        // then (bank readyAt values only ever move later, and a new
        // arrival clears the bound).
        ch.readSchedBlockedUntil = earliest_bank;
        return;
    }
    ch.readSchedBlockedUntil = 0;
    const std::uint32_t slot = ch.queuedReads[pick];
    ch.queuedReads.erase(ch.queuedReads.begin() +
                         static_cast<std::ptrdiff_t>(pick));
    ReadEntry &e = ch.reads[slot];
    e.state = State::Issued;
    e.finishAt = access(ch, e.bank, e.row, now);
    if (ch.issuedReads.empty())
        ch.nextReadFinish = e.finishAt;
    ch.issuedReads.push_back(slot);
}

void
DramController::scheduleWrites(Channel &ch, Cycle now)
{
    auto it = std::find_if(ch.wq.begin(), ch.wq.end(), [&](const auto &w) {
        return w.state == State::Queued && ch.banks[w.bank].readyAt <= now;
    });
    if (it == ch.wq.end())
        return;
    it->state = State::Issued;
    it->finishAt = access(ch, it->bank, it->row, now);
    --ch.queuedWrites;
    ch.nextWriteFinish = ch.issuedWrites == 0
                             ? it->finishAt
                             : std::min(ch.nextWriteFinish, it->finishAt);
    ++ch.issuedWrites;
}

void
DramController::completeReads(Channel &ch, Cycle now)
{
    // Reads finish in issue order, so the finished ones are a prefix
    // of the FIFO.
    while (!ch.issuedReads.empty() && ch.nextReadFinish <= now) {
        const std::uint32_t slot = ch.issuedReads.front();
        ch.issuedReads.pop_front();
        ch.nextReadFinish = ch.issuedReads.empty()
                                ? 0
                                : ch.reads[ch.issuedReads.front()].finishAt;
        ReadEntry &e = ch.reads[slot];
        // Account the serviced read once, by its originating class.
        if (e.hermesInitiated)
            ++stats_.hermesReads;
        else if (!e.waiters.empty() &&
                 e.waiters.front().type == AccessType::Prefetch)
            ++stats_.prefetchReads;
        else
            ++stats_.demandReads;

        if (e.hermesInitiated) {
            if (e.waiters.empty())
                ++stats_.hermesDropped; // §6.2.2: drop, no cache fill.
            else
                ++stats_.hermesUseful;
        }
        for (MemRequest w : e.waiters) {
            w.servedFrom = MemLevel::Dram;
            deliver(w);
        }
        ch.readSlots.erase(e.line);
        ch.freeReads.push_back(slot);
    }
}

void
DramController::completeWrites(Channel &ch, Cycle now)
{
    Cycle next_write = 0;
    bool have_next_write = false;
    unsigned w_issued_left = ch.issuedWrites;
    for (auto it = ch.wq.begin();
         w_issued_left != 0 && it != ch.wq.end();) {
        if (it->state == State::Issued && it->finishAt <= now) {
            ++stats_.writes;
            --w_issued_left;
            --ch.issuedWrites;
            const auto lit = ch.wqLines.find(it->line);
            if (lit != ch.wqLines.end() && --lit->second == 0)
                ch.wqLines.erase(lit);
            it = ch.wq.erase(it);
        } else {
            if (it->state == State::Issued) {
                --w_issued_left;
                if (!have_next_write || it->finishAt < next_write) {
                    next_write = it->finishAt;
                    have_next_write = true;
                }
            }
            ++it;
        }
    }
    ch.nextWriteFinish = next_write;
}

void
DramController::tick(Cycle now)
{
    now_ = now;
    for (auto &ch : channels_) {
        const bool reads_done =
            !ch.issuedReads.empty() && ch.nextReadFinish <= now;
        const bool writes_done =
            ch.issuedWrites != 0 && ch.nextWriteFinish <= now;
        // Idle fast path: nothing completes this cycle and nothing is
        // waiting for a bank, so no step below can make progress — and
        // the drain-mode hysteresis is a pure function of queue sizes,
        // which cannot have changed since it last ran.
        if (!reads_done && !writes_done && ch.queuedReads.empty() &&
            ch.queuedWrites == 0)
            continue;
        if (reads_done)
            completeReads(ch, now);
        if (writes_done)
            completeWrites(ch, now);
        ch.drainingWrites = drainsWrites(ch);

        // The FR-FCFS scan can only pick a Queued entry — and, for
        // reads, only once the earliest busy bank it last saw frees up.
        if (ch.drainingWrites) {
            if (ch.queuedWrites != 0)
                scheduleWrites(ch, now);
        } else if (!ch.queuedReads.empty() &&
                   now >= ch.readSchedBlockedUntil) {
            scheduleReads(ch, now);
        }
    }
}

Cycle
DramController::nextEventCycle(Cycle now) const
{
    const Cycle next = now + 1;
    Cycle horizon = kNoEventCycle;
    for (const Channel &ch : channels_) {
        if (!ch.issuedReads.empty()) {
            if (ch.nextReadFinish <= now)
                return next;
            horizon = std::min(horizon, ch.nextReadFinish);
        }
        if (ch.issuedWrites != 0) {
            if (ch.nextWriteFinish <= now)
                return next;
            horizon = std::min(horizon, ch.nextWriteFinish);
        }
        // Mirror the write-drain hysteresis the next tick will apply.
        // Inside an event-free span the queue sizes cannot change, so
        // the flag tick() recomputes is a pure function of today's
        // sizes: it selects the side the scheduler will actually scan.
        if (drainsWrites(ch)) {
            unsigned left = ch.queuedWrites;
            for (const WriteEntry &e : ch.wq) {
                if (left == 0)
                    break;
                if (e.state != State::Queued)
                    continue;
                --left;
                const Cycle at = ch.banks[e.bank].readyAt;
                if (at <= now)
                    return next;
                horizon = std::min(horizon, at);
            }
        } else if (!ch.queuedReads.empty()) {
            // The scheduler's cached bound is a valid lower bound on
            // the next read issue (cleared on arrivals, and bank
            // readyAt only moves later); reuse it to skip the walk.
            if (ch.readSchedBlockedUntil > now) {
                horizon = std::min(horizon, ch.readSchedBlockedUntil);
                continue;
            }
            for (const std::uint32_t slot : ch.queuedReads) {
                const Cycle at = ch.banks[ch.reads[slot].bank].readyAt;
                if (at <= now)
                    return next;
                horizon = std::min(horizon, at);
            }
        }
    }
    return horizon;
}

bool
DramController::probeRead(Addr line) const
{
    return channels_[channelOf(line)].readSlots.contains(line);
}

void
DramController::saveState(StateWriter &w) const
{
    w.section("DRAM");
    w.u64(channels_.size());
    std::vector<std::uint32_t> order;
    for (const Channel &ch : channels_) {
        // Reads go out in arrival order, whichever slots they hold.
        order = ch.queuedReads;
        for (std::size_t i = 0; i < ch.issuedReads.size(); ++i)
            order.push_back(ch.issuedReads.at(i));
        std::sort(order.begin(), order.end(),
                  [&ch](std::uint32_t a, std::uint32_t b) {
                      return ch.reads[a].seq < ch.reads[b].seq;
                  });
        w.u64(order.size());
        for (const std::uint32_t slot : order) {
            const ReadEntry &e = ch.reads[slot];
            w.u64(e.line);
            w.u32(e.bank);
            w.u64(e.row);
            w.u64(e.arrived);
            w.u8(static_cast<std::uint8_t>(e.state));
            w.u64(e.finishAt);
            w.b(e.hermesOnly);
            w.b(e.hermesInitiated);
            w.u64(e.waiters.size());
            for (const MemRequest &req : e.waiters)
                saveMemRequest(w, req);
        }
        w.u64(ch.wq.size());
        for (const WriteEntry &e : ch.wq) {
            w.u64(e.line);
            w.u32(e.bank);
            w.u64(e.row);
            w.u64(e.arrived);
            w.u8(static_cast<std::uint8_t>(e.state));
            w.u64(e.finishAt);
        }
        w.u64(ch.banks.size());
        for (const Bank &b : ch.banks) {
            w.b(b.open);
            w.u64(b.row);
            w.u64(b.readyAt);
        }
        w.u64(ch.busFreeAt);
        w.b(ch.drainingWrites);
        w.u32(static_cast<std::uint32_t>(ch.queuedReads.size()));
        w.u32(static_cast<std::uint32_t>(ch.issuedReads.size()));
        w.u32(ch.queuedWrites);
        w.u32(ch.issuedWrites);
        w.u64(ch.nextReadFinish);
        w.u64(ch.nextWriteFinish);
    }
    w.u64(now_);
}

void
DramController::loadState(StateReader &r)
{
    r.section("DRAM");
    if (r.u64() != channels_.size())
        throw StateError("dram channel count mismatch");
    const auto state = [&r] {
        const auto s = static_cast<State>(r.u8());
        if (s != State::Queued && s != State::Issued)
            throw StateError("dram entry state is neither queued "
                             "nor issued");
        return s;
    };
    std::vector<std::uint32_t> issued;
    for (Channel &ch : channels_) {
        // The reads fill slots 0, 1, ... in their saved (arrival)
        // order, rebuilding the line index, the Queued list and the
        // issue FIFO. More than rqSize entries or a repeated line is a
        // state the controller can never reach (enqueues stop at
        // rqSize and merge by line), and the index relies on both.
        ch.readSlots.clear();
        ch.queuedReads.clear();
        ch.issuedReads.clear();
        issued.clear();
        const auto nr = static_cast<std::uint32_t>(r.count(params_.rqSize));
        for (std::uint32_t slot = 0; slot < nr; ++slot) {
            ReadEntry &e = ch.reads[slot];
            e.line = r.u64();
            if (ch.readSlots.contains(e.line))
                throw StateError("dram read queue repeats a line");
            ch.readSlots.insert(e.line, slot);
            e.bank = r.u32();
            e.row = r.u64();
            e.arrived = r.u64();
            e.seq = slot;
            e.state = state();
            e.finishAt = r.u64();
            e.hermesOnly = r.b();
            e.hermesInitiated = r.b();
            e.waiters.resize(r.count(1u << 16));
            for (MemRequest &req : e.waiters)
                loadMemRequest(r, req);
            (e.state == State::Queued ? ch.queuedReads : issued)
                .push_back(slot);
        }
        ch.freeSlotsFrom(nr);
        ch.nextReadSeq = nr;
        // Issue order is finish order; two reads finishing on one
        // cycle would have shared the data bus.
        const auto finish = [&ch](std::uint32_t slot) {
            return ch.reads[slot].finishAt;
        };
        std::sort(issued.begin(), issued.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return finish(a) < finish(b);
                  });
        if (std::adjacent_find(issued.begin(), issued.end(),
                               [&](std::uint32_t a, std::uint32_t b) {
                                   return finish(a) == finish(b);
                               }) != issued.end())
            throw StateError("dram reads in flight on one channel "
                             "finish on the same cycle");
        for (const std::uint32_t slot : issued)
            ch.issuedReads.push_back(slot);
        ch.nextReadFinish = issued.empty() ? 0 : finish(issued.front());
        // The write queue's Queued and Issued counts and its earliest
        // Issued finish cycle (0 with none in flight, as the scheduler
        // leaves it).
        ch.wq.clear();
        ch.queuedWrites = ch.issuedWrites = 0;
        ch.nextWriteFinish = 0;
        const std::size_t nw = r.count(1u << 20);
        for (std::size_t i = 0; i < nw; ++i) {
            WriteEntry e;
            e.line = r.u64();
            e.bank = r.u32();
            e.row = r.u64();
            e.arrived = r.u64();
            e.state = state();
            e.finishAt = r.u64();
            if (e.state == State::Queued) {
                ++ch.queuedWrites;
            } else {
                ch.nextWriteFinish =
                    ch.issuedWrites == 0
                        ? e.finishAt
                        : std::min(ch.nextWriteFinish, e.finishAt);
                ++ch.issuedWrites;
            }
            ch.wq.push_back(e);
        }
        if (r.u64() != ch.banks.size())
            throw StateError("dram bank count mismatch");
        for (Bank &b : ch.banks) {
            b.open = r.b();
            b.row = r.u64();
            b.readyAt = r.u64();
        }
        ch.busFreeAt = r.u64();
        ch.drainingWrites = r.b();
        // The scheduler's counts and next-finish cycles are a summary
        // of the entries: reject a stored count the entries disagree
        // with (tick() trusts the counts to decide whether to scan at
        // all, so a wrong one strands a request).
        const unsigned stored[] = {r.u32(), r.u32(), r.u32(), r.u32()};
        if (stored[0] != ch.queuedReads.size() ||
            stored[1] != ch.issuedReads.size() ||
            stored[2] != ch.queuedWrites || stored[3] != ch.issuedWrites)
            throw StateError("dram queue counts disagree with the queues");
        r.u64(); // nextReadFinish and nextWriteFinish, recomputed above
        r.u64();
        // Derived lookup state: rebuild the write-line counts and drop
        // the scheduler's cached bound (it re-establishes on the next
        // scan).
        ch.wqLines.clear();
        for (const WriteEntry &e : ch.wq)
            ++ch.wqLines[e.line];
        ch.readSchedBlockedUntil = 0;
    }
    now_ = r.u64();
}

} // namespace hermes
