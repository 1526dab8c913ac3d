#include "dram/dram.hh"

#include <algorithm>
#include <cassert>

namespace hermes
{

DramController::Channel::Channel(const DramParams &p)
    : banks(p.ranksPerChannel * p.banksPerRank), rqLines(p.rqSize)
{
    rq.reserve(p.rqSize);
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

std::uint32_t
DramController::bankOf(Addr line) const
{
    const Addr l = line / params_.channels;
    const unsigned lines_per_row = params_.rowBufferBytes / kBlockSize;
    const unsigned banks = params_.ranksPerChannel * params_.banksPerRank;
    return static_cast<std::uint32_t>((l / lines_per_row) % banks);
}

std::uint64_t
DramController::rowOf(Addr line) const
{
    const Addr l = line / params_.channels;
    const unsigned lines_per_row = params_.rowBufferBytes / kBlockSize;
    const unsigned banks = params_.ranksPerChannel * params_.banksPerRank;
    return (l / lines_per_row) / banks;
}

bool
DramController::addRead(const MemRequest &req)
{
    Channel &ch = channels_[channelOf(req.line())];

    // Read-after-write forwarding from the write queue (the line set
    // gates the scan so the common no-match case is O(1)).
    if (ch.wqLines.find(req.line()) != ch.wqLines.end())
        for (const auto &w : ch.wq) {
            if (w.line != req.line())
                continue;
            ++stats_.wqForwards;
            MemRequest resp = req;
            resp.servedFrom = MemLevel::Dram;
            resp.cycleMcArrive = now_;
            const auto idx = static_cast<std::size_t>(req.coreId);
            if (idx < clients_.size() && clients_[idx] != nullptr)
                clients_[idx]->returnData(resp);
            return true;
        }

    // Merge with an in-flight read (regular or Hermes) to the same
    // line; rq holds at most one entry per line, so the line set
    // decides in O(1) whether the locating scan is needed at all.
    if (ch.rqLines.contains(req.line()))
        for (auto &e : ch.rq) {
            if (e.line != req.line())
                continue;
            MemRequest w = req;
            w.cycleMcArrive = now_;
            if (e.hermesInitiated && e.hermesOnly)
                w.servedByHermes = true;
            e.waiters.push_back(w);
            e.hermesOnly = false;
            ++stats_.readMerges;
            return true;
        }

    if (ch.rq.size() >= params_.rqSize)
        return false;

    ReadEntry e;
    e.line = req.line();
    e.bank = bankOf(req.line());
    e.row = rowOf(req.line());
    e.arrived = now_;
    e.hermesOnly = false;
    MemRequest w = req;
    w.cycleMcArrive = now_;
    e.waiters.push_back(w);
    ch.rqLines.insert(e.line, 0);
    ch.rq.push_back(std::move(e));
    ++ch.queuedReads;
    ch.readSchedBlockedUntil = 0;
    return true;
}

bool
DramController::addHermes(const MemRequest &req)
{
    Channel &ch = channels_[channelOf(req.line())];

    // Already in flight (regular or another Hermes request): nothing to
    // do, the data is on its way. Pure membership test — no entry needs
    // touching, so the line set answers without any rq scan.
    if (ch.rqLines.contains(req.line())) {
        ++stats_.hermesMergedIntoExisting;
        return true;
    }
    if (ch.rq.size() >= params_.rqSize) {
        ++stats_.hermesRejected;
        return false;
    }
    ReadEntry e;
    e.line = req.line();
    e.bank = bankOf(req.line());
    e.row = rowOf(req.line());
    e.arrived = now_;
    e.hermesOnly = true;
    e.hermesInitiated = true;
    ch.rqLines.insert(e.line, 0);
    ch.rq.push_back(std::move(e));
    ++ch.queuedReads;
    ++stats_.hermesIssued;
    ch.readSchedBlockedUntil = 0;
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
    w.bank = bankOf(req.line());
    w.row = rowOf(req.line());
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

    // Data transfer occupies the shared channel bus.
    const Cycle data_start = std::max(start + latency, ch.busFreeAt);
    const Cycle finish = data_start + params_.busCyclesPerLine();
    ch.busFreeAt = finish;
    b.readyAt = start + bank_busy +
                (data_start - (start + latency)); // inherit bus backlog
    return finish;
}

void
DramController::scheduleReads(Channel &ch, Cycle now)
{
    // FR-FCFS: prefer the oldest row-hit among ready banks, else the
    // oldest request whose bank is ready. Stop scanning once every
    // still-Queued entry has been seen (the tail is all in-flight).
    ReadEntry *pick = nullptr;
    Cycle earliest_bank = kNoEventCycle;
    unsigned queued_left = ch.queuedReads;
    for (auto &e : ch.rq) {
        if (queued_left == 0)
            break;
        if (e.state != State::Queued)
            continue;
        --queued_left;
        const Bank &b = ch.banks[e.bank];
        if (b.readyAt > now) {
            earliest_bank = std::min(earliest_bank, b.readyAt);
            continue;
        }
        if (b.open && b.row == e.row) {
            pick = &e;
            break;
        }
        if (pick == nullptr)
            pick = &e;
    }
    if (pick == nullptr) {
        // Every queued entry's bank is busy; nothing can be picked
        // before the earliest bank frees up, so skip the scan until
        // then (bank readyAt values only ever move later, and a new
        // arrival clears the bound).
        ch.readSchedBlockedUntil = earliest_bank;
        return;
    }
    ch.readSchedBlockedUntil = 0;
    pick->state = State::Issued;
    pick->finishAt = access(ch, pick->bank, pick->row, now);
    --ch.queuedReads;
    ch.nextReadFinish = ch.issuedReads == 0
                            ? pick->finishAt
                            : std::min(ch.nextReadFinish, pick->finishAt);
    ++ch.issuedReads;
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
    Cycle next_read = 0;
    bool have_next_read = false;
    unsigned issued_left = ch.issuedReads;
    for (auto it = ch.rq.begin(); issued_left != 0 && it != ch.rq.end();) {
        if (it->state != State::Issued || it->finishAt > now) {
            if (it->state == State::Issued) {
                --issued_left;
                if (!have_next_read || it->finishAt < next_read) {
                    next_read = it->finishAt;
                    have_next_read = true;
                }
            }
            ++it;
            continue;
        }
        --issued_left;
        --ch.issuedReads;
        // Account the serviced read once, by its originating class.
        if (it->hermesInitiated)
            ++stats_.hermesReads;
        else if (!it->waiters.empty() &&
                 it->waiters.front().type == AccessType::Prefetch)
            ++stats_.prefetchReads;
        else
            ++stats_.demandReads;

        if (it->hermesInitiated) {
            if (it->waiters.empty())
                ++stats_.hermesDropped; // §6.2.2: drop, no cache fill.
            else
                ++stats_.hermesUseful;
        }
        for (MemRequest w : it->waiters) {
            w.servedFrom = MemLevel::Dram;
            const auto idx = static_cast<std::size_t>(w.coreId);
            if (idx < clients_.size() && clients_[idx] != nullptr)
                clients_[idx]->returnData(w);
        }
        ch.rqLines.erase(it->line);
        it = ch.rq.erase(it);
    }
    ch.nextReadFinish = next_read;

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
        if (ch.rq.empty() && ch.wq.empty())
            continue;
        const bool reads_done =
            ch.issuedReads != 0 && ch.nextReadFinish <= now;
        const bool writes_done =
            ch.issuedWrites != 0 && ch.nextWriteFinish <= now;
        // Idle fast path: nothing completes this cycle and nothing is
        // waiting for a bank, so neither sweep can make progress — and
        // the drain-mode hysteresis below is a pure function of queue
        // sizes, which cannot have changed since it last ran.
        if (!reads_done && !writes_done && ch.queuedReads == 0 &&
            ch.queuedWrites == 0)
            continue;
        // Sweep completions only when an in-flight access can actually
        // finish this cycle; otherwise the scan finds nothing.
        if (reads_done || writes_done)
            completeReads(ch, now);

        // Write drain hysteresis: start draining when the WQ is deep or
        // reads are absent; stop when it has mostly emptied.
        if (ch.wq.size() >= params_.wqSize * 7 / 8 ||
            (ch.rq.empty() && !ch.wq.empty()))
            ch.drainingWrites = true;
        // Leave drain mode quickly once pressure eases so reads are
        // not starved behind long write bursts.
        if (ch.wq.empty() ||
            (ch.wq.size() <= params_.wqSize / 2 && !ch.rq.empty()))
            ch.drainingWrites = false;

        // The FR-FCFS scan can only pick a Queued entry — and, for
        // reads, only once the earliest busy bank it last saw frees up.
        if (ch.drainingWrites) {
            if (ch.queuedWrites != 0)
                scheduleWrites(ch, now);
        } else if (ch.queuedReads != 0 &&
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
        if (ch.rq.empty() && ch.wq.empty())
            continue;
        if (ch.issuedReads != 0) {
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
        // sizes; applying the same set-then-clear rules here selects
        // the side the scheduler will actually scan.
        bool draining = ch.drainingWrites;
        if (ch.wq.size() >= params_.wqSize * 7 / 8 ||
            (ch.rq.empty() && !ch.wq.empty()))
            draining = true;
        if (ch.wq.empty() ||
            (ch.wq.size() <= params_.wqSize / 2 && !ch.rq.empty()))
            draining = false;
        if (draining) {
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
        } else if (ch.queuedReads != 0) {
            // The scheduler's cached bound is a valid lower bound on
            // the next read issue (cleared on arrivals, and bank
            // readyAt only moves later); reuse it to skip the walk.
            if (ch.readSchedBlockedUntil > now) {
                horizon = std::min(horizon, ch.readSchedBlockedUntil);
                continue;
            }
            unsigned left = ch.queuedReads;
            for (const ReadEntry &e : ch.rq) {
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
        }
    }
    return horizon;
}

bool
DramController::probeRead(Addr line) const
{
    return channels_[channelOf(line)].rqLines.contains(line);
}

void
DramController::saveState(StateWriter &w) const
{
    w.section("DRAM");
    w.u64(channels_.size());
    for (const Channel &ch : channels_) {
        w.u64(ch.rq.size());
        for (const ReadEntry &e : ch.rq) {
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
        w.u32(ch.queuedReads);
        w.u32(ch.issuedReads);
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
    // A queue's Queued and Issued counts and its earliest Issued finish
    // cycle (0 with none in flight, as the scheduler leaves it).
    const auto recount = [](const auto &q, unsigned &queued,
                            unsigned &issued, Cycle &next_finish) {
        queued = issued = 0;
        next_finish = 0;
        for (const auto &e : q) {
            if (e.state == State::Queued) {
                ++queued;
            } else if (e.state == State::Issued) {
                next_finish = issued == 0 ? e.finishAt
                                          : std::min(next_finish, e.finishAt);
                ++issued;
            } else {
                throw StateError("dram entry state is neither queued "
                                 "nor issued");
            }
        }
    };
    for (Channel &ch : channels_) {
        // The read queue is rebuilt with its line index as it loads:
        // more than rqSize entries or a repeated line is a state the
        // controller can never reach (enqueues stop at rqSize and
        // merge by line), and the index relies on both.
        ch.rq.clear();
        ch.rqLines.clear();
        const std::size_t nr = r.count(params_.rqSize);
        for (std::size_t i = 0; i < nr; ++i) {
            ReadEntry e;
            e.line = r.u64();
            if (ch.rqLines.contains(e.line))
                throw StateError("dram read queue repeats a line");
            ch.rqLines.insert(e.line, 0);
            e.bank = r.u32();
            e.row = r.u64();
            e.arrived = r.u64();
            e.state = static_cast<State>(r.u8());
            e.finishAt = r.u64();
            e.hermesOnly = r.b();
            e.hermesInitiated = r.b();
            e.waiters.resize(r.count(1u << 16));
            for (MemRequest &req : e.waiters)
                loadMemRequest(r, req);
            ch.rq.push_back(std::move(e));
        }
        ch.wq.clear();
        const std::size_t nw = r.count(1u << 20);
        for (std::size_t i = 0; i < nw; ++i) {
            WriteEntry e;
            e.line = r.u64();
            e.bank = r.u32();
            e.row = r.u64();
            e.arrived = r.u64();
            e.state = static_cast<State>(r.u8());
            e.finishAt = r.u64();
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
        // of the entries: recount them, and reject a stored count the
        // entries disagree with (tick() trusts the counts to decide
        // whether to scan at all, so a wrong one strands a request).
        recount(ch.rq, ch.queuedReads, ch.issuedReads, ch.nextReadFinish);
        recount(ch.wq, ch.queuedWrites, ch.issuedWrites,
                ch.nextWriteFinish);
        const unsigned stored[] = {r.u32(), r.u32(), r.u32(), r.u32()};
        if (stored[0] != ch.queuedReads || stored[1] != ch.issuedReads ||
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
