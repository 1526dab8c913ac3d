// Tests for the DDR4 memory controller: timing classes, bus
// serialisation, merging, write handling, the Hermes datapath
// (merge / drop semantics, §6.2), the read queue's line index, issue
// and completion order, checkpoint round trips and the checkpoint
// restore bounds.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <initializer_list>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "dram/dram.hh"
#include "test_helpers.hh"

namespace hermes
{
namespace
{

using test::loadReq;
using test::RecordingClient;

struct DramHarness
{
    explicit DramHarness(DramParams p = DramParams{}) : dram(p)
    {
        dram.setClient(0, &client);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            dram.tick(++now);
    }

    /** Cycles until the next response arrives (asserts it does). */
    Cycle
    latencyOfNextResponse(Cycle limit = 2000)
    {
        const std::size_t before = client.responses.size();
        const Cycle start = now;
        while (client.responses.size() == before && now < start + limit)
            run(1);
        EXPECT_GT(client.responses.size(), before);
        return now - start;
    }

    DramController dram;
    RecordingClient client;
    Cycle now = 0;
};

TEST(Dram, ClosedRowLatency)
{
    DramHarness h;
    h.dram.addRead(loadReq(0x10000));
    // tRCD + tCAS + burst = 50 + 50 + 10 = 110.
    const Cycle lat = h.latencyOfNextResponse();
    EXPECT_GE(lat, 110u);
    EXPECT_LE(lat, 115u);
    EXPECT_EQ(h.dram.stats().rowMisses, 1u);
}

TEST(Dram, RowHitFasterThanConflict)
{
    DramHarness h;
    h.dram.addRead(loadReq(0x10000));
    h.latencyOfNextResponse();

    // Same row: row hit (tCAS + burst = 60).
    h.dram.addRead(loadReq(0x10040, 0x400000, 0, 2));
    const Cycle hit_lat = h.latencyOfNextResponse();
    EXPECT_GE(hit_lat, 60u);
    EXPECT_LE(hit_lat, 65u);
    EXPECT_EQ(h.dram.stats().rowHits, 1u);

    // Different row, same bank: conflict (tRP + tRCD + tCAS + burst).
    const DramParams &p = h.dram.params();
    const unsigned banks = p.ranksPerChannel * p.banksPerRank;
    const Addr conflict =
        0x10000 + static_cast<Addr>(p.rowBufferBytes) * banks;
    h.dram.addRead(loadReq(conflict, 0x400000, 0, 3));
    const Cycle conf_lat = h.latencyOfNextResponse();
    EXPECT_GE(conf_lat, 160u);
    EXPECT_EQ(h.dram.stats().rowConflicts, 1u);
}

TEST(Dram, RowHitsPipelineAtBusRate)
{
    DramHarness h;
    // 8 sequential lines in the same row: after the activation, each
    // additional line should cost ~the bus burst (10 cycles), not tCAS.
    for (int i = 0; i < 8; ++i)
        h.dram.addRead(loadReq(0x20000 + i * 64, 0x400000, 0, i + 1));
    const Cycle start = h.now;
    while (h.client.responses.size() < 8 && h.now < start + 2000)
        h.run(1);
    ASSERT_EQ(h.client.responses.size(), 8u);
    const Cycle total = h.now - start;
    // 110 for the first + ~7*10 for the rest, plus scheduling slack.
    EXPECT_LE(total, 110 + 7 * 10 + 30);
}

TEST(Dram, BankParallelismOverlapsActivations)
{
    DramHarness h;
    const DramParams &p = h.dram.params();
    // Two reads to different banks: total time well under 2x serial.
    h.dram.addRead(loadReq(0x10000, 0x400000, 0, 1));
    h.dram.addRead(loadReq(0x10000 + p.rowBufferBytes, 0x400000, 0, 2));
    const Cycle start = h.now;
    while (h.client.responses.size() < 2 && h.now < start + 2000)
        h.run(1);
    EXPECT_LT(h.now - start, 180u); // serial would be ~220
}

TEST(Dram, ReadsMergeOnSameLine)
{
    DramHarness h;
    h.dram.addRead(loadReq(0x30000, 0x400000, 0, 1));
    h.dram.addRead(loadReq(0x30000, 0x400004, 0, 2));
    h.run(300);
    EXPECT_EQ(h.client.responses.size(), 2u);
    EXPECT_EQ(h.dram.stats().demandReads, 1u);
    EXPECT_EQ(h.dram.stats().readMerges, 1u);
}

TEST(Dram, WriteQueueForwardsToReads)
{
    DramHarness h;
    MemRequest wb = loadReq(0x40000);
    wb.type = AccessType::Writeback;
    h.dram.addWrite(wb);
    h.run(1);
    h.dram.addRead(loadReq(0x40000, 0x400000, 0, 7));
    h.run(5);
    ASSERT_EQ(h.client.responses.size(), 1u); // forwarded immediately
    EXPECT_EQ(h.dram.stats().wqForwards, 1u);
}

TEST(Dram, WritesEventuallyDrain)
{
    DramHarness h;
    for (int i = 0; i < 10; ++i) {
        MemRequest wb = loadReq(0x50000 + i * 64);
        wb.type = AccessType::Writeback;
        h.dram.addWrite(wb);
    }
    h.run(3000);
    EXPECT_EQ(h.dram.stats().writes, 10u);
}

TEST(Dram, ReadQueueFullRejects)
{
    DramParams p;
    p.rqSize = 4;
    DramHarness h(p);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(h.dram.addRead(
            loadReq(0x100000 + i * 0x10000, 0x400000, 0, i + 1)));
    EXPECT_FALSE(h.dram.addRead(loadReq(0x900000, 0x400000, 0, 9)));
}

TEST(Dram, BandwidthScalesWithMtps)
{
    DramParams slow;
    slow.mtps = 200;
    DramParams fast;
    fast.mtps = 12800;
    EXPECT_GT(slow.busCyclesPerLine(), fast.busCyclesPerLine());
    EXPECT_EQ(DramParams{}.busCyclesPerLine(), 10u); // DDR4-3200 @ 4GHz
}

TEST(Dram, ChannelInterleavingByLine)
{
    DramParams p;
    p.channels = 4;
    DramHarness h(p);
    // 4 consecutive lines land in 4 different channels: all four can
    // be in flight with full parallelism.
    for (int i = 0; i < 4; ++i)
        h.dram.addRead(loadReq(i * 64, 0x400000, 0, i + 1));
    const Cycle start = h.now;
    while (h.client.responses.size() < 4 && h.now < start + 1000)
        h.run(1);
    EXPECT_LE(h.now - start, 130u); // ~one access, fully overlapped
}

// ---- Hermes datapath at the MC (paper §6.2) --------------------------

TEST(DramHermes, DroppedWhenNoRegularArrives)
{
    DramHarness h;
    MemRequest hq = loadReq(0x60000);
    hq.type = AccessType::Hermes;
    EXPECT_TRUE(h.dram.addHermes(hq));
    h.run(500);
    EXPECT_EQ(h.dram.stats().hermesIssued, 1u);
    EXPECT_EQ(h.dram.stats().hermesDropped, 1u);
    EXPECT_EQ(h.dram.stats().hermesUseful, 0u);
    // Crucially: no data was returned to any cache (no fill).
    EXPECT_TRUE(h.client.responses.empty());
}

TEST(DramHermes, RegularMergesIntoHermesAndCompletesEarlier)
{
    DramHarness h;
    MemRequest hq = loadReq(0x70000);
    hq.type = AccessType::Hermes;
    h.dram.addHermes(hq);
    h.run(49); // Hermes request under way (issue latency elapsed)

    h.dram.addRead(loadReq(0x70000, 0x400000, 0, 5));
    const Cycle lat = h.latencyOfNextResponse();
    ASSERT_EQ(h.client.responses.size(), 1u);
    EXPECT_TRUE(h.client.responses[0].servedByHermes);
    EXPECT_EQ(h.dram.stats().hermesUseful, 1u);
    EXPECT_EQ(h.dram.stats().hermesDropped, 0u);
    // The regular read waited only the residual latency (~110-49).
    EXPECT_LT(lat, 75u);
}

TEST(DramHermes, HermesMergesIntoExistingRead)
{
    DramHarness h;
    h.dram.addRead(loadReq(0x80000));
    MemRequest hq = loadReq(0x80000);
    hq.type = AccessType::Hermes;
    EXPECT_TRUE(h.dram.addHermes(hq));
    EXPECT_EQ(h.dram.stats().hermesMergedIntoExisting, 1u);
    EXPECT_EQ(h.dram.stats().hermesIssued, 0u);
    h.run(300);
    EXPECT_EQ(h.client.responses.size(), 1u);
    // The pre-existing demand read is not marked Hermes-served.
    EXPECT_FALSE(h.client.responses[0].servedByHermes);
}

TEST(DramHermes, RejectedWhenQueueFull)
{
    DramParams p;
    p.rqSize = 1;
    DramHarness h(p);
    h.dram.addRead(loadReq(0x10000));
    MemRequest hq = loadReq(0x90000);
    hq.type = AccessType::Hermes;
    EXPECT_FALSE(h.dram.addHermes(hq));
    EXPECT_EQ(h.dram.stats().hermesRejected, 1u);
}

TEST(DramHermes, CountsAsMainMemoryRequest)
{
    DramHarness h;
    MemRequest hq = loadReq(0xA0000);
    hq.type = AccessType::Hermes;
    h.dram.addHermes(hq);
    h.run(500);
    EXPECT_EQ(h.dram.stats().totalReads(), 1u);
    EXPECT_EQ(h.dram.stats().hermesReads, 1u);
}

/** @p dram's checkpoint section, sealed with its checksum. */
std::vector<char>
checkpointOf(const DramController &dram)
{
    test::VectorSink sink;
    StateWriter w(sink);
    dram.saveState(w);
    w.sealChecksum();
    return sink.bytes;
}

/** One queue entry as the checkpoint lists it. */
struct EntryView
{
    Addr line = 0;
    bool issued = false;
    Cycle finishAt = 0;
};

/** One channel's queues (arrival order) and data-bus state. */
struct ChannelView
{
    std::vector<EntryView> reads;
    std::vector<EntryView> writes;
    Cycle busFreeAt = 0;
};

/** Decode @p dram's checkpoint section into per-channel views. */
std::vector<ChannelView>
viewOf(const DramController &dram)
{
    test::VectorSource src(checkpointOf(dram));
    StateReader r(src);
    r.section("DRAM");
    std::vector<ChannelView> out(r.u64());
    // line, bank, row, arrival cycle, state, finish cycle
    const auto entry = [&r] {
        EntryView e;
        e.line = r.u64();
        r.u32();
        r.u64();
        r.u64();
        e.issued = r.u8() != 0;
        e.finishAt = r.u64();
        return e;
    };
    for (ChannelView &ch : out) {
        ch.reads.resize(r.u64());
        for (EntryView &e : ch.reads) {
            e = entry();
            r.b(); // hermesOnly
            r.b(); // hermesInitiated
            MemRequest waiter;
            for (std::uint64_t n = r.u64(); n != 0; --n)
                loadMemRequest(r, waiter);
        }
        ch.writes.resize(r.u64());
        for (EntryView &e : ch.writes)
            e = entry();
        for (std::uint64_t n = r.u64(); n != 0; --n) { // banks
            r.b();
            r.u64();
            r.u64();
        }
        ch.busFreeAt = r.u64();
        r.b(); // drainingWrites
        for (int i = 0; i < 4; ++i) // queued/issued read/write counts
            r.u32();
        r.u64(); // nextReadFinish
        r.u64(); // nextWriteFinish
    }
    return out;
}

/**
 * Seeded traffic on 64 lines spread over every bank and several rows,
 * so reads merge, Hermes reads meet regular ones, reads forward from
 * the write queue, FR-FCFS reorders row hits ahead of conflicts and
 * both queues fill: enqueue one random request into @p h, or return a
 * number of cycles for the caller to run (0 after an enqueue).
 */
Cycle
randomOp(DramHarness &h, Rng &rng, int id)
{
    const Addr line = rng.below(64) * 37;
    MemRequest req = loadReq(line << kLogBlockSize, 0x400000, 0, id);
    const double op = rng.uniform();
    if (op < 0.3) {
        h.dram.addRead(req);
    } else if (op < 0.5) {
        req.type = AccessType::Hermes;
        h.dram.addHermes(req);
    } else if (op < 0.65) {
        req.type = AccessType::Writeback;
        h.dram.addWrite(req);
    } else {
        return 1 + rng.below(30);
    }
    return 0;
}

/** Property: under random traffic every accepted read gets exactly one
 * response per waiter, and row stats partition all accesses. */
class DramRandomTraffic : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DramRandomTraffic, ConservesRequests)
{
    DramParams p;
    p.channels = GetParam();
    DramHarness h(p);
    Rng rng(99);
    unsigned accepted = 0;
    for (int i = 0; i < 400; ++i) {
        const Addr addr = (rng.below(1 << 16)) << 6;
        if (rng.chance(0.2)) {
            MemRequest wb = loadReq(addr);
            wb.type = AccessType::Writeback;
            h.dram.addWrite(wb);
        } else if (h.dram.addRead(loadReq(addr, 0x400000, 0, i))) {
            ++accepted;
        }
        h.run(3);
    }
    h.run(30000);
    EXPECT_EQ(h.client.responses.size(), accepted);
    const auto &s = h.dram.stats();
    EXPECT_EQ(s.rowHits + s.rowMisses + s.rowConflicts,
              s.totalReads() + s.writes);
}

/**
 * Property: the shared data bus serialises each channel, so every
 * access (read or write) finishes strictly after the access issued on
 * that channel before it, and every read completes exactly at its
 * finish cycle, in the order the reads were issued. Throughout, the
 * checkpoint lists each channel's reads in arrival order.
 */
TEST_P(DramRandomTraffic, AccessesFinishInIssueOrder)
{
    DramParams p;
    p.channels = GetParam();
    p.rqSize = 8;
    p.wqSize = 8;
    DramHarness h(p);
    Rng rng(31 + GetParam());
    // Per channel: the reads in flight, in issue order.
    std::vector<std::deque<EntryView>> in_flight(p.channels);
    std::vector<ChannelView> before = viewOf(h.dram);
    std::uint64_t issued_reads = 0, issued_writes = 0, completed = 0;

    const auto check = [&] {
        const std::vector<ChannelView> after = viewOf(h.dram);
        for (unsigned c = 0; c < p.channels; ++c) {
            const ChannelView &was = before[c];
            const ChannelView &now = after[c];
            // Reads are unique per line, so a line identifies one.
            const auto issuedRead = [](const ChannelView &v, Addr line) {
                for (const EntryView &e : v.reads)
                    if (e.line == line && e.issued)
                        return true;
                return false;
            };
            // Arrival order: the reads still queued or in flight keep
            // their order, ahead of every read that arrived since.
            std::size_t kept = 0;
            for (const EntryView &e : was.reads)
                for (std::size_t i = kept; i < now.reads.size(); ++i)
                    if (now.reads[i].line == e.line) {
                        EXPECT_EQ(i, kept) << "channel " << c << " line "
                                           << e.line << " moved";
                        kept = i + 1;
                        break;
                    }
            // Completions: reads in flight before, gone now.
            for (const EntryView &e : was.reads) {
                if (!e.issued || issuedRead(now, e.line))
                    continue;
                ASSERT_FALSE(in_flight[c].empty());
                EXPECT_EQ(e.line, in_flight[c].front().line)
                    << "channel " << c << ": completed out of issue order";
                EXPECT_EQ(e.finishAt, h.now)
                    << "channel " << c << ": completed off its finish cycle";
                in_flight[c].pop_front();
                ++completed;
            }
            if (now.busFreeAt == was.busFreeAt)
                continue;
            // An issue: the bus now frees when the new access finishes,
            // strictly after the previous access on the channel did.
            EXPECT_GT(now.busFreeAt, was.busFreeAt) << "channel " << c;
            unsigned found = 0;
            for (const EntryView &e : now.reads)
                if (e.issued && e.finishAt == now.busFreeAt &&
                    !issuedRead(was, e.line)) {
                    in_flight[c].push_back(e);
                    ++found;
                    ++issued_reads;
                }
            for (const EntryView &e : now.writes)
                if (e.issued && e.finishAt == now.busFreeAt) {
                    ++found;
                    ++issued_writes;
                }
            EXPECT_EQ(found, 1u) << "channel " << c << " at " << h.now;
        }
        before = after;
    };

    // Enqueues only add Queued entries, so `before` stays valid.
    for (int i = 0; i < 3000; ++i)
        for (Cycle n = randomOp(h, rng, i); n != 0; --n) {
            h.run(1);
            check();
        }
    while (h.dram.nextEventCycle(h.now) != kNoEventCycle) {
        h.run(1);
        check();
    }
    for (unsigned c = 0; c < p.channels; ++c)
        EXPECT_TRUE(in_flight[c].empty()) << "channel " << c;
    EXPECT_EQ(completed, issued_reads);
    EXPECT_EQ(issued_reads, h.dram.stats().totalReads());
    EXPECT_EQ(issued_writes, h.dram.stats().writes);
    EXPECT_GT(h.dram.stats().writes, 0u);
    EXPECT_GT(h.dram.stats().hermesReads, 0u);
}

/** Run @p a and @p b in lockstep until both are idle; every cycle they
 * must deliver the same responses. */
void
drainInLockstep(DramHarness &a, DramHarness &b)
{
    while (a.dram.nextEventCycle(a.now) != kNoEventCycle ||
           b.dram.nextEventCycle(b.now) != kNoEventCycle) {
        a.run(1);
        b.run(1);
        ASSERT_EQ(a.client.responses.size(), b.client.responses.size())
            << "at cycle " << a.now;
        ASSERT_LT(a.now, 1'000'000u) << "never drained";
    }
    for (std::size_t i = 0; i < a.client.responses.size(); ++i) {
        const MemRequest &x = a.client.responses[i];
        const MemRequest &y = b.client.responses[i];
        EXPECT_EQ(x.id, y.id) << "response " << i;
        EXPECT_EQ(x.address, y.address) << "response " << i;
        EXPECT_EQ(x.cycleMcArrive, y.cycleMcArrive) << "response " << i;
        EXPECT_EQ(x.servedByHermes, y.servedByHermes) << "response " << i;
    }
}

/**
 * Property: a controller checkpointed with reads and writes both
 * queued and in flight restores into a fresh controller that
 * checkpoints to the same bytes, and from there both behave alike: the
 * same responses on the same cycles under the same further traffic.
 */
TEST_P(DramRandomTraffic, CheckpointRoundTripsMidFlight)
{
    DramParams p;
    p.channels = GetParam();
    p.rqSize = 8;
    p.wqSize = 8;
    DramHarness a(p);
    Rng rng(17 + GetParam());

    // Some channel holds two queued reads, an issued one, and writes
    // both queued and in flight.
    const auto midFlight = [&] {
        for (const ChannelView &ch : viewOf(a.dram)) {
            unsigned qr = 0, ir = 0, qw = 0, iw = 0;
            for (const EntryView &e : ch.reads)
                ++(e.issued ? ir : qr);
            for (const EntryView &e : ch.writes)
                ++(e.issued ? iw : qw);
            if (qr >= 2 && ir != 0 && qw != 0 && iw != 0)
                return true;
        }
        return false;
    };
    int id = 0;
    for (int round = 0; round < 8; ++round) {
        // Churn first, so slots are reused out of arrival order.
        for (int n = 0; n < 300 || !midFlight(); ++n) {
            ASSERT_LT(n, 100'000) << "never reached a mixed state";
            a.run(randomOp(a, rng, id++));
        }
        const std::vector<char> bytes = checkpointOf(a.dram);
        a.client.responses.clear();

        DramHarness b(p);
        b.now = a.now;
        test::VectorSource src(bytes);
        StateReader r(src);
        b.dram.loadState(r);
        r.verifyChecksum();
        EXPECT_EQ(checkpointOf(b.dram), bytes) << "round " << round;

        // The same further traffic into both, then drain.
        Rng ra(round), rb(round);
        for (int i = 0; i < 300; ++i) {
            a.run(randomOp(a, ra, id + i));
            b.run(randomOp(b, rb, id + i));
            ASSERT_EQ(a.client.responses.size(), b.client.responses.size())
                << "round " << round << ", after operation " << i;
        }
        id += 300;
        drainInLockstep(a, b);
        EXPECT_GT(a.client.responses.size(), 0u);
        EXPECT_EQ(checkpointOf(a.dram), checkpointOf(b.dram))
            << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(Channels, DramRandomTraffic,
                         ::testing::Values(1u, 2u, 4u));

/**
 * Property of the read queue's line index: under a random mix of
 * regular and Hermes reads on a few lines, probeRead is true for every
 * accepted regular read until its data returns, and false everywhere
 * once the controller reports no further work.
 */
class DramLineIndex : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DramLineIndex, TracksEveryQueuedLine)
{
    DramParams p;
    p.channels = GetParam();
    p.rqSize = 4;
    DramHarness h(p);
    constexpr unsigned kLines = 24;
    Rng rng(7 + GetParam());
    std::vector<unsigned> waiting(kLines, 0); // regular reads in flight
    std::size_t seen = 0;
    std::uint64_t regular_into_hermes = 0;
    std::uint64_t hermes_into_read = 0;
    std::uint64_t full_rejects = 0;

    const auto check = [&](const char *after) {
        for (; seen < h.client.responses.size(); ++seen) {
            const Addr line = h.client.responses[seen].line();
            ASSERT_LT(line, kLines);
            ASSERT_GT(waiting[line], 0u) << "an unrequested response";
            --waiting[line];
            if (h.client.responses[seen].servedByHermes)
                ++regular_into_hermes;
        }
        const bool idle = h.dram.nextEventCycle(h.now) == kNoEventCycle;
        for (Addr line = 0; line < kLines; ++line) {
            if (waiting[line] != 0) {
                ASSERT_TRUE(h.dram.probeRead(line))
                    << "line " << line << " after " << after;
            }
            if (idle) {
                ASSERT_FALSE(h.dram.probeRead(line))
                    << "line " << line << " idle, after " << after;
            }
        }
    };

    for (int i = 0; i < 4000; ++i) {
        const Addr line = rng.below(kLines);
        const MemRequest req = loadReq(line << kLogBlockSize, 0x400000, 0, i);
        const double op = rng.uniform();
        if (op < 0.45) {
            if (h.dram.addRead(req))
                ++waiting[line];
            else
                ++full_rejects;
            check("addRead");
        } else if (op < 0.8) {
            MemRequest hq = req;
            hq.type = AccessType::Hermes;
            const auto merged = h.dram.stats().hermesMergedIntoExisting;
            const bool had_read = waiting[line] != 0;
            if (!h.dram.addHermes(hq))
                ++full_rejects;
            else if (had_read &&
                     h.dram.stats().hermesMergedIntoExisting > merged)
                ++hermes_into_read;
            check("addHermes");
        } else {
            h.run(1 + rng.below(120));
            check("tick");
        }
    }
    while (h.dram.nextEventCycle(h.now) != kNoEventCycle) {
        h.run(1);
        check("drain");
    }
    for (Addr line = 0; line < kLines; ++line) {
        EXPECT_EQ(waiting[line], 0u) << "line " << line;
        EXPECT_FALSE(h.dram.probeRead(line)) << "line " << line;
    }
    EXPECT_GT(regular_into_hermes, 0u);
    EXPECT_GT(hermes_into_read, 0u);
    EXPECT_GT(full_rejects, 0u);
}

INSTANTIATE_TEST_SUITE_P(Channels, DramLineIndex,
                         ::testing::Values(1u, 2u, 4u));

// ---- Checkpoint restore bounds ----------------------------------------

/** Restore @p bytes into a fresh controller; throws on a defect. */
void
restore(const DramParams &p, const std::vector<char> &bytes)
{
    DramController dram(p);
    test::VectorSource src(bytes);
    StateReader r(src);
    dram.loadState(r);
    r.verifyChecksum();
}

/** Queue a Hermes read (no waiter, so a fixed-size entry) per line. */
void
queueHermes(DramController &dram, const std::vector<Addr> &lines)
{
    for (const Addr line : lines) {
        MemRequest hq = loadReq(line << kLogBlockSize);
        hq.type = AccessType::Hermes;
        ASSERT_TRUE(dram.addHermes(hq));
    }
}

TEST(DramCheckpoint, RejectsMoreReadsThanTheQueueHolds)
{
    DramParams big;
    big.rqSize = 5;
    DramController full(big);
    queueHermes(full, {1, 2, 3, 4, 5});
    const std::vector<char> bytes = checkpointOf(full);
    EXPECT_NO_THROW(restore(big, bytes));

    DramParams small = big;
    small.rqSize = 4; // the section holds rqSize + 1 entries
    EXPECT_THROW(restore(small, bytes), StateError);
}

TEST(DramCheckpoint, RejectsARepeatedLine)
{
    DramParams p;
    DramController dram(p);
    queueHermes(dram, {11, 22});
    const std::vector<char> good = checkpointOf(dram);
    EXPECT_NO_THROW(restore(p, good));

    // Layout: "DRAM" tag (u64 length + 4 bytes), u64 channel count,
    // u64 read count, then per read: line, bank, row, arrived, state,
    // finishAt, hermesOnly, hermesInitiated, waiter count (47 bytes
    // with no waiters).
    const std::size_t second_line = 8 + 4 + 8 + 8 + 47;
    const auto withSecondLine = [&](Addr line) {
        std::vector<char> bytes = good;
        std::uint64_t was = 0;
        std::memcpy(&was, bytes.data() + second_line, 8);
        EXPECT_EQ(was, 22u) << "the layout above is stale";
        for (int i = 0; i < 8; ++i)
            bytes[second_line + i] = static_cast<char>(line >> (8 * i));
        test::resealChecksum(bytes);
        return bytes;
    };
    EXPECT_NO_THROW(restore(p, withSecondLine(33)));
    EXPECT_THROW(restore(p, withSecondLine(11)), StateError);
}

TEST(DramCheckpoint, RejectsStateThatDisagreesWithTheQueue)
{
    DramParams p;
    DramController dram(p);
    ASSERT_TRUE(dram.addRead(loadReq(7 << kLogBlockSize)));
    const std::vector<char> good = checkpointOf(dram);
    EXPECT_NO_THROW(restore(p, good));

    // good with each byte at `at` rewritten from `was` to `now`, then
    // resealed once.
    struct Edit
    {
        std::size_t at;
        char was, now;
    };
    const auto edited = [&](std::initializer_list<Edit> edits) {
        std::vector<char> bytes = good;
        for (const Edit &e : edits) {
            EXPECT_EQ(bytes[e.at], e.was) << "the layout below is stale";
            bytes[e.at] = e.now;
        }
        test::resealChecksum(bytes);
        return bytes;
    };
    // The one channel's section ends with queuedReads, issuedReads,
    // queuedWrites, issuedWrites (u32 each) and nextReadFinish,
    // nextWriteFinish (u64 each); the controller clock (u64) and the
    // checksum (u64) follow.
    const std::size_t queued_reads = good.size() - 8 - 8 - 2 * 8 - 4 * 4;
    EXPECT_THROW(restore(p, edited({{queued_reads, 1, 0}})), StateError);
    // The read's state byte: "DRAM" tag, channel and read counts, then
    // line, bank, row and arrival cycle (see RejectsARepeatedLine). A
    // state that is neither Queued nor Issued counts nowhere, so with
    // queuedReads rewritten to match, the counts agree and only the
    // state check rejects the entry.
    const std::size_t state = 8 + 4 + 8 + 8 + 8 + 4 + 8 + 8;
    EXPECT_THROW(restore(p, edited({{state, 0, 2}, {queued_reads, 1, 0}})),
                 StateError);
}

TEST(DramCheckpoint, RejectsReadsFinishingOnOneCycle)
{
    // Two reads in flight on one channel: the data bus serialises
    // them, so they finish on different cycles and restore in that
    // order. Rewriting the second one's finish cycle to the first's is
    // a state the controller can never reach.
    DramParams p;
    DramHarness h(p);
    queueHermes(h.dram, {1, 2});
    ChannelView ch = viewOf(h.dram)[0];
    for (; ch.reads.size() == 2 && !ch.reads[1].issued;
         ch = viewOf(h.dram)[0])
        h.run(1);
    ASSERT_EQ(ch.reads.size(), 2u);
    ASSERT_TRUE(ch.reads[0].issued);
    ASSERT_LT(ch.reads[0].finishAt, ch.reads[1].finishAt);
    const std::vector<char> good = checkpointOf(h.dram);
    EXPECT_NO_THROW(restore(p, good));

    // The second read's finish cycle: "DRAM" tag, channel and read
    // counts, one 47-byte read, then line, bank, row, arrival cycle
    // and state (see RejectsARepeatedLine).
    const std::size_t second_finish = 8 + 4 + 8 + 8 + 47 + 8 + 4 + 8 + 8 + 1;
    std::vector<char> bytes = good;
    std::uint64_t was = 0;
    std::memcpy(&was, bytes.data() + second_finish, 8);
    ASSERT_EQ(was, ch.reads[1].finishAt) << "the layout above is stale";
    for (int i = 0; i < 8; ++i)
        bytes[second_finish + i] =
            static_cast<char>(ch.reads[0].finishAt >> (8 * i));
    test::resealChecksum(bytes);
    EXPECT_THROW(restore(p, bytes), StateError);
}

} // namespace
} // namespace hermes
