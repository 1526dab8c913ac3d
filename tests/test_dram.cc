// Tests for the DDR4 memory controller: timing classes, bus
// serialisation, merging, write handling, the Hermes datapath
// (merge / drop semantics, §6.2), the read queue's line index and the
// checkpoint restore bounds.

#include <gtest/gtest.h>

#include <cstring>
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

} // namespace
} // namespace hermes
