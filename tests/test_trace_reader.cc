// Tests for the streaming trace layer: compressed (gzip/xz)
// round trips, ChampSim import/export determinism — including the
// acceptance property that a captured workload converted to
// compressed ChampSim replays with a statsFingerprint byte-identical
// to the direct synthetic run — chunk-boundary and EOF-loop behavior,
// checkpointed positions restored by seeking (around gzip member
// boundaries, inside a ChampSim record's expansion, past a loop wrap)
// and the guards on them, corruption/truncation robustness, the
// bounded-memory guarantee and crash-safe publication.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/state_io.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"
#include "trace/trace_io.hh"
#include "trace/trace_reader.hh"
#include "test_helpers.hh"

namespace hermes
{
namespace
{

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Deterministic fixed-pattern workload (no RNG, easy to verify). */
class PatternWorkload : public Workload
{
  public:
    explicit PatternWorkload(std::uint64_t period) : period_(period) {}

    const std::string &name() const override { return name_; }
    const std::string &category() const override { return name_; }

    TraceInstr
    next() override
    {
        const std::uint64_t i = pos_ % period_;
        ++pos_;
        TraceInstr t;
        t.pc = 0x400000 + i * 4;
        switch (i % 4) {
          case 0:
            t.kind = InstrKind::Load;
            t.vaddr = 0x10000 + i * 64;
            t.depDistance = static_cast<std::uint32_t>(i % 7);
            break;
          case 1:
            t.kind = InstrKind::Alu;
            break;
          case 2:
            t.kind = InstrKind::Store;
            t.vaddr = 0x80000 + i * 8;
            break;
          default:
            t.kind = InstrKind::Branch;
            t.branchTaken = i % 8 == 3;
            break;
        }
        return t;
    }

    std::unique_ptr<Workload>
    clone(std::uint64_t) const override
    {
        return std::make_unique<PatternWorkload>(period_);
    }

  private:
    std::string name_ = "pattern";
    std::uint64_t period_;
    std::uint64_t pos_ = 0;
};

class TraceReaderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = ::testing::TempDir() + "hermes_reader_test";
    }

    void
    TearDown() override
    {
        for (const std::string &p : created_)
            std::remove(p.c_str());
    }

    std::string
    path(const std::string &suffix)
    {
        const std::string p = base_ + suffix;
        created_.push_back(p);
        return p;
    }

    std::string base_;
    std::vector<std::string> created_;
};

/** Capture @p count instructions and verify an identical replay. */
void
expectRoundTrip(const std::string &path, std::uint64_t count)
{
    PatternWorkload source(1000);
    ASSERT_EQ(0u, writeTraceFile(path, source, count, "pattern", "TEST"));
    FileWorkload replay(path);
    EXPECT_EQ(replay.recordCount(), count);
    PatternWorkload reference(1000);
    for (std::uint64_t i = 0; i < count; ++i) {
        const TraceInstr a = reference.next();
        const TraceInstr b = replay.next();
        ASSERT_EQ(a.pc, b.pc) << i;
        ASSERT_EQ(a.vaddr, b.vaddr) << i;
        ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
        ASSERT_EQ(a.branchTaken, b.branchTaken) << i;
        ASSERT_EQ(a.depDistance, b.depDistance) << i;
    }
}

TEST_F(TraceReaderTest, GzipRoundTrip)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "zlib not compiled in";
    expectRoundTrip(path(".hrm.gz"), 20'000);
}

TEST_F(TraceReaderTest, XzRoundTrip)
{
    if (!compressionSupported(Compression::Xz))
        GTEST_SKIP() << "liblzma not compiled in";
    expectRoundTrip(path(".hrm.xz"), 20'000);
}

TEST_F(TraceReaderTest, CompressionDetectedByMagicNotName)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "zlib not compiled in";
    // Write gzip bytes, then strip the ".gz" from the name: the reader
    // must still decompress (magic sniffing), since real trace
    // collections are full of misnamed files.
    const std::string gz = path(".hrm.gz");
    const std::string plain = path(".renamed.hrm");
    PatternWorkload source(100);
    ASSERT_EQ(0u, writeTraceFile(gz, source, 500, "pattern", "TEST"));
    ASSERT_EQ(0, std::rename(gz.c_str(), plain.c_str()));
    FileWorkload replay(plain);
    EXPECT_EQ(replay.recordCount(), 500u);
    EXPECT_EQ(replay.name(), "pattern");
}

TEST_F(TraceReaderTest, ChampSimExactRoundTrip)
{
    // Every suite-relevant feature (kinds, taken bits, load deps up to
    // 255) must survive HRMTRACE -> ChampSim -> replay unchanged.
    const std::string cs = path(".champsimtrace");
    const TraceSpec spec = findTrace("spec06.mcf_like.0");
    auto source = spec.make();
    ASSERT_EQ(0u, writeTraceFile(cs, *source, 5000, spec.name(),
                                 spec.category()));
    FileWorkload replay(cs);
    EXPECT_EQ(replay.recordCount(), 5000u);
    auto reference = spec.make();
    for (int i = 0; i < 5000; ++i) {
        const TraceInstr a = reference->next();
        const TraceInstr b = replay.next();
        ASSERT_EQ(a.pc, b.pc) << i;
        ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
            << i;
        ASSERT_EQ(a.vaddr, b.vaddr) << i;
        ASSERT_EQ(a.branchTaken, b.branchTaken) << i;
        ASSERT_EQ(a.depDistance, b.depDistance) << i;
    }
}

TEST_F(TraceReaderTest, ChampSimGzipReplayMatchesSyntheticFingerprint)
{
    // The acceptance property for the whole ingestion pipeline: a
    // captured suite workload exported to gzip'd ChampSim format and
    // replayed through the streaming reader must simulate to a
    // statsFingerprint byte-identical to running the synthetic
    // generator directly.
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "zlib not compiled in";
    const std::string cs = path(".champsimtrace.gz");
    const TraceSpec spec = findTrace("spec06.mcf_like.0");
    const SimBudget budget{2000, 8000};
    // The core fetches ahead of the measured window by up to the ROB
    // depth; capture enough margin that replay never wraps early.
    const std::uint64_t capture =
        budget.warmupInstrs + budget.simInstrs + 4096;
    auto source = spec.make();
    ASSERT_EQ(0u, writeTraceFile(cs, *source, capture, spec.name(),
                                 spec.category()));

    TraceSpec file_spec;
    file_spec.source = TraceSource::File;
    file_spec.filePath = cs;
    file_spec.params.name = spec.name();
    file_spec.params.category = spec.category();

    const SystemConfig cfg = SystemConfig::baseline(1);
    const RunStats direct = simulate(cfg, {spec}, budget);
    const RunStats replayed = simulate(cfg, {file_spec}, budget);
    EXPECT_EQ(fingerprintHex(statsFingerprint(direct)),
              fingerprintHex(statsFingerprint(replayed)));
}

TEST_F(TraceReaderTest, LoopBoundaryStraddlesChunks)
{
    // 24-byte records do not divide the reader's chunk size, so a
    // multi-chunk trace exercises records straddling refills; looping
    // twice through must reproduce the stream exactly.
    const std::string p = path(".hrm");
    const std::uint64_t n = 30'000;
    PatternWorkload source(997);
    ASSERT_EQ(0u, writeTraceFile(p, source, n, "pattern", "TEST"));
    FileWorkload replay(p);
    std::vector<TraceInstr> first;
    first.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        first.push_back(replay.next());
    for (std::uint64_t i = 0; i < n; ++i) {
        const TraceInstr t = replay.next();
        ASSERT_EQ(t.pc, first[i].pc) << i;
        ASSERT_EQ(t.vaddr, first[i].vaddr) << i;
        ASSERT_EQ(t.depDistance, first[i].depDistance) << i;
    }
}

bool
sameInstr(const TraceInstr &a, const TraceInstr &b)
{
    return a.pc == b.pc && a.vaddr == b.vaddr &&
           a.depDistance == b.depDistance && a.kind == b.kind &&
           a.branchTaken == b.branchTaken;
}

/** @p w's checkpoint section, sealed with its checksum. */
std::vector<char>
checkpointOf(const FileWorkload &w)
{
    test::VectorSink sink;
    StateWriter writer(sink);
    w.saveState(writer);
    writer.sealChecksum();
    return sink.bytes;
}

/** Restore @p bytes into a fresh replay of @p path; throws on a defect. */
std::unique_ptr<FileWorkload>
restoredFrom(const std::string &path, const std::vector<char> &bytes,
             std::size_t max_read = 0)
{
    auto w = std::make_unique<FileWorkload>(path);
    test::VectorSource src(bytes, max_read);
    StateReader reader(src);
    w->loadState(reader);
    reader.verifyChecksum();
    return w;
}

/**
 * Advance a replay of @p path by @p consumed instructions and
 * checkpoint it; a fresh replay restored from that checkpoint (through
 * whole-buffer, 1-byte and 7-byte reads) must then yield the same
 * next @p n instructions.
 */
void
expectRestoreContinues(const std::string &path, std::uint64_t consumed,
                       std::uint64_t n)
{
    FileWorkload original(path);
    for (std::uint64_t i = 0; i < consumed; ++i)
        static_cast<void>(original.next());
    const std::vector<char> bytes = checkpointOf(original);
    std::vector<TraceInstr> want(n);
    for (TraceInstr &t : want)
        t = original.next();
    for (const std::size_t max_read : {0u, 1u, 7u}) {
        SCOPED_TRACE(path + " after " + std::to_string(consumed) +
                     ", reads of " + std::to_string(max_read));
        const auto restored = restoredFrom(path, bytes, max_read);
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_TRUE(sameInstr(restored->next(), want[i])) << i;
    }
}

TEST_F(TraceReaderTest, RestoreSeeksAroundMemberBoundaries)
{
    // Cursors just before, at and just after the first 256 KiB gzip
    // member boundary, with the records aligned to it (a 40-byte
    // header) and one straddling it (43 bytes), in every encoding;
    // then at the loop end and past the wrap.
    constexpr std::uint64_t kRecords = 12'000; // two members of records
    for (const char *category : {"T", "TEST"}) {
        for (const char *ext : {".hrm", ".hrm.gz", ".hrm.xz"}) {
            const std::string p = path(std::string(".") + category + ext);
            if (!compressionSupported(compressionForPath(p)))
                continue;
            PatternWorkload source(997);
            ASSERT_EQ(0u, writeTraceFile(p, source, kRecords, "pattern",
                                         category));
            const std::uint64_t header = 32 + 7 + std::strlen(category);
            const std::uint64_t edge = (kGzipMemberBytes - header) / 24;
            for (std::uint64_t k = edge - 1; k <= edge + 1; ++k)
                expectRestoreContinues(p, k, 2'000); // crosses the wrap
            expectRestoreContinues(p, kRecords, 100);
            expectRestoreContinues(p, kRecords + edge, 100);
        }
    }
}

/**
 * Write @p records ChampSim records at @p path (compression by name):
 * each expands to two loads and, when even, a store, and reads a
 * register an earlier record wrote.
 */
void
writeMultiOpChampSim(const std::string &path, std::uint64_t records)
{
    auto sink = openByteSink(path, compressionForPath(path));
    auto put64 = [](unsigned char *at, std::uint64_t v) {
        std::memcpy(at, &v, sizeof(v));
    };
    for (std::uint64_t r = 0; r < records; ++r) {
        unsigned char rec[64] = {};
        put64(rec + 0, 0x400000 + 4 * r);                       // ip
        rec[10] = static_cast<unsigned char>(1 + (r * 7) % 13); // dest
        rec[12] = static_cast<unsigned char>(1 + r % 13);       // src
        put64(rec + 32, 0x10000 + 64 * r);                      // srcMem
        put64(rec + 40, 0x90000 + 8 * r);
        if (r % 2 == 0)
            put64(rec + 16, 0x50000 + 8 * r); // destMem
        sink->write(rec, sizeof(rec));
    }
    sink->finish();
}

/** Instructions of the records writeMultiOpChampSim wrote before @p r. */
constexpr std::uint64_t
multiOpInstrs(std::uint64_t r)
{
    return 2 * r + (r + 1) / 2;
}

TEST_F(TraceReaderTest, ChampSimRestoreKeepsExpansionState)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "zlib not compiled in";
    // A checkpoint can fall inside a record's expansion, and the
    // last-writer table carries dependences across the cursor.
    const std::string p = path(".champsimtrace.gz");
    constexpr std::uint64_t kRecords = 6'000;
    writeMultiOpChampSim(p, kRecords);
    // The first member holds records [0, 4096).
    constexpr std::uint64_t kEdge = multiOpInstrs(4096);
    for (std::uint64_t k = kEdge - 4; k <= kEdge + 4; ++k)
        expectRestoreContinues(p, k, 3'000);
    expectRestoreContinues(p, multiOpInstrs(kRecords) + kEdge + 1, 100);
}

/**
 * @p bytes, a checkpoint of a trace named @p name, with the u64 field
 * @p field after the name set to @p value (0 instruction count, 1 loop
 * position, 2 file size, 3 and 4 restart point, 5 cursor) and the
 * checksum resealed, so only the restore's own checks can reject it.
 */
std::vector<char>
withField(std::vector<char> bytes, const std::string &name, int field,
          std::uint64_t value)
{
    const std::size_t at = 8 + 4 + 8 + name.size() + 8 * field;
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<char>(value >> (8 * i));
    test::resealChecksum(bytes);
    return bytes;
}

TEST_F(TraceReaderTest, CheckpointGuardsRejectBadPositions)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "zlib not compiled in";
    const std::string p = path(".hrm.gz");
    PatternWorkload source(997);
    ASSERT_EQ(0u, writeTraceFile(p, source, 30'000, "pattern", "TEST"));
    FileWorkload w(p);
    for (int i = 0; i < 20'000; ++i) // the cursor is in the second member
        static_cast<void>(w.next());
    const std::vector<char> good = checkpointOf(w);

    std::int64_t size = 0;
    RestartPoint from;
    std::uint64_t cursor = 0;
    {
        test::VectorSource src(good);
        StateReader r(src);
        r.section("WFIL");
        EXPECT_EQ(r.str(), "pattern");
        EXPECT_EQ(r.u64(), 30'000u);
        EXPECT_EQ(r.u64(), 20'000u);
        size = r.i64();
        from.fileOffset = r.u64();
        from.streamOffset = r.u64();
        cursor = r.u64();
    }
    struct stat st;
    ASSERT_EQ(::stat(p.c_str(), &st), 0);
    EXPECT_EQ(size, st.st_size);
    EXPECT_EQ(cursor, 43u + 20'000u * 24);
    EXPECT_EQ(from.streamOffset, kGzipMemberBytes);

    const auto set = [&good](int field, std::uint64_t value) {
        return withField(good, "pattern", field, value);
    };
    EXPECT_NO_THROW(restoredFrom(p, set(5, cursor)));
    EXPECT_THROW(restoredFrom(p, set(2, size + 1)), StateError)
        << "a trace whose size changed";
    EXPECT_THROW(restoredFrom(p, set(3, size + 1)), std::runtime_error)
        << "a restart offset past the end of the file";
    EXPECT_THROW(restoredFrom(p, set(5, cursor + 24)), StateError)
        << "a cursor that is not record 20000";
    EXPECT_THROW(restoredFrom(p, withField(set(3, 0), "pattern", 4, 0)),
                 std::runtime_error)
        << "a cursor more than one member past its restart point";
}

TEST_F(TraceReaderTest, ChampSimCheckpointGuardsRejectBadPositions)
{
    // Raw files restart exactly at the cursor, and ChampSim cursors
    // have no header arithmetic to match: only the guards keep a bad
    // cursor from seeking past the end, where replay would fail later.
    const std::string p = path(".champsimtrace");
    const std::string name = p.substr(p.find_last_of('/') + 1);
    writeMultiOpChampSim(p, 3'000);
    FileWorkload w(p);
    for (int i = 0; i < 1'001; ++i) // inside record 400's expansion
        static_cast<void>(w.next());
    const std::vector<char> good = checkpointOf(w);
    const std::uint64_t cursor = 401 * 64;
    const std::uint64_t past_end = 3'001 * 64;

    const auto set = [&](int field, std::uint64_t value) {
        return withField(good, name, field, value);
    };
    EXPECT_NO_THROW(restoredFrom(p, set(5, cursor)));
    EXPECT_THROW(restoredFrom(p, set(1, 1'002)), StateError)
        << "a loop position the expansion queue does not add up to";
    EXPECT_THROW(restoredFrom(p, set(5, cursor + 1)), std::runtime_error)
        << "a cursor inside a record";
    const auto past = withField(
        withField(set(3, past_end), name, 4, past_end), name, 5, past_end);
    EXPECT_THROW(restoredFrom(p, past), std::runtime_error)
        << "a cursor past the end of the file";
}

TEST_F(TraceReaderTest, GzipReadsStopAtMemberEnds)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "zlib not compiled in";
    // The sink cuts a member every kGzipMemberBytes of input; a read
    // returns bytes of one member only, so every byte it returned has
    // a known restart point.
    const std::string p = path(".bin.gz");
    std::vector<char> data(2 * kGzipMemberBytes + 1000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<char>(i * 7 + (i >> 9));
    {
        auto sink = openByteSink(p, Compression::Gzip);
        sink->write(data.data(), data.size());
        sink->finish();
    }
    auto src = openByteSource(p);
    std::vector<char> buf(4 * kGzipMemberBytes);
    std::vector<std::size_t> reads;
    std::size_t total = 0;
    while (const std::size_t n =
               src->read(buf.data() + total, buf.size() - total)) {
        reads.push_back(n);
        total += n;
    }
    EXPECT_EQ(reads, (std::vector<std::size_t>{kGzipMemberBytes,
                                               kGzipMemberBytes, 1000}));
    EXPECT_TRUE(std::equal(data.begin(), data.end(), buf.begin()));
    const RestartPoint last = src->restartPoint(total - 1);
    EXPECT_EQ(last.streamOffset, 2 * kGzipMemberBytes);
    EXPECT_GT(last.fileOffset, 0u);
}

TEST_F(TraceReaderTest, TruncatedGzipThrows)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "zlib not compiled in";
    const std::string p = path(".hrm.gz");
    PatternWorkload source(100);
    ASSERT_EQ(0u, writeTraceFile(p, source, 10'000, "pattern", "TEST"));
    std::ifstream in(p, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size() / 2));
    out.close();

    // The header may decompress fine; the damage must surface as an
    // exception while streaming records — never a silent short trace.
    EXPECT_THROW(
        {
            TraceReader reader(openByteSource(p), formatForPath(p));
            TraceInstr t;
            while (reader.next(t)) {
            }
        },
        std::runtime_error);
}

TEST_F(TraceReaderTest, GzipGarbageThrows)
{
    if (!compressionSupported(Compression::Gzip))
        GTEST_SKIP() << "zlib not compiled in";
    const std::string p = path(".hrm.gz");
    std::ofstream out(p, std::ios::binary);
    const unsigned char magic[2] = {0x1f, 0x8b};
    out.write(reinterpret_cast<const char *>(magic), 2);
    out << "this is not a deflate stream, not even close............";
    out.close();
    EXPECT_THROW(
        {
            TraceReader reader(openByteSource(p), formatForPath(p));
            TraceInstr t;
            while (reader.next(t)) {
            }
        },
        std::runtime_error);
}

TEST_F(TraceReaderTest, ChampSimRejectsPartialRecord)
{
    const std::string p = path(".champsimtrace");
    std::ofstream out(p, std::ios::binary);
    const std::string data(64 * 3 + 17, '\0'); // not a multiple of 64
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.close();
    EXPECT_THROW(TraceReader(openByteSource(p), formatForPath(p)),
                 std::runtime_error);
}

TEST_F(TraceReaderTest, ChampSimMultiMemopExpansion)
{
    // Hand-crafted records pin the deterministic expansion order:
    // source-memory loads (slot order), then branch/ALU, then stores —
    // and register-carried load dependences.
    const std::string p = path(".champsimtrace");
    unsigned char recs[3][64];
    std::memset(recs, 0, sizeof(recs));

    auto put64 = [](unsigned char *at, std::uint64_t v) {
        std::memcpy(at, &v, sizeof(v));
    };
    // Record 0: ALU writing register 5 (no memory, not a branch).
    put64(recs[0] + 0, 0x1000);
    recs[0][10] = 5; // destRegs[0]
    // Record 1: two loads + one store; first load depends on reg 5.
    put64(recs[1] + 0, 0x1004);
    recs[1][12] = 5;            // srcRegs[0]
    put64(recs[1] + 32, 0xA000); // srcMem[0]
    put64(recs[1] + 40, 0xB000); // srcMem[1]
    put64(recs[1] + 16, 0xC000); // destMem[0]
    // Record 2: taken branch.
    put64(recs[2] + 0, 0x1008);
    recs[2][8] = 1; // is_branch
    recs[2][9] = 1; // branch_taken

    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char *>(recs), sizeof(recs));
    out.close();

    TraceReader reader(openByteSource(p), formatForPath(p));
    std::vector<TraceInstr> got;
    TraceInstr t;
    while (reader.next(t))
        got.push_back(t);

    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(static_cast<int>(got[0].kind),
              static_cast<int>(InstrKind::Alu)); // record 0
    EXPECT_EQ(static_cast<int>(got[1].kind),
              static_cast<int>(InstrKind::Load));
    EXPECT_EQ(got[1].vaddr, 0xA000u);
    // Load 1 is instruction #2 (1-based); the reg-5 writer was #1.
    EXPECT_EQ(got[1].depDistance, 1u);
    EXPECT_EQ(static_cast<int>(got[2].kind),
              static_cast<int>(InstrKind::Load));
    EXPECT_EQ(got[2].vaddr, 0xB000u);
    // ChampSim registers are per-record, not per-memory-slot, so the
    // second load carries the same reg-5 dependence (now 2 back).
    EXPECT_EQ(got[2].depDistance, 2u);
    EXPECT_EQ(static_cast<int>(got[3].kind),
              static_cast<int>(InstrKind::Store));
    EXPECT_EQ(got[3].vaddr, 0xC000u);
    EXPECT_EQ(static_cast<int>(got[4].kind),
              static_cast<int>(InstrKind::Branch));
    EXPECT_TRUE(got[4].branchTaken);

    // rewind() must reset the dependence tracker too: an identical
    // second pass proves replay loops are deterministic.
    reader.rewind();
    std::vector<TraceInstr> again;
    while (reader.next(t))
        again.push_back(t);
    ASSERT_EQ(again.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(again[i].vaddr, got[i].vaddr) << i;
        EXPECT_EQ(again[i].depDistance, got[i].depDistance) << i;
    }
}

TEST_F(TraceReaderTest, ReplayHoldsBoundedMemory)
{
    // A trace far larger than any reader buffer must replay while the
    // workload's resident buffering stays fixed (the bounded-memory
    // contract that lets multi-GB traces stream).
    const std::string p = path(".hrm");
    const std::uint64_t n = 1'500'000; // 36MB of records
    PatternWorkload source(4096);
    ASSERT_EQ(0u, writeTraceFile(p, source, n, "pattern", "TEST"));

    FileWorkload replay(p);
    for (int i = 0; i < 100'000; ++i)
        static_cast<void>(replay.next());
    EXPECT_LT(replay.residentBytes(), 1u << 20)
        << "streaming replay must not scale memory with trace length";
}

TEST_F(TraceReaderTest, AbandonedWriterLeavesNoResidue)
{
    // Dropping a writer without finish() (simulated crash) must leave
    // neither the destination nor the hidden temporary behind.
    const std::string p = path(".hrm");
    const std::string tmp = p + ".tmp." + std::to_string(::getpid());
    {
        auto writer = openTraceWriter(p, TraceFormat::Hrmtrace,
                                      Compression::None, 100, "crash",
                                      "TEST");
        TraceInstr t;
        t.kind = InstrKind::Load;
        t.vaddr = 0x1000;
        for (int i = 0; i < 50; ++i)
            writer->append(t);
        EXPECT_TRUE(fileExists(tmp));
        EXPECT_FALSE(fileExists(p));
    }
    EXPECT_FALSE(fileExists(tmp));
    EXPECT_FALSE(fileExists(p));
}

TEST_F(TraceReaderTest, WriterCountMismatchThrows)
{
    const std::string p = path(".hrm");
    auto writer = openTraceWriter(p, TraceFormat::Hrmtrace,
                                  Compression::None, 100, "short",
                                  "TEST");
    TraceInstr t;
    for (int i = 0; i < 99; ++i)
        writer->append(t);
    EXPECT_THROW(writer->finish(), std::runtime_error);
    EXPECT_FALSE(fileExists(p));
}

} // namespace
} // namespace hermes
