// Tests for the streaming trace layer: compressed (gzip/xz)
// round trips, ChampSim import/export determinism — including the
// acceptance property that a captured workload converted to
// compressed ChampSim replays with a statsFingerprint byte-identical
// to the direct synthetic run — chunk-boundary and EOF-loop behavior,
// corruption/truncation robustness, the bounded-memory guarantee and
// crash-safe publication.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"
#include "trace/trace_io.hh"
#include "trace/trace_reader.hh"

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
