#include "trace/trace_reader.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/state_io.hh"
#include "trace/trace_file.hh"

namespace hermes
{

namespace
{

/** Record-side chunk: one refill per ~10K instructions. */
constexpr std::size_t kReaderChunk = 256 * 1024;

/**
 * Header-side reads: opening a trace inflates only this much, not a
 * whole chunk a restore would then seek away from.
 */
constexpr std::size_t kHeaderChunk = 4 * 1024;

/** On-disk HRMTRACE record layout (fixed 24 bytes). */
struct DiskRecord
{
    std::uint64_t pc;
    std::uint64_t vaddr;
    std::uint32_t depDistance;
    std::uint8_t kind;
    std::uint8_t branchTaken;
    std::uint16_t pad;
};
static_assert(sizeof(DiskRecord) == 24, "unexpected record padding");

/** ChampSim packed record size and field offsets. */
constexpr std::size_t kChampSimRecordBytes = 64;
constexpr std::size_t kCsIp = 0;
constexpr std::size_t kCsIsBranch = 8;
constexpr std::size_t kCsBranchTaken = 9;
constexpr std::size_t kCsDestRegs = 10; // u8[2]
constexpr std::size_t kCsSrcRegs = 12;  // u8[4]
constexpr std::size_t kCsDestMem = 16;  // u64[2]
constexpr std::size_t kCsSrcMem = 32;   // u64[4]

std::uint64_t
loadLe64(const unsigned char *p)
{
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof(v)); // little-endian hosts only (x86/arm)
    return v;
}

void
storeLe64(unsigned char *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof(v));
}

} // namespace

const char *
traceFormatName(TraceFormat f)
{
    switch (f) {
      case TraceFormat::ChampSim:
        return "champsim";
      case TraceFormat::Hrmtrace:
        break;
    }
    return "hrmtrace";
}

TraceFormat
formatForPath(const std::string &path)
{
    std::string stem = path;
    for (const char *codec : {".gz", ".xz"}) {
        const std::size_t n = std::strlen(codec);
        if (stem.size() >= n &&
            stem.compare(stem.size() - n, n, codec) == 0) {
            stem.resize(stem.size() - n);
            break;
        }
    }
    for (const char *suffix :
         {".champsimtrace", ".champsim", ".trace"}) {
        const std::size_t n = std::strlen(suffix);
        if (stem.size() >= n &&
            stem.compare(stem.size() - n, n, suffix) == 0)
            return TraceFormat::ChampSim;
    }
    return TraceFormat::Hrmtrace;
}

// ---------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------

TraceReader::TraceReader(std::unique_ptr<ByteSource> source,
                         TraceFormat format)
    : src_(std::move(source))
{
    meta_.format = format;
    meta_.compression = src_->compression();
    buf_.resize(kReaderChunk);

    if (format == TraceFormat::Hrmtrace) {
        parseHrmHeader();
        return;
    }
    // ChampSim has no header; when the decompressed size is knowable
    // up front, a torn file fails here instead of mid-replay.
    const std::int64_t hint = src_->sizeHint();
    if (hint == 0)
        throw std::runtime_error("empty champsim trace: " +
                                 src_->path());
    if (hint > 0 &&
        static_cast<std::uint64_t>(hint) % kChampSimRecordBytes != 0)
        throw std::runtime_error(
            "champsim trace size is not a multiple of 64 bytes: " +
            src_->path());
}

TraceReader::~TraceReader() = default;

inline const unsigned char *
TraceReader::take(std::size_t size)
{
    if (bufLen_ - bufPos_ < size && !refill(size, buf_.size()))
        return nullptr;
    const unsigned char *p = buf_.data() + bufPos_;
    bufPos_ += size;
    return p;
}

bool
TraceReader::refill(std::size_t need, std::size_t fill)
{
    const std::size_t left = bufLen_ - bufPos_;
    std::memmove(buf_.data(), buf_.data() + bufPos_, left);
    bufPos_ = 0;
    bufLen_ = left;
    while (bufLen_ < need) {
        const std::size_t got = src_->read(
            buf_.data() + bufLen_, std::max(fill, need) - bufLen_);
        if (got == 0) {
            if (bufLen_ == 0)
                return false;
            throw std::runtime_error("truncated trace file: " +
                                     src_->path());
        }
        bufLen_ += got;
        streamPos_ += got;
    }
    return true;
}

void
TraceReader::readHeaderBytes(void *out, std::size_t size)
{
    auto *dst = static_cast<unsigned char *>(out);
    while (size > 0) {
        if (bufPos_ == bufLen_ && !refill(1, kHeaderChunk))
            throw std::runtime_error("truncated trace header in " +
                                     src_->path());
        const std::size_t n = std::min(size, bufLen_ - bufPos_);
        std::memcpy(dst, buf_.data() + bufPos_, n);
        bufPos_ += n;
        dst += n;
        size -= n;
    }
}

void
TraceReader::parseHrmHeader()
{
    char magic[8];
    try {
        readHeaderBytes(magic, sizeof(magic));
    } catch (const std::runtime_error &) {
        throw std::runtime_error("not a Hermes trace file: " +
                                 src_->path());
    }
    if (std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0)
        throw std::runtime_error("not a Hermes trace file: " +
                                 src_->path());

    std::uint32_t version = 0, reserved = 0;
    readHeaderBytes(&version, sizeof(version));
    if (version != kTraceVersion)
        throw std::runtime_error("unsupported trace version in " +
                                 src_->path());
    readHeaderBytes(&reserved, sizeof(reserved));

    std::uint64_t consumed = 16;
    for (std::string *s : {&meta_.name, &meta_.category}) {
        std::uint32_t len = 0;
        readHeaderBytes(&len, sizeof(len));
        if (len > (1u << 20))
            throw std::runtime_error("corrupt trace header in " +
                                     src_->path());
        s->resize(len);
        if (len > 0)
            readHeaderBytes(s->data(), len);
        consumed += sizeof(len) + len;
    }

    std::uint64_t count = 0;
    readHeaderBytes(&count, sizeof(count));
    consumed += sizeof(count);
    if (count == 0)
        throw std::runtime_error("empty or corrupt trace: " +
                                 src_->path());
    headerBytes_ = consumed;

    // Validate the header's record count against the stream size when
    // cheaply known: a corrupt count must fail at open, not after
    // minutes of replay.
    const std::int64_t hint = src_->sizeHint();
    if (hint >= 0) {
        const std::uint64_t available =
            static_cast<std::uint64_t>(hint) > headerBytes_
                ? static_cast<std::uint64_t>(hint) - headerBytes_
                : 0;
        if (count > available / sizeof(DiskRecord))
            throw std::runtime_error("truncated trace file: " +
                                     src_->path());
    }
    meta_.recordCount = count;
}

bool
TraceReader::next(TraceInstr &out)
{
    if (meta_.format == TraceFormat::Hrmtrace) {
        if (recordsRead_ == meta_.recordCount)
            return false;
        const unsigned char *p = take(sizeof(DiskRecord));
        if (p == nullptr)
            throw std::runtime_error("truncated trace file: " +
                                     src_->path());
        DiskRecord rec;
        std::memcpy(&rec, p, sizeof(rec));
        if (rec.kind > static_cast<std::uint8_t>(InstrKind::Branch))
            throw std::runtime_error("corrupt record in " +
                                     src_->path());
        out.pc = rec.pc;
        out.vaddr = rec.vaddr;
        out.depDistance = rec.depDistance;
        out.kind = static_cast<InstrKind>(rec.kind);
        out.branchTaken = rec.branchTaken != 0;
        ++recordsRead_;
        return true;
    }

    if (pendingPos_ == pendingLen_) {
        const unsigned char *rec = take(kChampSimRecordBytes);
        if (rec == nullptr)
            return false;
        expandChampSimRecord(rec);
    }
    out = pending_[pendingPos_++];
    return true;
}

void
TraceReader::expandChampSimRecord(const unsigned char *rec)
{
    const std::uint64_t ip = loadLe64(rec + kCsIp);
    const unsigned char is_branch = rec[kCsIsBranch];
    const unsigned char taken = rec[kCsBranchTaken];
    if (is_branch > 1 || taken > 1)
        throw std::runtime_error("corrupt champsim record in " +
                                 src_->path());

    pendingPos_ = 0;
    pendingLen_ = 0;

    // A load's dependence reaches back to the youngest instruction
    // that wrote any of its source registers.
    std::uint64_t youngest_writer = 0;
    for (std::size_t r = 0; r < 4; ++r) {
        const unsigned char reg = rec[kCsSrcRegs + r];
        if (reg != 0)
            youngest_writer =
                std::max(youngest_writer, lastWrite_[reg]);
    }

    bool has_mem = false;
    for (std::size_t m = 0; m < 4; ++m) {
        const std::uint64_t vaddr = loadLe64(rec + kCsSrcMem + 8 * m);
        if (vaddr == 0)
            continue;
        has_mem = true;
        TraceInstr t;
        t.pc = ip;
        t.kind = InstrKind::Load;
        t.vaddr = vaddr;
        if (youngest_writer > 0) {
            const std::uint64_t idx = emitted_ + pendingLen_ + 1;
            const std::uint64_t dist = idx - youngest_writer;
            if (dist <= UINT32_MAX)
                t.depDistance = static_cast<std::uint32_t>(dist);
        }
        pending_[pendingLen_++] = t;
    }
    bool has_store = false;
    for (std::size_t m = 0; m < 2; ++m)
        has_store |= loadLe64(rec + kCsDestMem + 8 * m) != 0;

    if (is_branch != 0) {
        TraceInstr t;
        t.pc = ip;
        t.kind = InstrKind::Branch;
        t.branchTaken = taken != 0;
        pending_[pendingLen_++] = t;
    } else if (!has_mem && !has_store) {
        TraceInstr t;
        t.pc = ip;
        t.kind = InstrKind::Alu;
        pending_[pendingLen_++] = t;
    }
    for (std::size_t m = 0; m < 2; ++m) {
        const std::uint64_t vaddr = loadLe64(rec + kCsDestMem + 8 * m);
        if (vaddr == 0)
            continue;
        TraceInstr t;
        t.pc = ip;
        t.kind = InstrKind::Store;
        t.vaddr = vaddr;
        pending_[pendingLen_++] = t;
    }

    emitted_ += pendingLen_;
    for (std::size_t r = 0; r < 2; ++r) {
        const unsigned char reg = rec[kCsDestRegs + r];
        if (reg != 0)
            lastWrite_[reg] = emitted_;
    }
}

void
TraceReader::rewind()
{
    src_->rewind();
    bufPos_ = bufLen_ = 0;
    streamPos_ = 0;
    recordsRead_ = 0;
    pendingPos_ = pendingLen_ = 0;
    emitted_ = 0;
    lastWrite_.fill(0);
    if (meta_.format == TraceFormat::Hrmtrace) {
        unsigned char scratch[256];
        std::uint64_t left = headerBytes_;
        while (left > 0) {
            const std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, sizeof(scratch)));
            readHeaderBytes(scratch, take);
            left -= take;
        }
    }
}

void
TraceReader::saveState(StateWriter &w) const
{
    const std::uint64_t at = cursor();
    const RestartPoint from = src_->restartPoint(at);
    w.i64(src_->fileBytes());
    w.u64(from.fileOffset);
    w.u64(from.streamOffset);
    w.u64(at);
    if (meta_.format != TraceFormat::ChampSim)
        return;
    w.u64(pendingLen_ - pendingPos_);
    for (unsigned i = pendingPos_; i < pendingLen_; ++i) {
        const TraceInstr &t = pending_[i];
        w.u64(t.pc);
        w.u64(t.vaddr);
        w.u32(t.depDistance);
        w.u8(static_cast<std::uint8_t>(t.kind));
        w.b(t.branchTaken);
    }
    w.u64(emitted_);
    for (const std::uint64_t writer : lastWrite_)
        w.u64(writer);
}

void
TraceReader::loadState(StateReader &r, std::uint64_t instrs)
{
    const std::int64_t file_bytes = r.i64();
    RestartPoint from;
    from.fileOffset = r.u64();
    from.streamOffset = r.u64();
    const std::uint64_t at = r.u64();
    if (file_bytes != src_->fileBytes())
        throw StateError("trace file " + src_->path() +
                         " changed size since the checkpoint");
    unsigned pending = 0;
    if (meta_.format == TraceFormat::Hrmtrace) {
        if (at != headerBytes_ + instrs * sizeof(DiskRecord))
            throw StateError("trace cursor " + std::to_string(at) +
                             " is not record " + std::to_string(instrs));
    } else {
        pending = static_cast<unsigned>(r.count(pending_.size()));
        for (unsigned i = 0; i < pending; ++i) {
            TraceInstr &t = pending_[i];
            t.pc = r.u64();
            t.vaddr = r.u64();
            t.depDistance = r.u32();
            const std::uint8_t kind = r.u8();
            if (kind > static_cast<std::uint8_t>(InstrKind::Branch))
                throw StateError("bad instruction kind");
            t.kind = static_cast<InstrKind>(kind);
            t.branchTaken = r.b();
        }
        emitted_ = r.u64();
        for (std::uint64_t &writer : lastWrite_)
            writer = r.u64();
        if (at % kChampSimRecordBytes != 0 || emitted_ != instrs + pending)
            throw StateError("trace cursor " + std::to_string(at) +
                             " does not match instruction " +
                             std::to_string(instrs));
    }
    src_->seek(from, at);
    bufPos_ = bufLen_ = 0;
    streamPos_ = at;
    recordsRead_ = instrs;
    pendingPos_ = 0;
    pendingLen_ = pending;
}

std::size_t
TraceReader::residentBytes() const
{
    return sizeof(*this) + buf_.capacity() + meta_.name.capacity() +
           meta_.category.capacity();
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

namespace
{

class HrmTraceWriter final : public TraceWriter
{
  public:
    HrmTraceWriter(std::unique_ptr<ByteSink> sink, std::uint64_t count,
                   const std::string &name, const std::string &category)
        : sink_(std::move(sink)), count_(count)
    {
        sink_->write(kTraceMagic, sizeof(kTraceMagic));
        const std::uint32_t version = kTraceVersion;
        const std::uint32_t reserved = 0;
        sink_->write(&version, sizeof(version));
        sink_->write(&reserved, sizeof(reserved));
        for (const std::string *s : {&name, &category}) {
            const auto len = static_cast<std::uint32_t>(s->size());
            sink_->write(&len, sizeof(len));
            if (len > 0)
                sink_->write(s->data(), len);
        }
        sink_->write(&count_, sizeof(count_));
    }

    void
    append(const TraceInstr &instr) override
    {
        DiskRecord rec{};
        rec.pc = instr.pc;
        rec.vaddr = instr.vaddr;
        rec.depDistance = instr.depDistance;
        rec.kind = static_cast<std::uint8_t>(instr.kind);
        rec.branchTaken = instr.branchTaken ? 1 : 0;
        sink_->write(&rec, sizeof(rec));
        ++appended_;
    }

    void
    finish() override
    {
        if (appended_ != count_)
            throw std::runtime_error(
                "trace writer: appended " + std::to_string(appended_) +
                " of " + std::to_string(count_) + " records for " +
                sink_->path());
        sink_->finish();
    }

    std::uint64_t droppedDeps() const override { return 0; }
    const std::string &path() const override { return sink_->path(); }

  private:
    std::unique_ptr<ByteSink> sink_;
    std::uint64_t count_;
    std::uint64_t appended_ = 0;
};

class ChampSimTraceWriter final : public TraceWriter
{
  public:
    ChampSimTraceWriter(std::unique_ptr<ByteSink> sink,
                        std::uint64_t count)
        : sink_(std::move(sink)), count_(count)
    {
    }

    void
    append(const TraceInstr &instr) override
    {
        unsigned char rec[kChampSimRecordBytes] = {};
        storeLe64(rec + kCsIp, instr.pc);
        rec[kCsIsBranch] = instr.kind == InstrKind::Branch ? 1 : 0;
        rec[kCsBranchTaken] = instr.branchTaken ? 1 : 0;
        // Every record writes a register tag cycling through 255
        // values; a load's depDistance k (k <= 255) is then encoded as
        // a read of the tag instruction (i - k) wrote, which the
        // importer's last-writer table maps back to exactly k.
        rec[kCsDestRegs] =
            static_cast<unsigned char>(1 + (appended_ % 255));
        const std::uint64_t dep = instr.depDistance;
        switch (instr.kind) {
          case InstrKind::Load:
            if (instr.vaddr != 0)
                storeLe64(rec + kCsSrcMem, instr.vaddr);
            else
                ++droppedOps_; // zero vaddr means "empty slot"
            if (dep > 0) {
                if (dep <= 255 && dep <= appended_)
                    rec[kCsSrcRegs] = static_cast<unsigned char>(
                        1 + ((appended_ - dep) % 255));
                else
                    ++droppedDeps_;
            }
            break;
          case InstrKind::Store:
            if (instr.vaddr != 0)
                storeLe64(rec + kCsDestMem, instr.vaddr);
            else
                ++droppedOps_;
            if (dep > 0)
                ++droppedDeps_; // importer derives deps for loads only
            break;
          case InstrKind::Alu:
          case InstrKind::Branch:
            if (dep > 0)
                ++droppedDeps_;
            break;
        }
        sink_->write(rec, sizeof(rec));
        ++appended_;
    }

    void
    finish() override
    {
        if (appended_ != count_)
            throw std::runtime_error(
                "trace writer: appended " + std::to_string(appended_) +
                " of " + std::to_string(count_) + " records for " +
                sink_->path());
        sink_->finish();
    }

    std::uint64_t
    droppedDeps() const override
    {
        return droppedDeps_ + droppedOps_;
    }

    const std::string &path() const override { return sink_->path(); }

  private:
    std::unique_ptr<ByteSink> sink_;
    std::uint64_t count_;
    std::uint64_t appended_ = 0;
    std::uint64_t droppedDeps_ = 0;
    std::uint64_t droppedOps_ = 0;
};

} // namespace

std::unique_ptr<TraceWriter>
openTraceWriter(const std::string &path, TraceFormat format,
                Compression compression, std::uint64_t count,
                const std::string &name, const std::string &category)
{
    auto sink = openByteSink(path, compression);
    if (format == TraceFormat::ChampSim)
        return std::make_unique<ChampSimTraceWriter>(std::move(sink),
                                                     count);
    return std::make_unique<HrmTraceWriter>(std::move(sink), count,
                                            name, category);
}

} // namespace hermes
