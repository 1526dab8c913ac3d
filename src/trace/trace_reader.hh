#pragma once

/**
 * @file
 * Streaming trace readers and writers over the byte-stream layer.
 *
 * A TraceReader decodes an on-disk trace into TraceInstr records one at
 * a time through a fixed-size chunk buffer, so replaying a multi-GB
 * (possibly compressed) trace holds O(100KB) resident regardless of
 * trace length. Two formats are understood:
 *
 *  - HRMTRACE: the native format (header + 24-byte records, see
 *    trace_file.hh). Lossless.
 *  - ChampSim: the 64-byte packed record format of the ChampSim
 *    simulator ecosystem the source paper evaluates with
 *    ({ip u64; is_branch u8; branch_taken u8; destRegs u8[2];
 *      srcRegs u8[4]; destMem u64[2]; srcMem u64[4]}).
 *
 * ChampSim import expands each record deterministically: source-memory
 * loads in slot order, then the branch (or a plain ALU op when the
 * record touches no memory and is not a branch), then destination-memory
 * stores. Register writes are tracked through a 256-entry last-writer
 * table so a load's register sources become a TraceInstr::depDistance
 * back to the youngest producing instruction — the same dependence the
 * synthetic generators express directly.
 *
 * ChampSim *export* encodes each TraceInstr as one record and cycles
 * destination-register tags so that a load's depDistance (up to 255)
 * survives a round trip through import; longer dependences cannot be
 * represented and are counted as dropped.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_io.hh"
#include "trace/workload.hh"

namespace hermes
{

/** On-disk trace encodings the reader/writer pair understands. */
enum class TraceFormat : std::uint8_t
{
    Hrmtrace, ///< Native header + 24-byte records (lossless)
    ChampSim, ///< ChampSim 64-byte packed records (deps > 255 dropped)
};

/** Human-readable format name ("hrmtrace", "champsim"). */
const char *traceFormatName(TraceFormat f);

/**
 * Format implied by a file name: after stripping a ".gz"/".xz"
 * extension, names ending in ".champsim", ".champsimtrace" or ".trace"
 * are ChampSim; everything else is HRMTRACE. (Read-side *compression*
 * is detected by magic, but ChampSim records have no magic, so format
 * follows the ecosystem's naming convention.)
 */
TraceFormat formatForPath(const std::string &path);

/** What a reader learned about a trace before decoding records. */
struct TraceMeta
{
    TraceFormat format = TraceFormat::Hrmtrace;
    Compression compression = Compression::None;
    /** Trace name from the HRMTRACE header; empty for ChampSim. */
    std::string name;
    /** Suite category from the HRMTRACE header; empty for ChampSim. */
    std::string category;
    /**
     * Instruction count from the HRMTRACE header; 0 for ChampSim
     * (unknown until the stream is scanned — records expand 1:N).
     */
    std::uint64_t recordCount = 0;
};

/**
 * Streaming decoder. next() yields instructions until clean
 * end-of-trace; corruption and truncation throw std::runtime_error
 * naming the file. rewind() restarts from the first instruction
 * (including ChampSim dependence-tracking state), so replay loops are
 * deterministic. saveState()/loadState() checkpoint the decode
 * position as a restart point of the byte source plus the cursor, so
 * a restore seeks instead of decoding what precedes it.
 */
class TraceReader
{
  public:
    TraceReader(std::unique_ptr<ByteSource> source, TraceFormat format);
    ~TraceReader();

    const TraceMeta &meta() const { return meta_; }

    /** Decode the next instruction; false at clean end-of-trace. */
    bool next(TraceInstr &out);

    /** Restart from the first instruction. */
    void rewind();

    /**
     * Write the decode position: the file's on-disk size, the
     * source's restart point for the cursor, the cursor (the decoded
     * offset of the next record) and, for ChampSim, the expansion
     * queue and last-writer table.
     */
    void saveState(StateWriter &w) const;

    /**
     * Seek to a position saveState() wrote after @p instrs
     * instructions of the current loop. Throws StateError, or
     * std::runtime_error from the source, when the file's size has
     * changed, the cursor does not match @p instrs (HRMTRACE: header
     * + instrs x 24 bytes) or the restart point cannot reach it.
     */
    void loadState(StateReader &r, std::uint64_t instrs);

    /** Bytes of buffering this reader holds (excludes the source's
     * fixed codec buffers); stays constant however long the trace. */
    std::size_t residentBytes() const;

  private:
    /**
     * Point at the next @p size (<= chunk) contiguous bytes and
     * consume them, refilling first if fewer are buffered. Returns
     * nullptr when the stream ended cleanly before the first byte; a
     * partial record throws.
     */
    const unsigned char *take(std::size_t size);

    /**
     * Move the unread bytes to the front and read until @p need are
     * buffered, asking the source for at most @p fill buffered bytes
     * per read (more only if @p need is larger); false at a clean end
     * with nothing buffered.
     */
    bool refill(std::size_t need, std::size_t fill);

    /** Copy @p size header bytes; any shortfall is a header error. */
    void readHeaderBytes(void *out, std::size_t size);

    void parseHrmHeader();
    void expandChampSimRecord(const unsigned char *rec);

    /** Decoded offset of the next unread byte. */
    std::uint64_t
    cursor() const
    {
        return streamPos_ - (bufLen_ - bufPos_);
    }

    std::unique_ptr<ByteSource> src_;
    TraceMeta meta_;

    std::vector<unsigned char> buf_;
    std::size_t bufPos_ = 0;
    std::size_t bufLen_ = 0;
    std::uint64_t streamPos_ = 0; ///< Decoded offset of buf_[bufLen_]

    std::uint64_t headerBytes_ = 0;  ///< HRMTRACE record-area offset
    std::uint64_t recordsRead_ = 0;  ///< HRMTRACE records consumed

    // ChampSim expansion state
    std::array<TraceInstr, 8> pending_{};
    unsigned pendingPos_ = 0;
    unsigned pendingLen_ = 0;
    std::uint64_t emitted_ = 0; ///< 1-based emitted-instruction cursor
    std::array<std::uint64_t, 256> lastWrite_{};
};

/**
 * Streaming encoder counterpart. finish() verifies the promised record
 * count, flushes and atomically publishes the file (ByteSink
 * semantics); destroying an unfinished writer discards the temporary.
 */
class TraceWriter
{
  public:
    virtual ~TraceWriter() = default;

    virtual void append(const TraceInstr &instr) = 0;

    /** Verify count, flush, fsync and publish. Call exactly once. */
    virtual void finish() = 0;

    /** Features this format could not represent (ChampSim: load
     * depDistance > 255, non-load dependences, memory ops at vaddr 0);
     * always 0 for lossless formats. */
    virtual std::uint64_t droppedDeps() const = 0;

    virtual const std::string &path() const = 0;
};

/**
 * Create a writer for @p count instructions at @p path. @p name and
 * @p category go into the HRMTRACE header (ChampSim has no header and
 * ignores them). Throws std::runtime_error on I/O or codec errors.
 */
std::unique_ptr<TraceWriter> openTraceWriter(const std::string &path,
                                             TraceFormat format,
                                             Compression compression,
                                             std::uint64_t count,
                                             const std::string &name,
                                             const std::string &category);

} // namespace hermes
