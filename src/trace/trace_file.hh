#pragma once

/**
 * @file
 * On-disk trace capture and replay: any workload (synthetic or
 * otherwise) can be captured to a compact on-disk format and replayed
 * later, which makes experiments shareable and lets users bring their
 * own traces without linking against the generators.
 *
 * Native HRMTRACE format (little-endian):
 *   header: magic "HRMTRACE" (8B) | version u32 | reserved u32
 *           | name length u32 | name bytes | category length u32
 *           | category bytes | record count u64
 *   records: { pc u64 | vaddr u64 | depDistance u32 | kind u8
 *              | branchTaken u8 | pad u16 } x count
 *
 * Replay streams through a TraceReader with a fixed-size chunk buffer
 * (bounded memory however large the file), understands ChampSim-format
 * traces (by file name, see formatForPath) and gzip/xz compression (by
 * magic bytes), and loops when it reaches the end — workloads are
 * infinite streams by contract.
 */

#include <cstdint>
#include <memory>
#include <string>

#include "trace/trace_reader.hh"
#include "trace/workload.hh"

namespace hermes
{

/** Magic bytes identifying a Hermes trace file. */
inline constexpr char kTraceMagic[8] = {'H', 'R', 'M', 'T',
                                        'R', 'A', 'C', 'E'};
inline constexpr std::uint32_t kTraceVersion = 1;

/**
 * Capture @p count instructions of @p workload into @p path. Format and
 * compression follow the file name (formatForPath/compressionForPath;
 * plain names produce uncompressed HRMTRACE). The write is crash-safe:
 * bytes stream into a temporary that is fsync'd and atomically renamed
 * into place, so a crash leaves either the old file or nothing.
 *
 * @return features the chosen format could not represent (0 for
 *         HRMTRACE; ChampSim drops load dependences > 255).
 * @throws std::runtime_error with a descriptive message on any I/O,
 *         codec or validation failure.
 */
std::uint64_t writeTraceFile(const std::string &path,
                             Workload &workload, std::uint64_t count,
                             const std::string &name,
                             const std::string &category);

/**
 * Replays a trace file as an infinite workload (loops at EOF) while
 * holding only a fixed-size read buffer resident — a multi-GB trace
 * streams from disk. Construction throws std::runtime_error on
 * malformed files; ChampSim traces are fully scanned once up front so
 * corruption fails at open, not mid-simulation.
 */
class FileWorkload : public Workload
{
  public:
    explicit FileWorkload(const std::string &path);

    const std::string &name() const override { return name_; }
    const std::string &category() const override { return category_; }
    TraceInstr next() override;

    /**
     * Replica starting at a rotated position derived from
     * mix64(seed_offset), so multi-core copies of the same file do not
     * run in lockstep (for seed_offset > 0 and more than one record,
     * the rotation is guaranteed nonzero). File replays have no RNG,
     * so rotation is the whole seed-offset contract here.
     */
    std::unique_ptr<Workload> clone(std::uint64_t seed_offset) const
        override;

    /** Instructions per replay loop (ChampSim records expand 1:N). */
    std::uint64_t recordCount() const { return instrCount_; }

    /** Fixed buffering held by the streaming reader. */
    std::size_t residentBytes() const;

    /**
     * File replays checkpoint their loop position and the reader's
     * decode position (TraceReader::saveState): a restore seeks to
     * the cursor from its restart point, inflating less than one gzip
     * member, instead of decoding the records before it.
     */
    bool checkpointable() const override { return true; }
    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

  private:
    FileWorkload() = default;

    std::string path_;
    std::string name_;
    std::string category_;
    std::uint64_t instrCount_ = 0;
    std::uint64_t pos_ = 0; ///< Instructions consumed this loop
    std::unique_ptr<TraceReader> reader_;
};

} // namespace hermes
