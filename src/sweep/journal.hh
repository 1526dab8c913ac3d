#pragma once

/**
 * @file
 * Journaled sweep results: every completed grid point is appended to a
 * JSONL file as a fingerprinted record, so a sweep that dies can be
 * resumed (--resume skips recorded points), split across processes or
 * machines (--shard i/N owns a deterministic grid partition) and merged
 * back into one result set that is byte-identical — same CSV/JSON, same
 * fingerprints — to an unsharded run.
 *
 * File layout (one JSON object per line):
 *   {"hermes_journal":2,"space":"<hex16>","points":N}     <- header
 *   {"i":3,"label":"...","point":"<hex16>","fp":"<hex16>",
 *    "wall":0.12,"host":[s,instrs],"stats":{...}}          <- record
 *
 * A journal holds one or more *segments* (header + records); the bench
 * harness writes one segment per runGrid() call so whole figure drivers
 * shard and resume for free, while hermes_sweep uses a single segment.
 *
 * The "stats" object is not hand-rolled: encode and decode both walk
 * the stat registry's codec plan (sim/stat_registry.hh), so a counter
 * registered there is journaled, fingerprinted and round-tripped with
 * no change in this file.
 *
 * Integrity: "space" fingerprints the entire scenario space (every
 * point's label, full registry-rendered config, traces and budget), so
 * a journal recorded for a different grid — or for the same grid under
 * changed defaults — is rejected at load. "point" pins one grid slot
 * the same way, and "fp" is statsFingerprint() of the recorded stats;
 * the loader re-derives it after decoding, which catches both file
 * corruption and encode/decode drift. Appends are a single write of a
 * complete line followed by a flush and fsync (headers too), so a
 * crash can only lose or truncate the final line — the loader
 * tolerates exactly that (a truncated *tail*, including a trailing
 * header-only segment left by a crash between beginGrid and the first
 * append) and rejects any earlier malformed line.
 *
 * Identity: a journal's identity is its canonical form,
 * journalText(mergeSegments(...)), which orders records by grid index.
 * Appends stay in completion order, because a record must be durable
 * the moment its point finishes, so two runs of one grid (different
 * thread counts, or cache hits, which land in grid order, against
 * simulations, which land as they complete) write the same records in
 * different orders. Compare journals in canonical form; --merge
 * already writes it.
 */

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "sweep/sweep.hh"

namespace hermes::sweep
{

class ResultCache;

/**
 * Identity hash of one grid point: label, every registry-rendered
 * config key=value, trace names and instruction budgets.
 */
std::uint64_t pointFingerprint(const GridPoint &point);

/** Identity hash of a whole grid (size + every pointFingerprint). */
std::uint64_t spaceFingerprint(const std::vector<GridPoint> &grid);

/** One decoded journal record. */
struct JournalRecord
{
    std::size_t index = 0;
    std::uint64_t pointFp = 0;
    PointResult result;
};

/** One header + its records, in file order. */
struct JournalSegment
{
    std::uint64_t spaceFp = 0;
    std::size_t points = 0;
    std::vector<JournalRecord> records;
};

/**
 * The journal line format version; bumped when the record layout or
 * the stats codec changes shape. The result cache stamps its entries
 * with the same version, so a codec bump invalidates both together.
 */
std::uint64_t journalFormatVersion();

/** Serialize one record as its JSONL journal line (no newline). */
std::string encodeJournalRecord(const JournalRecord &rec);

/**
 * Parse + verify one record line: the decoded stats must reproduce the
 * recorded "fp" fingerprint. Throws std::runtime_error on any defect.
 * Shared by the journal loader and the result cache.
 */
JournalRecord decodeJournalRecord(const std::string &line);

/**
 * Parse a journal file into segments. Structural validation only (the
 * grid match happens in validateSegment): every record must decode and
 * reproduce its recorded stats fingerprint, except that a truncated or
 * garbled *final* line is dropped with @p truncated_tail set (crash
 * mid-append). Any earlier bad line throws std::runtime_error naming
 * the line number. @p truncated_tail may be nullptr.
 */
std::vector<JournalSegment> readJournal(const std::string &path,
                                        bool *truncated_tail = nullptr);

/**
 * Check @p seg against @p grid: space fingerprint, record indices,
 * labels and per-point fingerprints. Throws std::runtime_error with a
 * "re-run without --resume" hint on any mismatch.
 */
void validateSegment(const JournalSegment &seg,
                     const std::vector<GridPoint> &grid);

/**
 * Union segments from several journals of the *same* sweep (segment k
 * of every file must share space/points). Duplicate records for a grid
 * index are fine when their stats fingerprints agree (deterministic
 * re-runs) and an error otherwise. Records come out sorted by index.
 */
std::vector<JournalSegment>
mergeSegments(const std::vector<std::vector<JournalSegment>> &files);

/** Serialize segments back to journal text (grid-index order). */
std::string journalText(const std::vector<JournalSegment> &segments);

/**
 * Crash-safe append-side of the store. The writer rewrites @p path:
 * resume flows read the old journal fully, then re-record everything
 * (resumed records land before any new simulation starts). An existing
 * file is atomically renamed to "<path>.bak" first, so even a kill in
 * the middle of the rewrite can never cost already-persisted records —
 * the worst case is re-simulating points newer than the backup.
 */
class JournalWriter
{
  public:
    /**
     * Renames any existing @p path to "<path>.bak" (replacing a stale
     * backup), then opens @p path fresh. Throws std::runtime_error if
     * either step fails.
     */
    explicit JournalWriter(const std::string &path);
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Start a segment: write its header line. */
    void beginGrid(const std::vector<GridPoint> &grid);

    /**
     * Append one completed point of the current grid and flush.
     * Thread-safe; failed points (!r.ok) are not recorded.
     */
    void append(const PointResult &r);

    const std::string &path() const { return path_; }

  private:
    /** One complete line, written + flushed + fsynced (or throws). */
    void writeLine(const std::string &line);

    std::string path_;
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
    const std::vector<GridPoint> *grid_ = nullptr;
};

/** Shard/resume/journal plan for one orchestrated grid run. */
struct OrchestrateOptions
{
    /** This process's slice of the grid (default: all of it). */
    ShardSpec shard;
    /**
     * Previously recorded results (e.g. a loaded + validated journal
     * segment, or a merge of several); recorded points are not
     * re-simulated. May be nullptr.
     */
    const JournalSegment *resume = nullptr;
    /**
     * Journal to append completions to; beginGrid() is called here,
     * and resumed records are re-recorded first. May be nullptr.
     */
    JournalWriter *journal = nullptr;
    /**
     * Content-addressed result store (sweep/result_cache.hh). Points
     * it already holds are loaded instead of simulated (and journaled
     * like any other completion); every point that does simulate — or
     * arrives via resume — is stored back, so overlapping grids and
     * later runs share the work. May be nullptr.
     */
    ResultCache *cache = nullptr;
};

/** Outcome of runJournaled(): full-grid results plus a presence map. */
struct OrchestratedRun
{
    /** Grid-order results; only present[i] slots hold real stats. */
    std::vector<PointResult> results;
    std::vector<bool> present;
    std::size_t simulated = 0;
    std::size_t resumed = 0;
    /** Points loaded from the result cache instead of simulated. */
    std::size_t cached = 0;
    /** Points owned by other shards (absent unless resumed). */
    std::size_t otherShard = 0;

    bool complete() const;
    std::size_t missing() const;
};

/**
 * The orchestrated sweep: skip resumed points, simulate this shard's
 * remainder with a SweepEngine built from @p engine_opts (seeds stay
 * keyed by grid index, so any shard/resume split reproduces the
 * unsharded run bit-for-bit), journal every completion as it lands.
 */
OrchestratedRun runJournaled(const SweepOptions &engine_opts,
                             const std::vector<GridPoint> &grid,
                             const OrchestrateOptions &opts);

} // namespace hermes::sweep
