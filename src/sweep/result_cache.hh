#pragma once

/**
 * @file
 * Content-addressed result store: one entry per completed grid point,
 * keyed by the point's identity fingerprint (pointFingerprint over
 * label + full registry-rendered config + traces + budget). Any sweep
 * — hermes_sweep, hermes_run, a bench driver, a CI shard — that
 * reaches the same point loads the recorded result instead of
 * simulating, so overlapping figure grids and repeated runs share one
 * warm store.
 *
 * Entry layout ("<hex16>.rec", two journal-format lines):
 *   {"hermes_result_cache":V,"point":"<hex16>"}   <- version + key echo
 *   {"i":0,"label":...,"fp":...,"stats":{...}}    <- journal record
 *
 * V is journalFormatVersion(): a stats-codec bump invalidates cache
 * entries and journals together. The record's grid index is stored as
 * 0 (an entry is grid-independent); load() rewrites it for the caller.
 *
 * Trust model: every load re-derives the record's stats fingerprint
 * (decodeJournalRecord) and re-checks the filename / header / record
 * point fingerprints and the label against each other. Directory,
 * atomic publish, reject-and-unlink, LRU eviction and the spec grammar
 * are the shared store engine's (common/content_store.hh).
 */

#include <cstdint>
#include <optional>
#include <string>

#include "common/content_store.hh"
#include "sweep/journal.hh"
#include "sweep/sweep.hh"

namespace hermes::sweep
{

/** The store itself. Thread-safe; one instance per process is enough. */
class ResultCache
{
  public:
    /** Environment default for --cache (see openStore()). */
    static constexpr const char *kEnv = "HERMES_RESULT_CACHE";
    /** The store's name in error messages. */
    static constexpr const char *kWhat = "result cache";

    /** Opens (mkdir -p) the directory. Throws std::runtime_error. */
    explicit ResultCache(StoreConfig cfg);

    /**
     * Look @p point up. A hit returns the verified result (index 0 —
     * the caller assigns its grid index) and refreshes the entry's LRU
     * clock; a corrupt entry is unlinked and counts as a miss.
     */
    std::optional<PointResult> load(const GridPoint &point);

    /**
     * Persist @p r under @p point's fingerprint (atomic publish, then
     * eviction past the budget). Failed results (!r.ok) and
     * already-present points are skipped.
     */
    void store(const GridPoint &point, const PointResult &r);

    const std::string &dir() const { return store_.dir(); }
    const StoreStats &stats() const { return store_.stats(); }

    /** Live count of "*.rec" entries (rescans the directory). */
    std::size_t entryCount() const { return store_.entryCount(); }

    /** Entry filename for a point fingerprint: "<hex16>.rec". */
    static std::string entryName(std::uint64_t point_fp);

  private:
    ContentStore store_;
};

} // namespace hermes::sweep
