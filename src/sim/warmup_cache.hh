#pragma once

/**
 * @file
 * Content-addressed warmup checkpoint store: a directory holding one
 * serialized warmed machine state per distinct warmup identity, named
 * by SimSession::warmupFingerprint() ("<hex16>.ckpt"). Any run — a
 * hermes_sweep grid point, hermes_run, a bench driver — whose warmup
 * identity matches an entry restores it instead of re-executing the
 * warmup window, so a sweep over post-warmup parameters (e.g.
 * hermes.issue_latency with hermes.warmup_issue=false) pays for warmup
 * exactly once.
 *
 * Entry layout (SimSession::snapshot): "HRMCKPT1" magic, format
 * version, the warmup fingerprint, every component's saveState stream
 * and a trailing XXH64 checksum.
 *
 * Trust model: load() verifies magic, version, fingerprint and
 * checksum via SimSession::restore(). Directory, atomic publish,
 * reject-and-unlink, LRU eviction and the spec grammar are the shared
 * store engine's (common/content_store.hh).
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/content_store.hh"
#include "sim/simulator.hh"

namespace hermes
{

/** The store itself. Thread-safe; one instance per process is enough. */
class WarmupCache
{
  public:
    /** Environment default for --warmup-cache (see openStore()). */
    static constexpr const char *kEnv = "HERMES_WARMUP_CACHE";
    /** The store's name in error messages. */
    static constexpr const char *kWhat = "warmup cache";

    /** Opens (mkdir -p) the directory. Throws std::runtime_error. */
    explicit WarmupCache(StoreConfig cfg);

    /**
     * Try to restore @p session (built phase) from the entry matching
     * its warmup fingerprint. True on success (session is warmed); a
     * missing entry is a miss and a corrupt/stale entry is unlinked
     * and counts as a miss (session stays built either way).
     */
    bool load(SimSession &session);

    /**
     * Persist @p session's warmed state (warmed phase) under its
     * warmup fingerprint (atomic publish, then eviction past the
     * budget). Already-present identities are skipped (first writer
     * wins; determinism makes them identical).
     */
    void store(SimSession &session);

    /**
     * Serialize threads warming the same identity: the returned lock
     * holds a per-fingerprint mutex, so within one process a shared
     * warmup really runs once and the rest restore its checkpoint.
     * Distinct fingerprints proceed in parallel.
     */
    std::unique_lock<std::mutex> lockFingerprint(std::uint64_t fp);

    const std::string &dir() const { return store_.dir(); }
    const StoreStats &stats() const { return store_.stats(); }

    /** Live count of "*.ckpt" entries (rescans the directory). */
    std::size_t entryCount() const { return store_.entryCount(); }

    /** Entry filename for a warmup fingerprint: "<hex16>.ckpt". */
    static std::string entryName(std::uint64_t fp);

  private:
    ContentStore store_;
    std::mutex fpLocksMutex_;
    /** Never erased; bounded by the distinct identities of one run. */
    std::map<std::uint64_t, std::unique_ptr<std::mutex>> fpLocks_;
};

/**
 * The one driver every caller shares: build @p session, obtain the
 * warmed state — restored from @p cache when possible, else by running
 * warmup (and storing the result) — then measure and return the stats.
 * A null @p cache, or a session with a non-checkpointable component,
 * degrades to the plain build/warmup/measure sequence.
 */
RunStats runSession(SimSession &session, WarmupCache *cache);

} // namespace hermes
