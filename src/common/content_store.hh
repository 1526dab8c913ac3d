#pragma once

/**
 * @file
 * The one store engine under both on-disk caches: the result store
 * (sweep/result_cache.hh, "<hex16>.rec") and the warmup checkpoint
 * store (sim/warmup_cache.hh, "<hex16>.ckpt"). A store is a directory
 * of entries named by a 64-bit content key. This module owns the
 * directory, the spec grammar, publish, verify-on-load, eviction and
 * the counters; each cache owns only its entry format.
 *
 * Publish: an entry streams through trace_io's crash-safe ByteSink
 * (temporary + fsync + atomic rename), so no reader ever sees a torn
 * entry and a crash leaves at worst an ignored temporary. Keys are
 * content addresses of deterministic results, so an existing entry
 * already holds the bytes a publish would write: the first writer wins
 * and later publishes cost one access() check. Processes sharing a
 * directory may race on the rename; that is harmless, both wrote
 * identical bytes, and the pid in the temporary's name keeps their
 * temporaries apart.
 *
 * Locking: publish runs entirely under the store's mutex, so within
 * one process two publishes of one key never share a temporary and
 * the second finds the first's entry. Loads verify outside it (a
 * checkpoint restore is slow) and take it only to count and touch.
 *
 * Verify-on-load: the owning cache's callback re-checks every entry it
 * reads. A rejected entry — the callback returned false or threw — is
 * unlinked and counted, never served: first-writer-wins publish means
 * a bad file must go for a good one to land. A reject may race a
 * concurrent publish of the same key and drop the fresh entry; the
 * next load then misses, which costs a recomputation, never a wrong
 * result.
 *
 * Eviction: LRU by mtime (hits touch the entry). After a publish grows
 * the directory past max_bytes / max_entries, the oldest entries are
 * evicted until it fits. Both limits default to unbounded. Files that
 * are not exactly "<hex16>.<ext>" (temporaries, strangers) are
 * invisible to the budget and never evicted.
 *
 * Deliberately NOT part of the parameter registry: registry keys feed
 * fingerprints, so a store knob there would change the identities it
 * stores under. Stores are addressed by CLI flag or environment
 * variable instead; see openStore().
 */

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace hermes
{

class ByteSink;

/** Where a store lives and how big it may grow (0 = unbounded). */
struct StoreConfig
{
    std::string dir;
    std::uint64_t maxBytes = 0;
    std::uint64_t maxEntries = 0;
};

/**
 * Parse "DIR[,max_bytes=SIZE][,max_entries=N]" (SIZE takes K/M/G
 * suffixes), the syntax of --cache / --warmup-cache and their
 * environment variables. @p what names the store in error messages.
 * Throws std::invalid_argument on malformed specs.
 */
StoreConfig parseStoreSpec(const std::string &spec,
                           const std::string &what);

/** Hit/miss/housekeeping counters for one store instance. */
struct StoreStats
{
    std::size_t hits = 0;
    std::size_t misses = 0;
    /** Entries written (publishes of already-present keys are free). */
    std::size_t stores = 0;
    /** Corrupt/stale entries unlinked during load(). */
    std::size_t rejected = 0;
    std::size_t evicted = 0;
};

/** The store engine. Thread-safe; one instance per directory is enough. */
class ContentStore
{
  public:
    /** Reads the entry at the given path; false or a throw rejects it. */
    using Verify = std::function<bool(const std::string &path)>;
    /** Streams a new entry's bytes. */
    using Write = std::function<void(ByteSink &sink)>;

    /**
     * Opens (mkdir -p) @p cfg.dir for "<hex16>.<ext>" entries; @p what
     * prefixes error messages. Throws std::runtime_error.
     */
    ContentStore(StoreConfig cfg, std::string ext, std::string what);

    ContentStore(const ContentStore &) = delete;
    ContentStore &operator=(const ContentStore &) = delete;

    /**
     * Look @p key up. A missing entry is a miss; a present one goes
     * through @p verify: accepted, it is a hit and its LRU clock is
     * refreshed; rejected, it is unlinked, counted and a miss.
     * Nothing @p verify throws escapes.
     */
    bool load(std::uint64_t key, const Verify &verify);

    /**
     * Unless @p key already has an entry, stream one through @p write
     * into an atomic sink, publish it and evict past the budget.
     * Throws std::runtime_error on I/O failure (nothing is published).
     */
    void publish(std::uint64_t key, const Write &write);

    /** Live count of entries (rescans the directory). */
    std::size_t entryCount() const;

    /** Entry filename for a key: "<hex16>.<ext>". */
    static std::string entryName(std::uint64_t key, const std::string &ext);

    const std::string &dir() const { return cfg_.dir; }
    const StoreStats &stats() const { return stats_; }

  private:
    std::string entryPath(std::uint64_t key) const;
    void evictToBudgetLocked();

    StoreConfig cfg_;
    std::string ext_;
    std::string what_;
    mutable std::mutex mutex_;
    StoreStats stats_;
};

/**
 * The one way a front end opens a store: @p spec (the --cache /
 * --warmup-cache value), else the environment variable Store::kEnv
 * unless @p disabled (--no-cache / --no-warmup-cache). Returns nullptr
 * when neither names a store. Throws std::invalid_argument on a
 * malformed spec and std::runtime_error on an unusable directory.
 */
template <class Store>
std::unique_ptr<Store>
openStore(std::string spec, bool disabled)
{
    if (spec.empty() && !disabled)
        if (const char *env = std::getenv(Store::kEnv))
            spec = env;
    if (spec.empty())
        return nullptr;
    return std::make_unique<Store>(parseStoreSpec(spec, Store::kWhat));
}

} // namespace hermes
