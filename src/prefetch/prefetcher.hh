#pragma once

/**
 * @file
 * Hardware data-prefetcher interface. Prefetchers sit at the LLC
 * (matching the paper's configuration, Table 4): the cache invokes the
 * prefetcher on every demand access and feeds back fill/usefulness
 * events so learning prefetchers (SPP+PPF, Pythia) can assign credit.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hermes
{

class StateReader;
class StateWriter;

/**
 * A hardware prefetcher attached to one cache. Addresses exchanged with
 * the prefetcher are full byte addresses; prefetch candidates are
 * returned as cache-line addresses.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    virtual const char *name() const = 0;

    /**
     * A demand access (Load/Rfo) was looked up in the cache.
     *
     * @param addr byte address of the access
     * @param pc PC of the triggering instruction
     * @param hit whether the lookup hit
     * @param out_lines line addresses the prefetcher wants fetched
     */
    virtual void onAccess(Addr addr, Addr pc, bool hit,
                          std::vector<Addr> &out_lines) = 0;

    /** A prefetched line was filled into the cache. */
    virtual void onPrefetchFill(Addr line) { (void)line; }

    /** A demand access hit a line this prefetcher brought in. */
    virtual void onPrefetchUseful(Addr line, Addr pc)
    {
        (void)line;
        (void)pc;
    }

    /**
     * A demand access merged into this prefetcher's still-in-flight
     * fetch: accurate but late. Defaults to the useful feedback.
     */
    virtual void onPrefetchLate(Addr line, Addr pc)
    {
        onPrefetchUseful(line, pc);
    }

    /** A prefetched line was evicted without ever being used. */
    virtual void onPrefetchUseless(Addr line) { (void)line; }

    /** Metadata storage in bits (Table 6 accounting). */
    virtual std::uint64_t storageBits() const = 0;

    /**
     * Warmup-checkpoint support (sim/simulator.hh): the learned state
     * at the warmup/measure seam. The cache counts this prefetcher's
     * events (CacheStats), and counters are never checkpointed. A
     * prefetcher that does not override these stays non-checkpointable
     * and disables checkpointing for runs that select it.
     */
    virtual bool checkpointable() const { return false; }
    virtual void saveState(StateWriter &) const {}
    virtual void loadState(StateReader &) {}
};

/**
 * Registry names of the prefetchers of Table 6 plus a simple streamer
 * baseline, the values of SystemConfig::prefetcher. Every registered
 * model is selectable by name; these are spelled out for the paper's
 * grid.
 */
namespace PrefetcherKind
{
inline constexpr const char *None = "none";
inline constexpr const char *Streamer = "streamer";
inline constexpr const char *Spp = "spp";
inline constexpr const char *Bingo = "bingo";
inline constexpr const char *Mlop = "mlop";
inline constexpr const char *Sms = "sms";
inline constexpr const char *Pythia = "pythia";
} // namespace PrefetcherKind

} // namespace hermes
