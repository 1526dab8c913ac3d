#pragma once

/**
 * @file
 * Parallel experiment engine: fans a grid of (SystemConfig x trace)
 * points across hardware threads with a work-stealing pool.
 *
 * Determinism contract: each grid point simulates on exactly the seeds
 * derived from its *grid index* (never from submission order, thread id
 * or completion order), and results land in an index-addressed vector,
 * so the output is byte-identical at any thread count.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/stat_registry.hh"
#include "sim/system.hh"
#include "trace/suite.hh"

namespace hermes
{
class WarmupCache;
}

namespace hermes::sweep
{

/** One experiment: a labelled (config, traces, budget) grid point. */
struct GridPoint
{
    std::string label;
    SystemConfig config;
    /** One trace per core (exactly numCores entries). */
    std::vector<TraceSpec> traces;
    SimBudget budget;
};

/** Result of one grid point, tagged with its grid index. */
struct PointResult
{
    std::size_t index = 0;
    std::string label;
    RunStats stats;
    double wallSeconds = 0;
    /** False when the point's simulation threw (stats are default). */
    bool ok = true;
};

/**
 * One shard of a deterministic grid partition: shard i of N owns every
 * grid index with index % count == index_ - 1 (1-based, so the CLI spec
 * "--shard 2/4" reads naturally). count == 1 means "the whole grid".
 */
struct ShardSpec
{
    int index = 1;
    int count = 1;
};

/**
 * Parse "i/N" (1 <= i <= N). Throws std::invalid_argument on malformed
 * specs, zero/negative counts or an out-of-range index.
 */
ShardSpec parseShardSpec(const std::string &spec);

/** How the engine derives per-point seeds. */
enum class SeedPolicy : std::uint8_t
{
    /**
     * Keep the seeds the caller put into each GridPoint (default).
     * Paired comparisons (same trace under different configs) then see
     * identical instruction streams, matching a serial run exactly.
     */
    Keep,
    /**
     * Derive config.seed from (seedBase, grid index) via splitmix64;
     * use for replication studies that want decorrelated system RNG
     * per point while staying order-independent.
     */
    PerPoint,
};

/** Called as points finish: (completed count, total, finished point). */
using ProgressFn =
    std::function<void(std::size_t, std::size_t, const PointResult &)>;

struct SweepOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    int threads = 0;
    SeedPolicy seedPolicy = SeedPolicy::Keep;
    std::uint64_t seedBase = 1;
    /** Invoked under an internal mutex; may be empty. */
    ProgressFn onProgress;
    /**
     * Warmup checkpoint store (sim/warmup_cache.hh). Points whose
     * warmup identity is already present restore the warmed state
     * instead of re-executing the warmup window; each distinct
     * identity warms exactly once per store (per-fingerprint locks
     * cover the in-process workers, first-writer-wins covers
     * processes). Stats are unaffected either way. May be nullptr.
     */
    WarmupCache *warmupCache = nullptr;
};

/**
 * Work-stealing experiment runner. Point i of the grid always produces
 * slot i of the result vector; thread count only affects wall-clock.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts = {});

    /**
     * Run every grid point; returns results in grid order. The first
     * exception thrown by a point (e.g. a malformed config) is
     * rethrown on the calling thread after all workers drain.
     */
    std::vector<PointResult> run(const std::vector<GridPoint> &grid) const;

    /**
     * Run the grid points whose @p skip entry is false (an empty mask
     * skips nothing). Seeds stay keyed by *grid* index, so a point
     * simulates identically whether it runs in a full sweep, a shard
     * or a resume; skipped slots keep a default PointResult (index and
     * label filled, stats empty). Progress counts selected points only.
     */
    std::vector<PointResult> run(const std::vector<GridPoint> &grid,
                                 const std::vector<bool> &skip) const;

    /** Threads that run() will use for a grid of @p points points. */
    int effectiveThreads(std::size_t points) const;

    /** splitmix64 mix of (base, index); the PerPoint seed derivation. */
    static std::uint64_t pointSeed(std::uint64_t base, std::size_t index);

    /**
     * True when grid index @p index belongs to @p shard. The partition
     * is deterministic in the grid index alone (round-robin), so N
     * shard runs cover every point exactly once regardless of machine,
     * thread count or launch order. A degenerate spec (count < 1 or an
     * index outside 1..count) throws std::invalid_argument rather than
     * silently mis-partitioning.
     */
    static bool inShard(std::size_t index, const ShardSpec &shard);

  private:
    SweepOptions opts_;
};

/**
 * csvHeader() plus one formatCsvRow() line per result, grid order.
 * @p with_host_perf appends the (non-deterministic) sim_mips and
 * host_seconds columns; leave it off for reproducible dumps.
 */
std::string toCsv(const std::vector<PointResult> &results,
                  bool with_host_perf = false);

/** The same dump over a registry-selected column list (--stats). */
std::string toCsv(const std::vector<PointResult> &results,
                  const std::vector<StatColumn> &columns);

/** JSON array of formatJsonRow() objects, grid order. */
std::string toJson(const std::vector<PointResult> &results,
                   bool with_host_perf = false);

/** The same dump over a registry-selected column list (--stats). */
std::string toJson(const std::vector<PointResult> &results,
                   const std::vector<StatColumn> &columns);

/**
 * FNV-1a over (index, statsFingerprint) of every result in grid order:
 * one deterministic hash for a whole sweep. A merged set of shard
 * journals must reproduce the unsharded run's value exactly — the
 * sharded CI figure job pins these in tests/golden.
 */
std::uint64_t sweepFingerprint(const std::vector<PointResult> &results);

/**
 * Wall-clock progress formatter for --progress meters: tracks its own
 * start time and renders "[done/total] label  3.2 pts/s  eta 0:41".
 * Rate and ETA appear once the first point lands.
 */
class ProgressMeter
{
  public:
    ProgressMeter();

    std::string line(std::size_t done, std::size_t total,
                     const std::string &label) const;

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace hermes::sweep
