#pragma once

/**
 * @file
 * Parallel experiment engine: fans a grid of (SystemConfig x trace)
 * points across hardware threads with a work-stealing pool.
 *
 * Determinism contract: each grid point simulates with its own
 * configuration's seed (never one drawn from submission order, thread
 * id or completion order), and results land in a vector slotted by grid
 * index, so the output is byte-identical at any thread count.
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

/** Called as points finish: (completed count, total, finished point). */
using ProgressFn =
    std::function<void(std::size_t, std::size_t, const PointResult &)>;

struct SweepOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    int threads = 0;
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
     * skips nothing). Each point runs with its own configuration's
     * seed, so it simulates identically whether it runs in a full
     * sweep, a shard or a resume; skipped slots keep a default
     * PointResult (index and label filled, stats empty). Progress
     * counts selected points only.
     */
    std::vector<PointResult> run(const std::vector<GridPoint> &grid,
                                 const std::vector<bool> &skip) const;

    /** Threads that run() will use for a grid of @p points points. */
    int effectiveThreads(std::size_t points) const;

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
 * csvHeader() plus one formatCsvRow() line per result, grid order, over
 * @p columns (defaultStatColumns() or a --stats selection).
 */
std::string toCsv(const std::vector<PointResult> &results,
                  const std::vector<StatColumn> &columns);

/** JSON array of formatJsonRow() objects over @p columns, grid order. */
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
