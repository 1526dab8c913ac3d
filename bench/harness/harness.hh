#pragma once

/**
 * @file
 * Shared benchmark harness: named system configurations matching the
 * paper's evaluated mechanisms (§7.2), suite runners with per-category
 * aggregation, speedup helpers and table printing. Every figure/table
 * bench binary is a thin driver over these helpers.
 *
 * Suite runners fan their (config x trace) grids over all cores with
 * sweep::SweepEngine; results are deterministic at any thread count.
 *
 * Environment knobs:
 *  - HERMES_SIM_SCALE: scales instruction budgets (default 1.0);
 *  - HERMES_BENCH_SUITE=quick|full: trace list (default quick, so the
 *    whole bench directory finishes in minutes on a laptop);
 *  - HERMES_THREADS: worker threads (default: all hardware threads).
 *
 * CLI flags (initCli; they win over the environment):
 *  --threads N (0 = all hardware threads), --suite quick|full,
 *  --scale F, --csv FILE, --json FILE, --stats LIST (registry column
 *  selection for the dumps, e.g. "core.ipc,llc.mpki,dram.*"),
 *  --progress, --no-progress, --mips, --profile (per-component
 *  host-time breakdown per grid; exports HERMES_PROFILE), --list
 *  (print available predictors, prefetchers, suites and registry
 *  parameters, then exit).
 *
 * Fleet orchestration (see src/sweep/journal.hh): every grid a driver
 * fans out is journaled, shardable and resumable with the same flags
 * hermes_sweep uses —
 *  --journal FILE  append each completed point as crash-safe JSONL
 *                  (one journal segment per runGrid/runSuite call);
 *  --shard i/N     simulate only slice i of each grid's deterministic
 *                  N-way partition (figure tables are then partial);
 *  --resume FILE   skip points FILE already records (repeatable;
 *                  shard journals of the same driver union together,
 *                  so a complete union reprints full figures without
 *                  re-simulating anything);
 *  --cache SPEC    shared content-addressed result store
 *                  "DIR[,max_bytes=SIZE][,max_entries=N]" (env
 *                  HERMES_RESULT_CACHE; --no-cache ignores the env):
 *                  points the store already holds load instead of
 *                  simulating, and every completion is stored back, so
 *                  overlapping figure grids and re-runs share work;
 *  --warmup-cache SPEC
 *                  shared warmup checkpoint store (same SPEC syntax;
 *                  env HERMES_WARMUP_CACHE, --no-warmup-cache ignores
 *                  it): grid points with the same warmup identity
 *                  restore the warmed state instead of re-warming
 *                  (sim/warmup_cache.hh).
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/power.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "sweep/sweep.hh"
#include "trace/suite.hh"

namespace hermes::bench
{

/** Options shared by every figure/table driver, set by initCli(). */
struct CliOptions
{
    /** Sweep worker threads; 0 = all hardware threads. */
    int threads = 0;
    /** "quick" or "full"; empty defers to HERMES_BENCH_SUITE. */
    std::string suiteName;
    /** Progress meter on stderr (default: only when a terminal). */
    bool progress = false;
    /**
     * Report simulator throughput: prints a simulated-MIPS summary per
     * grid after each fan-out and appends sim_mips/host_seconds
     * columns to the --csv/--json dumps.
     */
    bool mips = false;
    /**
     * Per-component host-time attribution: exports HERMES_PROFILE so
     * every simulated System accumulates per-stage seconds (see
     * src/sim/perf.hh and docs/performance.md) and prints an aggregate
     * breakdown after each grid. Host-side only — never affects
     * simulated results or fingerprints.
     */
    bool profile = false;
    /** Write every simulated grid point as CSV/JSON on exit. */
    std::string csvPath;
    std::string jsonPath;
    /**
     * Registry column selection for the dumps ("" = the default
     * aggregate columns, plus host-perf columns under --mips). See
     * sim/stat_registry.hh for the key syntax.
     */
    std::string statsSpec;
    /** This process's slice of every grid (default: all of it). */
    sweep::ShardSpec shard;
    /** Journal completed points here ("" = no journaling). */
    std::string journalPath;
    /** Journals whose recorded points are skipped, not re-simulated. */
    std::vector<std::string> resumePaths;
    /**
     * Result store spec "DIR[,max_bytes=SIZE][,max_entries=N]"; ""
     * means no store (unless HERMES_RESULT_CACHE names one and
     * --no-cache was not given). See sweep/result_cache.hh.
     */
    std::string cacheSpec;
    /**
     * Warmup checkpoint store spec (same syntax); "" means none
     * (unless HERMES_WARMUP_CACHE names one and --no-warmup-cache was
     * not given). See sim/warmup_cache.hh.
     */
    std::string warmupCacheSpec;
};

/**
 * Parse the shared bench flags (call first in every driver's main).
 * Unknown flags abort with a usage message; --scale re-exports
 * HERMES_SIM_SCALE so budget() picks it up.
 */
void initCli(int argc, char **argv);

/** The options parsed by initCli() (defaults if never called). */
const CliOptions &cli();

/** The trace list selected by --suite / HERMES_BENCH_SUITE. */
std::vector<TraceSpec> suite();

/** Engine honouring --threads and --progress; used by runSuite(). */
sweep::SweepEngine engine();

/**
 * Run a labelled grid through engine() and record every point for the
 * --csv/--json exit dump. Building block for custom fan-outs.
 *
 * Under --journal/--shard/--resume this is the orchestrated path: each
 * call opens the next journal segment, resumed points are reused, and
 * only this shard's missing points simulate. Slots not owned by this
 * process come back with empty stats — gridComplete() says whether the
 * last grid was fully covered (drivers' derived tables are only
 * meaningful when it was, and the harness prints a note when not).
 */
std::vector<sweep::PointResult>
runGrid(const std::vector<sweep::GridPoint> &grid);

/** True when every point of the last runGrid() call holds real stats. */
bool gridComplete();

/** Simulation budget honouring HERMES_SIM_SCALE; the defaults are the
 * shared per-point sweep windows (SimBudget::sweepDefaults). */
SimBudget budget(std::uint64_t warmup = SimBudget::sweepDefaults().warmupInstrs,
                 std::uint64_t sim = SimBudget::sweepDefaults().simInstrs);

/**
 * Named baseline configurations (single core unless stated). Models
 * are registered names (PrefetcherKind::Pythia is "pythia"; see
 * hermes_run --list-models); a typo throws std::invalid_argument with
 * a nearest-name suggestion.
 */
SystemConfig cfgNoPrefetch();
SystemConfig cfgPrefetcher(const std::string &pf);
/** Pythia baseline (the paper's Table 4 system). */
SystemConfig cfgBaseline();
/** Add Hermes with the given predictor to a config. */
SystemConfig withHermes(SystemConfig cfg, const std::string &pred,
                        Cycle issue_latency = 6);
/** Predictor observing loads but never issuing requests. */
SystemConfig withPredictorOnly(SystemConfig cfg, const std::string &pred);

/** A run result labelled by trace. */
struct TraceResult
{
    std::string trace;
    std::string category;
    RunStats stats;
};

/** Run a config over the whole suite (single-core, parallel). */
std::vector<TraceResult> runSuite(const SystemConfig &cfg,
                                  const SimBudget &b);

/**
 * Run a multi-core config over a list of workload mixes (one trace per
 * core each), fanned over the engine; results in mix order.
 */
std::vector<RunStats> runMixes(const SystemConfig &cfg,
                               const std::vector<std::vector<TraceSpec>> &mixes,
                               const SimBudget &b,
                               const std::string &label_prefix);

/** Geomean over per-trace ratios vs a baseline run of the same suite. */
double geomeanSpeedup(const std::vector<TraceResult> &test,
                      const std::vector<TraceResult> &base);

/** Per-category geomean speedups (keyed by category, plus "ALL"). */
std::map<std::string, double>
speedupByCategory(const std::vector<TraceResult> &test,
                  const std::vector<TraceResult> &base);

/** Per-category arithmetic mean of a per-trace metric. */
std::map<std::string, double>
meanByCategory(const std::vector<TraceResult> &rs,
               double (*metric)(const TraceResult &));

/** Simple aligned table printer (also emits a CSV block). */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);
    void addRow(std::vector<std::string> cells);
    void print(const std::string &title) const;

    static std::string fmt(double v, int precision = 3);
    static std::string pct(double v, int precision = 1);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace hermes::bench
