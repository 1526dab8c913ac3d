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
 * CLI flags (initCli; they win over the environment) are the rows
 * sweep::kFigureFrontEnd declares in the shared flag table
 * (src/sweep/front_end.hh); `<driver> --help` lists them. Every grid
 * a driver fans out runs through sweep::runJournaled, so --journal,
 * --shard, --resume and the --cache/--warmup-cache stores work as in
 * hermes_sweep, with one journal segment per runGrid/runSuite call
 * (src/sweep/journal.hh): shard journals of one driver union
 * together, and a complete union reprints full figures without
 * simulating anything.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/power.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "sweep/front_end.hh"
#include "sweep/sweep.hh"
#include "trace/suite.hh"

namespace hermes::bench
{

/** Options shared by every figure/table driver, set by initCli(). */
using CliOptions = sweep::CliOptions;

/**
 * Parse the flags sweep::kFigureFrontEnd declares (call first in every
 * driver's main); usage errors exit 2 with the generated usage text.
 * Then read the --resume journals and open the stores (exit 1 on
 * failure).
 */
void initCli(int argc, char **argv);

/** The options parsed by initCli() (defaults if never called). */
const CliOptions &cli();

/**
 * The traces --suite, else HERMES_BENCH_SUITE, selects ("quick" if
 * neither): a suite name or a comma list of trace specs.
 */
std::vector<TraceSpec> suite();

/**
 * Run a labelled grid and record every point for the --csv/--json exit
 * dump. Building block for custom fan-outs.
 *
 * Each call opens the next journal segment under --journal, reuses
 * resumed points and simulates only this shard's missing ones. Slots
 * not owned by this process come back with empty stats, and the
 * harness prints a note that the figure output is partial.
 */
std::vector<sweep::PointResult>
runGrid(const std::vector<sweep::GridPoint> &grid);

/** Simulation budget honouring HERMES_SIM_SCALE; the defaults are the
 * shared per-point sweep windows (SimBudget::sweepDefaults). Exits 2
 * when the scale takes a window past 64 bits. */
SimBudget budget(
    std::uint64_t warmup = SimBudget::sweepDefaults().warmupInstrs,
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
/** The paper's five baseline prefetchers (Table 6), in the order its
 * per-prefetcher figures (Figs. 4b, 17b, 21, 22) plot them. */
inline constexpr const char *kPaperPrefetchers[] = {
    PrefetcherKind::Pythia, PrefetcherKind::Bingo, PrefetcherKind::Spp,
    PrefetcherKind::Mlop, PrefetcherKind::Sms};
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
std::vector<RunStats> runMixes(
    const SystemConfig &cfg, const std::vector<std::vector<TraceSpec>> &mixes,
    const SimBudget &b, const std::string &label_prefix);

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
