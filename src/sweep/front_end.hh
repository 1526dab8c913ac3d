#pragma once

/**
 * @file
 * The command-line front ends' one flag table. Every flag that
 * hermes_run, hermes_sweep and the figure drivers (bench/harness) take
 * is declared here once: its name, value metavar, strict value parser
 * and help line. A front end is a FrontEnd value naming the subset it
 * accepts; parseCli() reads argv against that subset and usage()
 * generates its help text from the same rows, so spellings, value
 * checks and help cannot drift between binaries.
 *
 * Spellings: "--name value" and "--name=value" for every value-taking
 * flag, and "-h" for "--help". A front end that takes scenario
 * overrides reads "key=value" (also "--key=value") as a parameter
 * registry override (sim/param_registry.hh).
 *
 * Errors: parseCli() throws UsageError for anything spelled wrong (an
 * unknown flag, a missing or malformed value, two flags that exclude
 * each other) and never exits, so it is unit-testable;
 * parseCliOrExit() is the same parse for a main(): usage errors exit
 * 2 with the usage text, --help and the --list* listings exit 0.
 *
 * The rest of the file is the post-parse code the grid-running front
 * ends share: opening the stores, reading --resume journals, the
 * engine options (--threads, --progress), the --mips summary and the
 * dump columns.
 */

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/simulator.hh"
#include "sim/stat_registry.hh"
#include "sim/warmup_cache.hh"
#include "sweep/journal.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep.hh"

namespace hermes::sweep
{

/** A command line that does not parse; the message names the flag. */
struct UsageError : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

/** What a parsed command line asks for. */
enum class CliAction : std::uint8_t
{
    Run,
    Help,
    List,
    ListParams,
    ListModels,
    ListStats,
};

/** One --trace (a trace spec) or --mix (a comma list), in argv order. */
struct WorkloadArg
{
    std::string spec;
    bool mix = false;
};

/** Every option any front end takes; each reads the fields it declares. */
struct CliOptions
{
    /** --help and --list* stop the parse at the first one. */
    CliAction action = CliAction::Run;

    /** --config file keys, then key=value overrides (later wins). */
    Config overrides;
    std::vector<WorkloadArg> workloads;
    /** --suite, resolved once while parsing; "" = the default suite. */
    std::string suiteName;
    std::vector<std::string> axisSpecs;
    std::uint64_t warmup = 0;
    std::uint64_t instrs = 0;
    /** --scale; parseCliOrExit() exports it as HERMES_SIM_SCALE. */
    std::string scale;

    /** This process's slice of every grid (default: all of it). */
    ShardSpec shard;
    std::string journalPath;
    std::vector<std::string> resumePaths;
    bool merge = false;
    /** Worker threads; 0 = all hardware threads. */
    int threads = 0;
    /** Progress meter on stderr (default: when stderr is a terminal). */
    bool progress = false;

    /** Store specs "DIR[,max_bytes=SIZE][,max_entries=N]"; see openStores. */
    std::string cacheSpec;
    bool noCache = false;
    std::string warmupCacheSpec;
    bool noWarmupCache = false;

    std::string label;
    bool report = false;
    std::string csvPath;
    std::string jsonPath;
    /** Dump column selection (sim/stat_registry.hh); "" = the default. */
    std::string statsSpec;
    bool fingerprint = false;
    /** Simulated-MIPS summary plus host-perf dump columns. */
    bool mips = false;
    /** Per-stage host time; parseCliOrExit() exports HERMES_PROFILE. */
    bool profile = false;
    bool listGrid = false;
};

/** One row of the flag table. */
struct Flag
{
    /** Help heading the row is listed under. */
    const char *group;
    const char *name;
    /** Value placeholder ("N", "FILE"); nullptr for a switch. */
    const char *metavar;
    const char *help;
    /** Strict parser: stores @p value or throws UsageError. */
    void (*apply)(CliOptions &opt, const std::string &value);
};

/** Every flag any front end takes, in help order. */
const std::vector<Flag> &flagTable();

/** A front end: what its usage line says and which flags it takes. */
struct FrontEnd
{
    /** The text under the usage line. */
    const char *summary;
    /** Takes key=value registry overrides. */
    bool overrides;
    /** Accepted flag names, each a flagTable() row. */
    std::vector<std::string> flags;
    /** --warmup/--instrs defaults. */
    SimBudget budget;

    bool accepts(const std::string &flag) const;
};

/** hermes_run: one scenario. */
extern const FrontEnd kRunFrontEnd;
/** hermes_sweep: grids, shards, resumes and merges. */
extern const FrontEnd kSweepFrontEnd;
/** The figure and table drivers (bench/harness initCli). */
extern const FrontEnd kFigureFrontEnd;

/**
 * Parse @p argv against @p fe. When @p fe takes --threads, its default
 * is HERMES_THREADS, else 0 (all hardware threads). Changes nothing in
 * the process. Throws UsageError on a usage error and
 * std::runtime_error when a --config file cannot be read or parsed.
 */
CliOptions parseCli(const FrontEnd &fe, int argc, const char *const *argv);

/** @p fe's help text, generated from its flag-table rows. */
std::string usage(const FrontEnd &fe, const std::string &argv0);

/**
 * parseCli() for a main(): a usage error prints the message and the
 * usage text and exits 2, any other parse error exits 1, and --help
 * (on stderr) and the --list* listings (on stdout) exit 0. Exports
 * --scale and --profile to the environment the library reads.
 */
CliOptions parseCliOrExit(const FrontEnd &fe, int argc, char **argv);

/** The result and warmup stores a command line names. */
struct Stores
{
    std::unique_ptr<ResultCache> results;
    std::unique_ptr<WarmupCache> warmups;
};

/**
 * --cache/--warmup-cache, else their environment defaults unless
 * --no-cache/--no-warmup-cache (openStore()). Throws on a bad spec or
 * an unusable directory.
 */
Stores openStores(const CliOptions &opt);

/**
 * Read every --resume journal, one entry per file, with a note on
 * stderr for a truncated final record (a crash mid-append), whose
 * point is simulated again. Throws on an unreadable or corrupt file.
 */
std::vector<std::vector<JournalSegment>>
readResumeJournals(const CliOptions &opt);

/** Engine options for --threads, --progress and @p warmups. */
SweepOptions engineOptions(const CliOptions &opt, WarmupCache *warmups);

/** --mips: each simulated point's MIPS and the total, on stderr. */
void printMipsSummary(const std::vector<PointResult> &results);

/**
 * The --csv/--json columns: --stats, else the default set, plus the
 * host-perf columns under --mips. Throws std::invalid_argument on a
 * bad --stats selection (parseCli() already rejects one).
 */
std::vector<StatColumn> statColumns(const CliOptions &opt);

} // namespace hermes::sweep
