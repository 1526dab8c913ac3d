/**
 * @file
 * hermes_sweep: run, shard, resume and merge whole sweep grids declared
 * as strings — the fleet-scale companion to hermes_run. A scenario
 * space is a base config (key=value overrides) crossed with sweep axes
 * (--axis "llc.latency=30,40,50") and a workload list (--suite, --trace
 * or --mix); every completed point is journaled as a fingerprinted
 * JSONL record, so:
 *
 *   --shard i/N   splits one grid across N processes or machines,
 *   --resume J    skips points J already records (crash recovery),
 *   --merge       unions shard journals into the full result set,
 *
 * and the merged CSV/JSON/fingerprint is byte-identical to the same
 * sweep run unsharded in one process.
 *
 * Examples:
 *   hermes_sweep --axis "prefetcher=none,pythia" --suite quick \
 *       --journal all.jsonl --csv results.csv
 *   hermes_sweep ... --shard 1/4 --journal s1.jsonl   # one per machine
 *   hermes_sweep ... --resume s1.jsonl --resume s2.jsonl \
 *       --resume s3.jsonl --resume s4.jsonl --merge \
 *       --journal merged.jsonl --csv results.csv --fingerprint
 *
 * With --cache DIR (or HERMES_RESULT_CACHE) every completed point also
 * lands in a shared content-addressed store, and later sweeps load
 * matching points instead of simulating them (docs/result-cache.md).
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/config.hh"
#include "sim/model_registry.hh"
#include "sim/param_registry.hh"
#include "sim/report.hh"
#include "sim/stat_registry.hh"
#include "sim/warmup_cache.hh"
#include "sweep/axis.hh"
#include "sweep/journal.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep.hh"
#include "trace/resolve.hh"
#include "trace/suite.hh"

namespace
{

using namespace hermes;

void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        stderr,
        "usage: %s [key=value ...] [options]\n"
        "Run, shard, resume and merge string-declared sweep grids.\n"
        "\n"
        "scenario space (config grid x workloads):\n"
        "  key=value        base-config registry override\n"
        "                   (see --list for every key)\n"
        "  --axis SPEC      sweep axis \"key=v1,v2,...\" (repeatable;\n"
        "                   axes expand as a cartesian product)\n"
        "  --suite S        one single-core point per trace of suite S:\n"
        "                   quick|full (default quick), or a comma-\n"
        "                   separated trace-spec list\n"
        "  --trace SPEC     one workload point (repeatable; replicated\n"
        "                   across cores on multi-core configs): suite\n"
        "                   name, corpus.<gen>[:knob=value...], or\n"
        "                   file:<path> (HRMTRACE/ChampSim, .gz/.xz)\n"
        "  --mix A,B,...    one multi-core point, one trace per core\n"
        "                   (repeatable)\n"
        "  --warmup N       warmup instructions per core (default 60000)\n"
        "  --instrs N       measured instructions (default 250000)\n"
        "  --scale F        scale both budgets (env HERMES_SIM_SCALE)\n"
        "\n"
        "orchestration:\n"
        "  --shard i/N      simulate only slice i of a deterministic\n"
        "                   N-way grid partition\n"
        "  --journal FILE   record every completed point to FILE as\n"
        "                   crash-safe JSONL\n"
        "  --resume FILE    skip points already recorded in FILE\n"
        "                   (repeatable); the rest is simulated\n"
        "  --merge          union the --resume journals WITHOUT\n"
        "                   simulating; fails unless they cover the\n"
        "                   whole grid\n"
        "  --threads N      worker threads (0 = all hardware threads;\n"
        "                   env HERMES_THREADS)\n"
        "  --progress       per-point meter with points/sec and ETA\n"
        "  --no-progress\n"
        "\n"
        "result & warmup caches:\n"
        "  --cache SPEC     content-addressed result store\n"
        "                   \"DIR[,max_bytes=SIZE][,max_entries=N]\";\n"
        "                   cached points load instead of simulating\n"
        "                   (env HERMES_RESULT_CACHE)\n"
        "  --no-cache       ignore HERMES_RESULT_CACHE\n"
        "  --warmup-cache SPEC\n"
        "                   warmup checkpoint store (same SPEC syntax);\n"
        "                   points sharing a warmup identity restore the\n"
        "                   warmed state instead of re-warming — pair\n"
        "                   with hermes.warmup_issue=false to sweep\n"
        "                   hermes.issue_latency on one warmup\n"
        "                   (env HERMES_WARMUP_CACHE)\n"
        "  --no-warmup-cache\n"
        "                   ignore HERMES_WARMUP_CACHE\n"
        "\n"
        "output (CSV/JSON/fingerprint need a complete grid):\n"
        "  --csv FILE|-     one CSV row per grid point\n"
        "  --json FILE|-    JSON array of grid points\n"
        "  --stats LIST     CSV/JSON columns: comma-separated stat keys,\n"
        "                   per-core forms (core.0.ipc) and globs\n"
        "                   (dram.*); default: the aggregate column set\n"
        "  --fingerprint    print the 16-hex sweep fingerprint (never\n"
        "                   affected by --stats column selection)\n"
        "  --mips           per-point MIPS summary + sim_mips and\n"
        "                   host_seconds columns in the dumps\n"
        "  --list-grid      print the expanded grid and its space\n"
        "                   fingerprint, then exit\n"
        "  --list           scenario-space discovery listing\n"
        "  --list-models    registered models (predictors, prefetchers,\n"
        "                   replacement policies) with their knobs\n"
        "  --list-stats     statistics table (key, type, aggregation,\n"
        "                   fingerprint flag, description)\n"
        "  -h, --help       this message\n",
        argv0);
    std::exit(exit_code);
}

struct Options
{
    Config overrides;
    std::vector<std::string> axisSpecs;
    std::string suiteName;
    std::vector<std::string> traceNames;
    std::vector<std::string> mixSpecs;
    std::uint64_t warmup = SimBudget::sweepDefaults().warmupInstrs;
    std::uint64_t instrs = SimBudget::sweepDefaults().simInstrs;

    sweep::ShardSpec shard;
    std::string journalPath;
    std::vector<std::string> resumePaths;
    bool merge = false;
    int threads = 0;
    bool progress = false;

    std::string cacheSpec;
    bool noCache = false;
    std::string warmupCacheSpec;
    bool noWarmupCache = false;

    std::string csvPath;
    std::string jsonPath;
    std::string statsSpec;
    bool fingerprint = false;
    bool mips = false;
    bool listGrid = false;
};

std::uint64_t
parseCountOrDie(const std::string &s, const char *argv0)
{
    const auto v = parseInt64(s);
    if (!v || *v < 0) {
        std::fprintf(stderr,
                     "error: expected a non-negative integer, got "
                     "'%s'\n",
                     s.c_str());
        usage(argv0, 2);
    }
    return static_cast<std::uint64_t>(*v);
}

/** --threads/HERMES_THREADS (@p what) or exit 2 with a message. */
int
threadCountOrDie(const char *what, const std::string &s,
                 const char *argv0)
{
    const auto v = parseThreadCount(s);
    if (!v) {
        std::fprintf(stderr,
                     "error: %s wants an integer from 0 (all hardware "
                     "threads) to %d, got '%s'\n",
                     what, INT_MAX, s.c_str());
        usage(argv0, 2);
    }
    return *v;
}

Options
parseCli(int argc, char **argv)
{
    Options opt;
    opt.progress = isatty(fileno(stderr)) != 0;
    if (const char *env = std::getenv("HERMES_THREADS"))
        opt.threads = threadCountOrDie("HERMES_THREADS", env, argv[0]);
    std::vector<std::string> cli_overrides;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n",
                             arg.c_str());
                usage(argv[0], 2);
            }
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(argv[0], 0);
        } else if (arg == "--list") {
            std::printf("%s", describeScenarioSpace().c_str());
            std::exit(0);
        } else if (arg == "--list-models") {
            std::printf("%s",
                        ModelRegistry::instance().describe().c_str());
            std::exit(0);
        } else if (arg == "--list-stats") {
            std::printf("%s",
                        StatRegistry::instance().describe().c_str());
            std::exit(0);
        } else if (arg == "--list-grid") {
            opt.listGrid = true;
        } else if (arg == "--axis") {
            opt.axisSpecs.push_back(value());
        } else if (arg == "--suite") {
            opt.suiteName = value();
            // Fail fast on typos/bad specs; buildGrid re-resolves.
            try {
                resolveSuite(opt.suiteName);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                usage(argv[0], 2);
            }
        } else if (arg == "--trace") {
            opt.traceNames.push_back(value());
        } else if (arg == "--mix") {
            opt.mixSpecs.push_back(value());
        } else if (arg == "--warmup") {
            opt.warmup = parseCountOrDie(value(), argv[0]);
        } else if (arg == "--instrs") {
            opt.instrs = parseCountOrDie(value(), argv[0]);
        } else if (arg == "--scale") {
            const std::string scale = value();
            if (!parseScale(scale)) {
                std::fprintf(stderr,
                             "error: --scale wants a finite positive "
                             "number, got '%s'\n",
                             scale.c_str());
                usage(argv[0], 2);
            }
            setenv("HERMES_SIM_SCALE", scale.c_str(), 1);
        } else if (arg == "--shard") {
            opt.shard = sweep::parseShardSpec(value());
        } else if (arg == "--journal") {
            opt.journalPath = value();
        } else if (arg == "--resume") {
            opt.resumePaths.push_back(value());
        } else if (arg == "--merge") {
            opt.merge = true;
        } else if (arg == "--threads") {
            opt.threads = threadCountOrDie("--threads", value(), argv[0]);
        } else if (arg == "--progress") {
            opt.progress = true;
        } else if (arg == "--no-progress") {
            opt.progress = false;
        } else if (arg == "--cache") {
            opt.cacheSpec = value();
        } else if (arg == "--no-cache") {
            opt.noCache = true;
        } else if (arg == "--warmup-cache") {
            opt.warmupCacheSpec = value();
        } else if (arg == "--no-warmup-cache") {
            opt.noWarmupCache = true;
        } else if (arg == "--csv") {
            opt.csvPath = value();
        } else if (arg == "--json") {
            opt.jsonPath = value();
        } else if (arg == "--stats") {
            opt.statsSpec = value();
        } else if (arg == "--fingerprint") {
            opt.fingerprint = true;
        } else if (arg == "--mips") {
            opt.mips = true;
        } else if (arg.find('=') != std::string::npos &&
                   arg.compare(0, 2, "--") != 0) {
            cli_overrides.push_back(arg);
        } else {
            std::fprintf(stderr, "error: unknown argument '%s'\n",
                         arg.c_str());
            usage(argv[0], 2);
        }
    }

    for (const std::string &kv : cli_overrides) {
        const auto eq = kv.find('=');
        if (eq == 0 || eq == std::string::npos) {
            std::fprintf(stderr, "error: malformed override '%s'\n",
                         kv.c_str());
            usage(argv[0], 2);
        }
        opt.overrides.set(kv.substr(0, eq), kv.substr(eq + 1));
    }

    if (opt.merge && opt.resumePaths.empty()) {
        std::fprintf(stderr,
                     "error: --merge needs the shard journals as "
                     "--resume FILE arguments\n");
        usage(argv[0], 2);
    }
    if (opt.merge && opt.shard.count > 1) {
        std::fprintf(stderr,
                     "error: --merge and --shard are mutually "
                     "exclusive\n");
        usage(argv[0], 2);
    }
    const int stdout_claims = (opt.fingerprint ? 1 : 0) +
                              (opt.csvPath == "-" ? 1 : 0) +
                              (opt.jsonPath == "-" ? 1 : 0);
    if (stdout_claims > 1) {
        std::fprintf(stderr,
                     "error: only one of --fingerprint, --csv - and "
                     "--json - can claim stdout\n");
        usage(argv[0], 2);
    }
    if (opt.noCache && !opt.cacheSpec.empty()) {
        std::fprintf(stderr,
                     "error: --cache and --no-cache are mutually "
                     "exclusive\n");
        usage(argv[0], 2);
    }
    if (opt.noWarmupCache && !opt.warmupCacheSpec.empty()) {
        std::fprintf(stderr,
                     "error: --warmup-cache and --no-warmup-cache are "
                     "mutually exclusive\n");
        usage(argv[0], 2);
    }
    return opt;
}

/**
 * Expand (base overrides x axes) x workloads into the grid. The grid
 * order — workloads fastest, axes as declared — is part of the space
 * fingerprint, so shards and resumes of the same command line always
 * agree on which index is which.
 */
std::vector<sweep::GridPoint>
buildGrid(Options &opt)
{
    // One workload entry: a label plus one-or-many traces.
    struct WorkloadEntry
    {
        std::string label;
        std::vector<TraceSpec> traces;
    };
    std::vector<WorkloadEntry> workloads;

    for (const std::string &name : opt.traceNames)
        workloads.push_back({name, {resolveTrace(name)}});
    for (std::size_t m = 0; m < opt.mixSpecs.size(); ++m) {
        WorkloadEntry e;
        std::string joined;
        for (const std::string &name :
             sweep::splitCommaList(opt.mixSpecs[m], "--mix list")) {
            e.traces.push_back(resolveTrace(name));
            joined += (joined.empty() ? "" : "+") + name;
        }
        e.label = "mix" + std::to_string(m) + "." + joined;
        workloads.push_back(std::move(e));
    }
    if (workloads.empty()) {
        const std::string name =
            opt.suiteName.empty() ? "quick" : opt.suiteName;
        for (const TraceSpec &t : resolveSuite(name))
            workloads.push_back({t.name(), {t}});
    } else if (!opt.suiteName.empty()) {
        throw std::invalid_argument(
            "--suite cannot be combined with --trace/--mix");
    }

    // A mix with M traces implies an M-core system unless pinned.
    if (!opt.overrides.contains("system.cores") &&
        !opt.mixSpecs.empty()) {
        std::size_t cores = 0;
        for (const WorkloadEntry &w : workloads)
            cores = std::max(cores, w.traces.size());
        opt.overrides.set("system.cores", std::to_string(cores));
    }

    const SystemConfig base = SystemConfig::fromConfig(opt.overrides);
    const auto configs = sweep::expandGrid(base, opt.axisSpecs);
    const SimBudget budget =
        SimBudget::fromEnv(opt.warmup, opt.instrs);

    std::vector<sweep::GridPoint> grid;
    grid.reserve(configs.size() * workloads.size());
    for (const sweep::ConfigPoint &cfg : configs) {
        const int cores = cfg.config.numCores;
        for (const WorkloadEntry &w : workloads) {
            sweep::GridPoint p;
            p.label = cfg.label.empty() ? w.label
                                        : cfg.label + "/" + w.label;
            p.config = cfg.config;
            if (w.traces.size() == 1 && cores > 1)
                p.traces.assign(static_cast<std::size_t>(cores),
                                w.traces[0]);
            else
                p.traces = w.traces;
            if (static_cast<int>(p.traces.size()) != cores &&
                !(p.traces.size() == 1 && cores == 1))
                throw std::invalid_argument(
                    "workload '" + w.label + "' has " +
                    std::to_string(w.traces.size()) +
                    " traces but config '" + p.label + "' wants " +
                    std::to_string(cores) + " cores");
            p.budget = budget;
            grid.push_back(std::move(p));
        }
    }
    if (grid.empty())
        throw std::invalid_argument("the scenario space is empty");
    return grid;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseCli(argc, argv);
    try {
        const auto cache =
            openStore<sweep::ResultCache>(opt.cacheSpec, opt.noCache);
        const auto warmupCache =
            openStore<WarmupCache>(opt.warmupCacheSpec, opt.noWarmupCache);

        const std::vector<sweep::GridPoint> grid = buildGrid(opt);

        // Validate the column selection before any simulation runs: a
        // typo'd --stats must not cost a whole sweep. Selection shapes
        // the dumps only; the sweep fingerprint always hashes the full
        // statistics set.
        std::vector<StatColumn> columns =
            opt.statsSpec.empty() ? defaultStatColumns(opt.mips)
                                  : selectStatColumns(opt.statsSpec);
        if (!opt.statsSpec.empty() && opt.mips)
            appendHostPerfColumns(columns);

        if (opt.listGrid) {
            std::printf("grid: %zu points, space %s\n", grid.size(),
                        fingerprintHex(sweep::spaceFingerprint(grid))
                            .c_str());
            for (std::size_t i = 0; i < grid.size(); ++i)
                std::printf("%4zu  %s\n", i, grid[i].label.c_str());
            return 0;
        }

        // Union every --resume journal into one validated segment in
        // canonical (grid-index) order.
        std::vector<std::vector<sweep::JournalSegment>> files;
        for (const std::string &path : opt.resumePaths) {
            bool truncated = false;
            auto segments = sweep::readJournal(path, &truncated);
            if (truncated)
                std::fprintf(stderr,
                             "note: %s has a truncated final record "
                             "(crash mid-append); it will be "
                             "re-simulated\n",
                             path.c_str());
            if (segments.size() != 1)
                throw std::runtime_error(
                    path + " holds " +
                    std::to_string(segments.size()) +
                    " grid segments (a fig-driver journal?); "
                    "hermes_sweep drives single-grid journals");
            sweep::validateSegment(segments[0], grid);
            files.push_back(std::move(segments));
        }
        std::unique_ptr<sweep::JournalSegment> resume;
        if (!files.empty())
            resume = std::make_unique<sweep::JournalSegment>(
                std::move(sweep::mergeSegments(files)[0]));

        std::unique_ptr<sweep::JournalWriter> writer;
        if (!opt.journalPath.empty())
            writer = std::make_unique<sweep::JournalWriter>(
                opt.journalPath);

        sweep::OrchestratedRun run;
        if (opt.merge) {
            // Union only; simulate nothing. The union must cover the
            // grid — that is the whole point of the merge gate.
            const std::size_t n = grid.size();
            run.results.resize(n);
            run.present.assign(n, false);
            for (std::size_t i = 0; i < n; ++i) {
                run.results[i].index = i;
                run.results[i].label = grid[i].label;
            }
            if (writer)
                writer->beginGrid(grid);
            for (const sweep::JournalRecord &rec : resume->records) {
                run.results[rec.index] = rec.result;
                run.present[rec.index] = true;
                ++run.resumed;
                if (writer)
                    writer->append(rec.result);
            }
            if (!run.complete()) {
                std::string missing;
                std::size_t shown = 0;
                for (std::size_t i = 0; i < n && shown < 5; ++i)
                    if (!run.present[i]) {
                        missing += "\n  " + grid[i].label;
                        ++shown;
                    }
                throw std::runtime_error(
                    "merge incomplete: " +
                    std::to_string(run.missing()) + " of " +
                    std::to_string(n) +
                    " points missing, e.g.:" + missing);
            }
        } else {
            sweep::SweepOptions eopts;
            eopts.threads = opt.threads;
            if (opt.progress) {
                auto meter = std::make_shared<sweep::ProgressMeter>();
                eopts.onProgress =
                    [meter](std::size_t done, std::size_t total,
                            const sweep::PointResult &r) {
                        std::fprintf(
                            stderr, "\r%s",
                            meter->line(done, total, r.label).c_str());
                        if (done == total)
                            std::fprintf(stderr, "\n");
                    };
            }
            eopts.warmupCache = warmupCache.get();
            sweep::OrchestrateOptions oopts;
            oopts.shard = opt.shard;
            oopts.resume = resume.get();
            oopts.journal = writer.get();
            oopts.cache = cache.get();
            run = sweep::runJournaled(eopts, grid, oopts);
        }

        const bool complete = run.complete();
        std::fprintf(stderr,
                     "sweep: %zu points (%zu simulated, %zu cached, "
                     "%zu resumed, %zu other-shard), %s\n",
                     grid.size(), run.simulated, run.cached,
                     run.resumed, run.otherShard,
                     complete
                         ? ("fingerprint " +
                            fingerprintHex(
                                sweep::sweepFingerprint(run.results)))
                               .c_str()
                         : (std::to_string(run.missing()) +
                            " points missing")
                               .c_str());
        if (warmupCache) {
            const StoreStats &wc = warmupCache->stats();
            std::fprintf(stderr,
                         "warmup-cache: %zu warmed, %zu restored "
                         "(%zu stored, %zu rejected, %zu evicted)\n",
                         wc.misses, wc.hits, wc.stores, wc.rejected,
                         wc.evicted);
        }

        if (opt.mips) {
            std::uint64_t instrs = 0;
            double seconds = 0;
            for (const auto &r : run.results) {
                if (r.stats.hostPerf.instrs == 0)
                    continue;
                std::fprintf(stderr, "mips %-48s %8.2f\n",
                             r.label.c_str(), r.stats.hostPerf.mips());
                instrs += r.stats.hostPerf.instrs;
                seconds += r.stats.hostPerf.seconds;
            }
            if (seconds > 0)
                std::fprintf(stderr,
                             "mips TOTAL %llu instrs / %.3f "
                             "run-seconds = %.2f MIPS\n",
                             static_cast<unsigned long long>(instrs),
                             seconds,
                             static_cast<double>(instrs) / seconds /
                                 1e6);
        }

        bool dumps_ok = true;
        if (complete) {
            if (opt.fingerprint)
                std::printf("%s\n",
                            fingerprintHex(
                                sweep::sweepFingerprint(run.results))
                                .c_str());
            if (!opt.csvPath.empty())
                dumps_ok &= writeTextFile(
                    opt.csvPath, sweep::toCsv(run.results, columns));
            if (!opt.jsonPath.empty())
                dumps_ok &= writeTextFile(
                    opt.jsonPath,
                    sweep::toJson(run.results, columns) + "\n");
        } else if (opt.fingerprint || !opt.csvPath.empty() ||
                   !opt.jsonPath.empty()) {
            // An explicitly requested output that cannot be produced
            // must fail loudly: scripts capture stdout and would
            // otherwise compare empty strings successfully.
            std::fprintf(stderr,
                         "error: grid incomplete, cannot produce "
                         "--csv/--json/--fingerprint (merge the shard "
                         "journals first)\n");
            dumps_ok = false;
        }
        return dumps_ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
