#include "harness/harness.hh"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unistd.h>

#include "common/config.hh"
#include "common/stats.hh"
#include "sim/param_registry.hh"
#include "trace/resolve.hh"
#include "sim/report.hh"
#include "sim/stat_registry.hh"
#include "sim/warmup_cache.hh"
#include "sweep/journal.hh"
#include "sweep/result_cache.hh"

namespace hermes::bench
{

namespace
{

CliOptions g_cli;

/** Every grid point simulated by runGrid(), for the exit dump. */
std::vector<sweep::PointResult> g_all_results;
std::mutex g_all_results_mutex;

/** Orchestration state: journal writer, resumed segments, cursor. */
std::unique_ptr<sweep::JournalWriter> g_journal;
std::unique_ptr<sweep::ResultCache> g_cache;
std::unique_ptr<WarmupCache> g_warmup_cache;
std::vector<sweep::JournalSegment> g_resume;
std::size_t g_segment_index = 0;
bool g_last_grid_complete = true;
bool g_any_grid_incomplete = false;

bool
orchestrated()
{
    return !g_cli.journalPath.empty() || !g_resume.empty() ||
           g_cli.shard.count > 1 || g_cache != nullptr;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--threads N] [--suite SPEC] [--scale F]\n"
        "          [--csv FILE] [--json FILE] [--stats LIST]\n"
        "          [--progress|--no-progress]\n"
        "          [--mips] [--profile] [--shard i/N] [--journal FILE]\n"
        "          [--resume FILE]... [--cache SPEC] [--no-cache]\n"
        "          [--warmup-cache SPEC] [--no-warmup-cache]\n"
        "          [--list]\n"
        "  --threads N   sweep worker threads (0 = all hardware\n"
        "                threads, the default; env HERMES_THREADS)\n"
        "  --suite S     trace suite: quick, full, or a comma list\n"
        "                of trace specs (suite names,\n"
        "                corpus.<generator>[:knob=value...],\n"
        "                file:<path>); default quick; env"
        " HERMES_BENCH_SUITE\n"
        "  --scale F     scale instruction budgets (env"
        " HERMES_SIM_SCALE)\n"
        "  --csv FILE    dump every simulated point as CSV on exit\n"
        "  --json FILE   dump every simulated point as JSON on exit\n"
        "  --stats LIST  dump columns: comma-separated stat keys,\n"
        "                per-core forms (core.0.ipc) and globs\n"
        "                (dram.*; see hermes_run --list-stats)\n"
        "  --progress    per-point meter with points/sec and ETA\n"
        "  --mips        report simulated-MIPS per grid and add\n"
        "                sim_mips/host_seconds columns to the dumps\n"
        "  --profile     per-component host-time breakdown per grid\n"
        "                (exports HERMES_PROFILE; host-side only,\n"
        "                simulated results are unaffected)\n"
        "  --shard i/N   simulate only slice i of every grid's\n"
        "                deterministic N-way partition\n"
        "  --journal FILE  record completed points as crash-safe JSONL\n"
        "                (one segment per grid this driver fans out)\n"
        "  --resume FILE   skip points already recorded in FILE\n"
        "                (repeatable; shard journals union together)\n"
        "  --cache SPEC  content-addressed result store\n"
        "                \"DIR[,max_bytes=SIZE][,max_entries=N]\";\n"
        "                cached points load instead of simulating\n"
        "                (env HERMES_RESULT_CACHE)\n"
        "  --no-cache    ignore HERMES_RESULT_CACHE\n"
        "  --warmup-cache SPEC\n"
        "                warmup checkpoint store (same SPEC syntax);\n"
        "                points sharing a warmup identity restore the\n"
        "                warmed state instead of re-warming\n"
        "                (env HERMES_WARMUP_CACHE)\n"
        "  --no-warmup-cache\n"
        "                ignore HERMES_WARMUP_CACHE\n"
        "  --list        print available predictors, prefetchers,\n"
        "                suites and registry parameters, then exit\n",
        argv0);
    std::exit(2);
}

/** --threads/HERMES_THREADS (@p what) or exit 2 with a message. */
int
threadCountOrUsage(const char *what, const std::string &s,
                   const char *argv0)
{
    const auto v = parseThreadCount(s);
    if (!v) {
        std::fprintf(stderr,
                     "error: %s wants an integer from 0 (all hardware "
                     "threads) to %d, got '%s'\n",
                     what, INT_MAX, s.c_str());
        usage(argv0);
    }
    return *v;
}

void
flushSweepDumps()
{
    std::lock_guard<std::mutex> g(g_all_results_mutex);
    if (g_any_grid_incomplete)
        std::fprintf(stderr,
                     "note: --csv/--json dumps hold only the points "
                     "this shard covered\n");
    std::vector<StatColumn> columns =
        g_cli.statsSpec.empty() ? defaultStatColumns(g_cli.mips)
                                : selectStatColumns(g_cli.statsSpec);
    if (!g_cli.statsSpec.empty() && g_cli.mips)
        appendHostPerfColumns(columns);
    if (!g_cli.csvPath.empty())
        writeTextFile(g_cli.csvPath,
                      sweep::toCsv(g_all_results, columns));
    if (!g_cli.jsonPath.empty())
        writeTextFile(g_cli.jsonPath,
                      sweep::toJson(g_all_results, columns) + "\n");
}

} // namespace

void
initCli(int argc, char **argv)
{
    g_cli = CliOptions{};
    g_cli.progress = isatty(fileno(stderr)) != 0;
    if (const char *env = std::getenv("HERMES_THREADS"))
        g_cli.threads =
            threadCountOrUsage("HERMES_THREADS", env, argv[0]);
    bool no_cache = false;
    bool no_warmup_cache = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--threads") {
            g_cli.threads =
                threadCountOrUsage("--threads", value(), argv[0]);
        } else if (arg == "--suite") {
            g_cli.suiteName = value();
            // Fail fast on typos and bad corpus knobs/file paths:
            // resolution errors surface here, not after setup work.
            try {
                resolveSuite(g_cli.suiteName);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                std::exit(2);
            }
        } else if (arg == "--scale") {
            const std::string scale = value();
            if (!parseScale(scale)) {
                std::fprintf(stderr,
                             "error: --scale wants a finite positive "
                             "number, got '%s'\n",
                             scale.c_str());
                usage(argv[0]);
            }
            setenv("HERMES_SIM_SCALE", scale.c_str(), 1);
        } else if (arg == "--csv") {
            g_cli.csvPath = value();
        } else if (arg == "--json") {
            g_cli.jsonPath = value();
        } else if (arg == "--stats") {
            g_cli.statsSpec = value();
            // Fail fast on typos: selection errors surface here, not
            // after a whole figure grid has simulated.
            try {
                selectStatColumns(g_cli.statsSpec);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                std::exit(2);
            }
        } else if (arg == "--progress") {
            g_cli.progress = true;
        } else if (arg == "--no-progress") {
            g_cli.progress = false;
        } else if (arg == "--mips") {
            g_cli.mips = true;
        } else if (arg == "--profile") {
            g_cli.profile = true;
            // Systems read the knob at construction time, so export it
            // before any grid fans out.
            setenv("HERMES_PROFILE", "1", 1);
        } else if (arg == "--shard") {
            try {
                g_cli.shard = sweep::parseShardSpec(value());
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                usage(argv[0]);
            }
        } else if (arg == "--journal") {
            g_cli.journalPath = value();
        } else if (arg == "--resume") {
            g_cli.resumePaths.push_back(value());
        } else if (arg == "--cache") {
            g_cli.cacheSpec = value();
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else if (arg == "--warmup-cache") {
            g_cli.warmupCacheSpec = value();
        } else if (arg == "--no-warmup-cache") {
            no_warmup_cache = true;
        } else if (arg == "--list") {
            std::printf("%s", describeScenarioSpace().c_str());
            std::exit(0);
        } else {
            usage(argv[0]);
        }
    }

    // Read every resume journal up front; the journal *writer* (which
    // truncates its target — the common crash-recovery spelling
    // re-uses one path: --resume fig.jsonl --journal fig.jsonl) is
    // only opened by runGrid() once the first grid has validated
    // against the resumed records, so a mismatched resume cannot
    // destroy the very journal it came from.
    g_resume.clear();
    g_segment_index = 0;
    g_journal.reset();
    try {
        std::vector<std::vector<sweep::JournalSegment>> files;
        for (const std::string &path : g_cli.resumePaths) {
            bool truncated = false;
            files.push_back(sweep::readJournal(path, &truncated));
            if (truncated)
                std::fprintf(stderr,
                             "note: %s has a truncated final record "
                             "(crash mid-append); it will be "
                             "re-simulated\n",
                             path.c_str());
        }
        if (!files.empty())
            g_resume = sweep::mergeSegments(files);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }

    try {
        g_cache = openStore<sweep::ResultCache>(g_cli.cacheSpec, no_cache);
        g_warmup_cache =
            openStore<WarmupCache>(g_cli.warmupCacheSpec, no_warmup_cache);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }

    if (!g_cli.csvPath.empty() || !g_cli.jsonPath.empty())
        std::atexit(flushSweepDumps);
}

const CliOptions &
cli()
{
    return g_cli;
}

std::vector<TraceSpec>
suite()
{
    std::string name = g_cli.suiteName;
    if (name.empty()) {
        const char *env = std::getenv("HERMES_BENCH_SUITE");
        name = env != nullptr ? env : "quick";
    }
    try {
        return resolveSuite(name);
    } catch (const std::exception &e) {
        // Only reachable via HERMES_BENCH_SUITE; --suite validated in
        // initCli().
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

namespace
{

sweep::SweepOptions
engineOptions()
{
    sweep::SweepOptions opts;
    opts.threads = g_cli.threads;
    opts.warmupCache = g_warmup_cache.get();
    if (g_cli.progress) {
        // One meter per fan-out so the rate/ETA restart with each grid.
        auto meter = std::make_shared<sweep::ProgressMeter>();
        opts.onProgress = [meter](std::size_t done, std::size_t total,
                                  const sweep::PointResult &r) {
            std::fprintf(stderr, "\r%s",
                         meter->line(done, total, r.label).c_str());
            if (done == total)
                std::fprintf(stderr, "\n");
        };
    }
    return opts;
}

} // namespace

sweep::SweepEngine
engine()
{
    return sweep::SweepEngine(engineOptions());
}

bool
gridComplete()
{
    return g_last_grid_complete;
}

std::vector<sweep::PointResult>
runGrid(const std::vector<sweep::GridPoint> &grid)
{
    sweep::OrchestratedRun orun;
    if (orchestrated()) {
        sweep::OrchestrateOptions oopts;
        oopts.shard = g_cli.shard;
        // Drivers fan their grids out in a deterministic order, so the
        // k-th grid of this process matches the k-th segment of any
        // journal the same driver wrote.
        if (g_segment_index < g_resume.size()) {
            try {
                sweep::validateSegment(g_resume[g_segment_index], grid);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                // Later segments mismatching (after the writer already
                // rewrote earlier ones) must not cost the only
                // complete copy of the resumed records.
                if (g_journal != nullptr && !g_resume.empty()) {
                    const std::string orig =
                        g_cli.journalPath + ".orig";
                    std::ofstream out(orig, std::ios::binary);
                    out << sweep::journalText(g_resume);
                    if (out)
                        std::fprintf(stderr,
                                     "note: resumed records saved to "
                                     "%s\n",
                                     orig.c_str());
                }
                std::exit(1);
            }
            oopts.resume = &g_resume[g_segment_index];
        }
        ++g_segment_index;
        // Safe to open (and truncate) the journal only now that the
        // resume data has proven to match this process's grids.
        if (g_journal == nullptr && !g_cli.journalPath.empty()) {
            try {
                g_journal = std::make_unique<sweep::JournalWriter>(
                    g_cli.journalPath);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                std::exit(1);
            }
        }
        oopts.journal = g_journal.get();
        oopts.cache = g_cache.get();
        orun = sweep::runJournaled(engineOptions(), grid, oopts);
        g_last_grid_complete = orun.complete();
        if (!g_last_grid_complete) {
            g_any_grid_incomplete = true;
            std::fprintf(
                stderr,
                "note: shard %d/%d owns %zu of this %zu-point grid "
                "(%zu missing); figure output below is partial — "
                "merge the shard journals and re-run with --resume "
                "for full tables\n",
                g_cli.shard.index, g_cli.shard.count,
                orun.simulated + orun.cached + orun.resumed,
                grid.size(), orun.missing());
        }
    } else {
        orun.results = engine().run(grid);
        orun.present.assign(orun.results.size(), true);
        orun.simulated = orun.results.size();
        g_last_grid_complete = true;
    }
    const auto &results = orun.results;

    if (g_cli.mips) {
        std::uint64_t instrs = 0;
        double seconds = 0;
        for (const auto &r : results) {
            if (r.stats.hostPerf.instrs == 0)
                continue; // not simulated here (other shard)
            std::fprintf(stderr, "mips %-48s %8.2f\n", r.label.c_str(),
                         r.stats.hostPerf.mips());
            instrs += r.stats.hostPerf.instrs;
            seconds += r.stats.hostPerf.seconds;
        }
        // Per-run host seconds summed across workers: at --threads 1
        // this is the grid's aggregate simulated-MIPS; at higher
        // thread counts runs overlap and it reads as per-worker
        // throughput.
        if (seconds > 0)
            std::fprintf(stderr,
                         "mips TOTAL %lu instrs / %.3f run-seconds"
                         " = %.2f MIPS\n",
                         static_cast<unsigned long>(instrs), seconds,
                         static_cast<double>(instrs) / seconds / 1e6);
    }
    if (g_cli.profile) {
        HostProfile prof;
        for (const auto &r : results) {
            const HostProfile &p = r.stats.profile;
            prof.enabled = prof.enabled || p.enabled;
            prof.dramSeconds += p.dramSeconds;
            prof.llcSeconds += p.llcSeconds;
            prof.l2Seconds += p.l2Seconds;
            prof.l1Seconds += p.l1Seconds;
            prof.coreSeconds += p.coreSeconds;
            prof.horizonSeconds += p.horizonSeconds;
            prof.tickedCycles += p.tickedCycles;
            prof.skippedCycles += p.skippedCycles;
        }
        const std::uint64_t cycles =
            prof.tickedCycles + prof.skippedCycles;
        std::fprintf(
            stderr,
            "profile: %lu ticked + %lu skipped cycles (%.1f%% "
            "skipped)\n",
            static_cast<unsigned long>(prof.tickedCycles),
            static_cast<unsigned long>(prof.skippedCycles),
            cycles ? 100.0 * static_cast<double>(prof.skippedCycles) /
                         static_cast<double>(cycles)
                   : 0.0);
        if (prof.enabled)
            std::fprintf(stderr,
                         "profile: dram %.3fs llc %.3fs l2 %.3fs "
                         "l1 %.3fs core %.3fs horizon %.3fs\n",
                         prof.dramSeconds, prof.llcSeconds,
                         prof.l2Seconds, prof.l1Seconds,
                         prof.coreSeconds, prof.horizonSeconds);
    }
    {
        std::lock_guard<std::mutex> g(g_all_results_mutex);
        for (std::size_t i = 0; i < results.size(); ++i)
            if (orun.present[i])
                g_all_results.push_back(results[i]);
    }
    return results;
}

SimBudget
budget(std::uint64_t warmup, std::uint64_t sim)
{
    return SimBudget::fromEnv(warmup, sim);
}

SystemConfig
cfgNoPrefetch()
{
    return cfgPrefetcher(PrefetcherKind::None);
}

SystemConfig
cfgPrefetcher(const std::string &pf)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    ParamRegistry::instance().apply(cfg, "prefetcher", pf);
    return cfg;
}

SystemConfig
cfgBaseline()
{
    return cfgPrefetcher(PrefetcherKind::Pythia);
}

SystemConfig
withHermes(SystemConfig cfg, const std::string &pred,
           Cycle issue_latency)
{
    ParamRegistry::instance().apply(cfg, "predictor", pred);
    cfg.hermesIssueEnabled = true;
    cfg.hermesIssueLatency = issue_latency;
    return cfg;
}

SystemConfig
withPredictorOnly(SystemConfig cfg, const std::string &pred)
{
    ParamRegistry::instance().apply(cfg, "predictor", pred);
    cfg.hermesIssueEnabled = false;
    return cfg;
}

std::vector<TraceResult>
runSuite(const SystemConfig &cfg, const SimBudget &b)
{
    // Successive runSuite() calls get distinct label prefixes so the
    // --csv/--json exit dump rows stay unique across configs.
    static int run_seq = 0;
    const std::string prefix = "run" + std::to_string(run_seq++) + ".";

    const auto specs = suite();
    std::vector<sweep::GridPoint> grid;
    grid.reserve(specs.size());
    for (const auto &spec : specs)
        grid.push_back({prefix + spec.name(), cfg, {spec}, b});

    const auto results = runGrid(grid);
    std::vector<TraceResult> out;
    out.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        TraceResult r;
        r.trace = specs[i].name();
        r.category = specs[i].category();
        r.stats = results[i].stats;
        out.push_back(std::move(r));
    }
    return out;
}

std::vector<RunStats>
runMixes(const SystemConfig &cfg,
         const std::vector<std::vector<TraceSpec>> &mixes,
         const SimBudget &b, const std::string &label_prefix)
{
    std::vector<sweep::GridPoint> grid;
    grid.reserve(mixes.size());
    for (std::size_t i = 0; i < mixes.size(); ++i)
        grid.push_back(
            {label_prefix + ".mix" + std::to_string(i), cfg, mixes[i], b});

    const auto results = runGrid(grid);
    std::vector<RunStats> out;
    out.reserve(results.size());
    for (const auto &r : results)
        out.push_back(r.stats);
    return out;
}

double
geomeanSpeedup(const std::vector<TraceResult> &test,
               const std::vector<TraceResult> &base)
{
    std::vector<double> ratios;
    for (std::size_t i = 0; i < test.size() && i < base.size(); ++i) {
        const double t = test[i].stats.ipc(0);
        const double b = base[i].stats.ipc(0);
        if (t > 0 && b > 0)
            ratios.push_back(t / b);
    }
    return geomean(ratios);
}

std::map<std::string, double>
speedupByCategory(const std::vector<TraceResult> &test,
                  const std::vector<TraceResult> &base)
{
    std::map<std::string, std::vector<double>> per_cat;
    std::vector<double> all;
    for (std::size_t i = 0; i < test.size() && i < base.size(); ++i) {
        const double t = test[i].stats.ipc(0);
        const double b = base[i].stats.ipc(0);
        if (t > 0 && b > 0) {
            per_cat[test[i].category].push_back(t / b);
            all.push_back(t / b);
        }
    }
    std::map<std::string, double> out;
    for (auto &[cat, v] : per_cat)
        out[cat] = geomean(v);
    out["ALL"] = geomean(all);
    return out;
}

std::map<std::string, double>
meanByCategory(const std::vector<TraceResult> &rs,
               double (*metric)(const TraceResult &))
{
    std::map<std::string, std::vector<double>> per_cat;
    std::vector<double> all;
    for (const auto &r : rs) {
        const double v = metric(r);
        per_cat[r.category].push_back(v);
        all.push_back(v);
    }
    std::map<std::string, double> out;
    for (auto &[cat, v] : per_cat)
        out[cat] = mean(v);
    out["ALL"] = mean(all);
    return out;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
Table::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
Table::pct(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
    return buf;
}

void
Table::print(const std::string &title) const
{
    std::printf("\n== %s ==\n", title.c_str());
    std::vector<std::size_t> width(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
            std::printf("%-*s  ", static_cast<int>(width[c]),
                        row[c].c_str());
        std::printf("\n");
    };
    print_row(headers_);
    for (const auto &row : rows_)
        print_row(row);

    // CSV block for scripted consumption.
    std::printf("csv,");
    for (std::size_t c = 0; c < headers_.size(); ++c)
        std::printf("%s%s", headers_[c].c_str(),
                    c + 1 < headers_.size() ? "," : "\n");
    for (const auto &row : rows_) {
        std::printf("csv,");
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf("%s%s", row[c].c_str(),
                        c + 1 < row.size() ? "," : "\n");
    }
}

} // namespace hermes::bench
