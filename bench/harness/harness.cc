#include "harness/harness.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/stats.hh"
#include "sim/param_registry.hh"
#include "sim/report.hh"
#include "sim/stat_registry.hh"
#include "sweep/journal.hh"
#include "trace/resolve.hh"

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
sweep::Stores g_stores;
std::vector<sweep::JournalSegment> g_resume;
std::size_t g_segment_index = 0;
bool g_any_grid_incomplete = false;

void
flushSweepDumps()
{
    std::lock_guard<std::mutex> g(g_all_results_mutex);
    if (g_any_grid_incomplete)
        std::fprintf(stderr,
                     "note: --csv/--json dumps hold only the points "
                     "this shard covered\n");
    const std::vector<StatColumn> columns = sweep::statColumns(g_cli);
    bool ok = true;
    if (!g_cli.csvPath.empty())
        ok &= writeTextFile(g_cli.csvPath,
                            sweep::toCsv(g_all_results, columns));
    if (!g_cli.jsonPath.empty())
        ok &= writeTextFile(g_cli.jsonPath,
                            sweep::toJson(g_all_results, columns) + "\n");
    // Exit handlers cannot change the status through exit(): flush
    // what the driver printed and end the process with a failure.
    if (!ok) {
        std::fflush(nullptr);
        std::_Exit(1);
    }
}

void
printProfileSummary(const std::vector<sweep::PointResult> &results)
{
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
    const std::uint64_t cycles = prof.tickedCycles + prof.skippedCycles;
    std::fprintf(stderr,
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
                     prof.dramSeconds, prof.llcSeconds, prof.l2Seconds,
                     prof.l1Seconds, prof.coreSeconds,
                     prof.horizonSeconds);
}

/** --suite, else HERMES_BENCH_SUITE, else "quick", as spelled. */
std::string
suiteName()
{
    if (!g_cli.suiteName.empty())
        return g_cli.suiteName;
    const char *env = std::getenv("HERMES_BENCH_SUITE");
    return env != nullptr ? env : "quick";
}

} // namespace

void
initCli(int argc, char **argv)
{
    g_cli = sweep::parseCliOrExit(sweep::kFigureFrontEnd, argc, argv);

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
        const auto files = sweep::readResumeJournals(g_cli);
        if (!files.empty())
            g_resume = sweep::mergeSegments(files);
        g_stores = sweep::openStores(g_cli);
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
    try {
        return resolveSuite(suiteName());
    } catch (const std::exception &e) {
        // Only reachable via HERMES_BENCH_SUITE; --suite validated in
        // initCli().
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

std::vector<sweep::PointResult>
runGrid(const std::vector<sweep::GridPoint> &grid)
{
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
            // rewrote earlier ones) must not cost the only complete
            // copy of the resumed records.
            if (g_journal != nullptr) {
                const std::string orig = g_cli.journalPath + ".orig";
                std::ofstream out(orig, std::ios::binary);
                out << sweep::journalText(g_resume);
                if (out)
                    std::fprintf(stderr,
                                 "note: resumed records saved to %s\n",
                                 orig.c_str());
            }
            std::exit(1);
        }
        oopts.resume = &g_resume[g_segment_index];
    }
    ++g_segment_index;
    // Safe to open (and truncate) the journal only now that the resume
    // data has proven to match this process's grids.
    if (g_journal == nullptr && !g_cli.journalPath.empty()) {
        try {
            g_journal =
                std::make_unique<sweep::JournalWriter>(g_cli.journalPath);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            std::exit(1);
        }
    }
    oopts.journal = g_journal.get();
    oopts.cache = g_stores.results.get();
    const sweep::OrchestratedRun orun = sweep::runJournaled(
        sweep::engineOptions(g_cli, g_stores.warmups.get()), grid, oopts);
    if (!orun.complete()) {
        g_any_grid_incomplete = true;
        std::fprintf(stderr,
                     "note: shard %d/%d owns %zu of this %zu-point grid "
                     "(%zu missing); figure output below is partial — "
                     "merge the shard journals and re-run with --resume "
                     "for full tables\n",
                     g_cli.shard.index, g_cli.shard.count,
                     orun.simulated + orun.cached + orun.resumed,
                     grid.size(), orun.missing());
    }

    if (g_cli.mips)
        sweep::printMipsSummary(orun.results);
    if (g_cli.profile)
        printProfileSummary(orun.results);
    {
        std::lock_guard<std::mutex> g(g_all_results_mutex);
        for (std::size_t i = 0; i < orun.results.size(); ++i)
            if (orun.present[i])
                g_all_results.push_back(orun.results[i]);
    }
    return orun.results;
}

SimBudget
budget(std::uint64_t warmup, std::uint64_t sim)
{
    try {
        return SimBudget::fromEnv(warmup, sim);
    } catch (const std::exception &e) {
        // A --scale/HERMES_SIM_SCALE that overflows a window is a bad
        // command line, like a bad HERMES_BENCH_SUITE.
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
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
