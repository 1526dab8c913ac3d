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
 * The flags are rows of the shared flag table (sweep/front_end.hh).
 */

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/report.hh"
#include "sweep/axis.hh"
#include "sweep/front_end.hh"
#include "trace/resolve.hh"

namespace
{

using namespace hermes;
using sweep::CliOptions;

/**
 * Expand (base overrides x axes) x workloads into the grid. The grid
 * order — workloads fastest, axes as declared — is part of the space
 * fingerprint, so shards and resumes of the same command line always
 * agree on which index is which.
 */
std::vector<sweep::GridPoint>
buildGrid(CliOptions &opt)
{
    // One workload entry: a label plus one-or-many traces.
    struct WorkloadEntry
    {
        std::string label;
        std::vector<TraceSpec> traces;
    };
    std::vector<WorkloadEntry> workloads;

    // Every --trace first, then every --mix, each in argv order.
    std::size_t mixes = 0;
    for (const sweep::WorkloadArg &w : opt.workloads)
        if (!w.mix)
            workloads.push_back({w.spec, {resolveTrace(w.spec)}});
    for (const sweep::WorkloadArg &w : opt.workloads) {
        if (!w.mix)
            continue;
        WorkloadEntry e;
        std::string joined;
        for (const std::string &name :
             sweep::splitCommaList(w.spec, "--mix list")) {
            e.traces.push_back(resolveTrace(name));
            joined += (joined.empty() ? "" : "+") + name;
        }
        e.label = "mix" + std::to_string(mixes++) + "." + joined;
        workloads.push_back(std::move(e));
    }
    // parseCli() rejects --suite together with --trace/--mix.
    if (workloads.empty()) {
        const std::string name =
            opt.suiteName.empty() ? "quick" : opt.suiteName;
        for (const TraceSpec &t : resolveSuite(name))
            workloads.push_back({t.name(), {t}});
    }

    // A mix with M traces implies an M-core system unless pinned.
    if (!opt.overrides.contains("system.cores") && mixes > 0) {
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
    CliOptions opt =
        sweep::parseCliOrExit(sweep::kSweepFrontEnd, argc, argv);
    try {
        const sweep::Stores stores = sweep::openStores(opt);
        const std::vector<sweep::GridPoint> grid = buildGrid(opt);
        // Selection shapes the dumps only; the sweep fingerprint always
        // hashes the full statistics set.
        const std::vector<StatColumn> columns = sweep::statColumns(opt);

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
        const auto files = sweep::readResumeJournals(opt);
        for (std::size_t f = 0; f < files.size(); ++f) {
            if (files[f].size() != 1)
                throw std::runtime_error(
                    opt.resumePaths[f] + " holds " +
                    std::to_string(files[f].size()) +
                    " grid segments (a fig-driver journal?); "
                    "hermes_sweep drives single-grid journals");
            sweep::validateSegment(files[f][0], grid);
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
            sweep::OrchestrateOptions oopts;
            oopts.shard = opt.shard;
            oopts.resume = resume.get();
            oopts.journal = writer.get();
            oopts.cache = stores.results.get();
            run = sweep::runJournaled(
                sweep::engineOptions(opt, stores.warmups.get()), grid,
                oopts);
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
        if (stores.warmups) {
            const StoreStats &wc = stores.warmups->stats();
            std::fprintf(stderr,
                         "warmup-cache: %zu warmed, %zu restored "
                         "(%zu stored, %zu rejected, %zu evicted)\n",
                         wc.misses, wc.hits, wc.stores, wc.rejected,
                         wc.evicted);
        }

        if (opt.mips)
            sweep::printMipsSummary(run.results);

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
