/**
 * @file
 * Journaled-sweep demo: the library-API version of what `hermes_sweep
 * --shard/--resume/--merge` does. One grid is split across two
 * simulated "machines" (shard 1/2 and 2/2), each journaling its half;
 * the journals are then merged and the unioned results are checked —
 * byte-for-byte — against the same grid swept in one process. Finally
 * a crash is simulated by resuming from just one shard journal: only
 * the missing half re-simulates.
 *
 * Usage: sharded_sweep [dir=<tmp dir>] [instructions=<n>]
 */

#include <cstdio>

#include "common/config.hh"
#include "sim/report.hh"
#include "sweep/journal.hh"
#include "sweep/sweep.hh"

using namespace hermes;

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);
    const std::string dir = cli.get("dir", std::string("/tmp"));
    const auto instrs = static_cast<std::uint64_t>(
        cli.get("instructions", std::int64_t{50'000}));

    SimBudget budget;
    budget.warmupInstrs = instrs / 4;
    budget.simInstrs = instrs;

    SystemConfig nopf = SystemConfig::baseline(1);
    SystemConfig pythia = nopf;
    pythia.prefetcher = PrefetcherKind::Pythia;

    std::vector<sweep::GridPoint> grid;
    for (const TraceSpec &t : quickSuite()) {
        grid.push_back({"nopf." + t.name(), nopf, {t}, budget});
        grid.push_back({"pythia." + t.name(), pythia, {t}, budget});
    }
    std::printf("grid: %zu points, space %s\n", grid.size(),
                fingerprintHex(sweep::spaceFingerprint(grid)).c_str());

    // The reference: the whole grid in one process.
    const auto direct = sweep::SweepEngine().run(grid);
    const auto csv = [](const std::vector<sweep::PointResult> &results) {
        return sweep::toCsv(results, defaultStatColumns());
    };

    // Two "machines", each owning a deterministic half of the grid.
    std::vector<std::string> paths;
    for (int s = 1; s <= 2; ++s) {
        const std::string path =
            dir + "/sharded_sweep_s" + std::to_string(s) + ".jsonl";
        paths.push_back(path);
        sweep::JournalWriter journal(path);
        sweep::OrchestrateOptions opts;
        opts.shard = {s, 2};
        opts.journal = &journal;
        const auto run = sweep::runJournaled({}, grid, opts);
        std::printf("shard %d/2: %zu simulated, %zu left to others\n",
                    s, run.simulated, run.otherShard);
    }

    // Merge the journals; the union must equal the unsharded run.
    std::vector<std::vector<sweep::JournalSegment>> files;
    for (const std::string &p : paths)
        files.push_back(sweep::readJournal(p));
    auto merged = sweep::mergeSegments(files);
    sweep::validateSegment(merged[0], grid);
    std::vector<sweep::PointResult> unioned;
    for (const auto &rec : merged[0].records)
        unioned.push_back(rec.result);
    std::printf("merged %zu records: CSV %s, fingerprint %s vs %s\n",
                unioned.size(),
                csv(unioned) == csv(direct) ? "byte-identical"
                                            : "MISMATCH",
                fingerprintHex(sweep::sweepFingerprint(unioned)).c_str(),
                fingerprintHex(sweep::sweepFingerprint(direct)).c_str());

    // Crash recovery: resume from shard 1's journal alone — exactly
    // the other half simulates again, nothing that was recorded does.
    auto partial = sweep::readJournal(paths[0]);
    sweep::validateSegment(partial[0], grid);
    sweep::OrchestrateOptions resume_opts;
    resume_opts.resume = &partial[0];
    const auto resumed = sweep::runJournaled({}, grid, resume_opts);
    std::printf("resume from shard 1 only: %zu reused, %zu "
                "re-simulated, complete=%s\n",
                resumed.resumed, resumed.simulated,
                resumed.complete() ? "yes" : "no");
    return csv(resumed.results) == csv(direct) ? 0 : 1;
}
