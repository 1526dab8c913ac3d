/**
 * @file
 * Sweep-engine demo: fan a (config x trace) grid over all cores with
 * sweep::SweepEngine and print the aggregate CSV plus a JSON array.
 * Replaces the old serial three-config loop: the grid here is the same
 * no-prefetch / Pythia / Pythia+Hermes-O comparison over the quick
 * suite, but every point runs concurrently and the result order is
 * byte-identical at any thread count.
 *
 * Usage: sweep_grid [threads=<n>] [instructions=<n>] [json=<0|1>]
 */

#include <cstdio>

#include "common/config.hh"
#include "sweep/sweep.hh"

using namespace hermes;

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);
    const int threads =
        static_cast<int>(cli.get("threads", std::int64_t{0}));
    const auto instrs = static_cast<std::uint64_t>(
        cli.get("instructions", std::int64_t{250'000}));
    const bool emit_json = cli.get("json", std::int64_t{0}) != 0;

    SimBudget budget;
    budget.warmupInstrs = instrs / 4;
    budget.simInstrs = instrs;

    SystemConfig nopf = SystemConfig::baseline(1);
    SystemConfig pythia = nopf;
    pythia.prefetcher = PrefetcherKind::Pythia;
    SystemConfig hermes_o = pythia;
    hermes_o.predictor = PredictorKind::Popet;
    hermes_o.hermesIssueEnabled = true;

    const struct
    {
        const char *name;
        const SystemConfig &cfg;
    } configs[] = {
        {"nopf", nopf}, {"pythia", pythia}, {"pythia+hermes-o", hermes_o}};

    std::vector<sweep::GridPoint> grid;
    for (const auto &c : configs)
        for (const auto &trace : quickSuite())
            grid.push_back({std::string(c.name) + "." + trace.name(),
                            c.cfg,
                            {trace},
                            budget});

    sweep::SweepOptions opts;
    opts.threads = threads;
    opts.onProgress = [](std::size_t done, std::size_t total,
                         const sweep::PointResult &r) {
        std::fprintf(stderr, "\r[%zu/%zu] %-40.40s", done, total,
                     r.label.c_str());
        if (done == total)
            std::fprintf(stderr, "\n");
    };

    const auto results = sweep::SweepEngine(opts).run(grid);
    const auto columns = defaultStatColumns();
    if (emit_json)
        std::printf("%s\n", sweep::toJson(results, columns).c_str());
    else
        std::printf("%s", sweep::toCsv(results, columns).c_str());
    return 0;
}
