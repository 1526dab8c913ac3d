/**
 * @file
 * The declarative experiment API end to end: build scenarios from an
 * .ini-style string via SystemConfig::fromConfig, sweep a registered
 * parameter with a string axis spec, and fan the resulting grid over
 * the SweepEngine — no struct mutation, no recompiling to change the
 * experiment.
 *
 * Usage: scenario_strings [threads=<n>] [axis=<key=v1,v2,...>]
 *   e.g.  scenario_strings axis=llc.latency=30,40,50,60
 */

#include <cstdio>

#include "common/config.hh"
#include "sim/param_registry.hh"
#include "sweep/axis.hh"
#include "sweep/sweep.hh"

using namespace hermes;

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);
    const int threads =
        static_cast<int>(cli.get("threads", std::int64_t{0}));
    const std::string axis =
        cli.get("axis", std::string("llc.latency=30,40,50,60"));

    // A scenario as it would sit in a config file: Pythia baseline
    // plus Hermes-O (paper Table 4).
    Config scenario;
    scenario.parse("prefetcher = pythia\n"
                   "predictor = popet\n"
                   "hermes.enabled = true\n"
                   "hermes.issue_latency = 6\n");
    const SystemConfig base = SystemConfig::fromConfig(scenario);

    SimBudget budget;
    budget.warmupInstrs = 50'000;
    budget.simInstrs = 200'000;

    // Expand the axis spec into labelled configs, cross with two
    // representative traces, and run the grid.
    std::vector<sweep::GridPoint> grid;
    for (const auto &pt : sweep::expandAxis(base, axis))
        for (const char *trace :
             {"spec06.mcf_like.0", "ligra.pagerank_like.0"})
            grid.push_back({pt.label + "/" + trace,
                            pt.config,
                            {findTrace(trace)},
                            budget});

    sweep::SweepOptions opts;
    opts.threads = threads;
    const auto results = sweep::SweepEngine(opts).run(grid);
    std::printf("%s",
                sweep::toCsv(results, defaultStatColumns()).c_str());
    return 0;
}
