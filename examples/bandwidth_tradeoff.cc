/**
 * @file
 * Bandwidth trade-off demo (paper §8.4.1): as main-memory bandwidth
 * shrinks, accurate Hermes requests age far better than speculative
 * prefetching — below ~400 MTPS Hermes alone overtakes Pythia. Sweeps
 * MTPS for one trace and prints the three-way comparison.
 *
 * Usage: example_bandwidth_tradeoff [trace=<name>] [instructions=<n>]
 */

#include <cstdio>

#include "common/config.hh"
#include "sim/simulator.hh"

using namespace hermes;

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);
    const TraceSpec trace =
        findTrace(cli.get("trace", std::string("ligra.bfs_like.0")));
    SimBudget budget;
    budget.simInstrs = static_cast<std::uint64_t>(
        cli.get("instructions", std::int64_t{200'000}));
    budget.warmupInstrs = budget.simInstrs / 2;

    std::printf("trace: %s\n\n", trace.name().c_str());
    std::printf("%8s %10s %10s %10s %12s\n", "MTPS", "no-pf IPC",
                "hermes", "pythia", "pythia+herm");
    for (unsigned mtps : {200u, 400u, 800u, 1600u, 3200u, 6400u}) {
        auto cfg_with = [&](const char *pf, bool hermes) {
            SystemConfig cfg = SystemConfig::baseline(1);
            cfg.dram.mtps = mtps;
            cfg.prefetcher = pf;
            if (hermes) {
                cfg.predictor = PredictorKind::Popet;
                cfg.hermesIssueEnabled = true;
            }
            return cfg;
        };
        const double ipc0 =
            simulate(cfg_with(PrefetcherKind::None, false), {trace}, budget)
                .ipc(0);
        const double ipc_h =
            simulate(cfg_with(PrefetcherKind::None, true), {trace}, budget)
                .ipc(0);
        const double ipc_p =
            simulate(cfg_with(PrefetcherKind::Pythia, false), {trace}, budget)
                .ipc(0);
        const double ipc_ph =
            simulate(cfg_with(PrefetcherKind::Pythia, true), {trace}, budget)
                .ipc(0);
        std::printf("%8u %10.3f %10.3f %10.3f %12.3f\n", mtps, ipc0,
                    ipc_h, ipc_p, ipc_ph);
    }
    std::printf("\nShape to look for: hermes >= pythia at the lowest "
                "MTPS rows, and\npythia+hermes >= pythia everywhere "
                "(paper Fig. 17a).\n");
    return 0;
}
