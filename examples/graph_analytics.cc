/**
 * @file
 * Graph-analytics case study: the workload class that motivates Hermes
 * (irregular gathers that no prefetcher covers). Runs every Ligra-like
 * trace under four systems — no prefetching, Hermes alone, Pythia, and
 * Pythia+Hermes — and reports per-trace IPC, off-chip load counts and
 * POPET quality, mirroring the paper's §1 motivation.
 *
 * Usage: example_graph_analytics [instructions=<n>]
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
    SimBudget budget;
    budget.simInstrs = static_cast<std::uint64_t>(
        cli.get("instructions", std::int64_t{250'000}));
    budget.warmupInstrs = budget.simInstrs / 3;

    const SystemConfig nopf = SystemConfig::baseline(1);
    SystemConfig hermes_only = nopf;
    hermes_only.predictor = PredictorKind::Popet;
    hermes_only.hermesIssueEnabled = true;
    SystemConfig pythia = nopf;
    pythia.prefetcher = PrefetcherKind::Pythia;
    SystemConfig combo = pythia;
    combo.predictor = PredictorKind::Popet;
    combo.hermesIssueEnabled = true;

    std::printf("%-26s %8s %8s %8s %8s %6s %6s\n", "trace", "no-pf",
                "hermes", "pythia", "pyt+her", "acc%", "cov%");
    for (const auto &spec : fullSuite()) {
        if (spec.category() != "Ligra")
            continue;
        const RunStats r0 = simulate(nopf, {spec}, budget);
        const RunStats rh = simulate(hermes_only, {spec}, budget);
        const RunStats rp = simulate(pythia, {spec}, budget);
        const RunStats rc = simulate(combo, {spec}, budget);
        const PredictorStats p = rc.predTotal();
        std::printf("%-26s %8.3f %8.3f %8.3f %8.3f %6.1f %6.1f\n",
                    spec.name().c_str(), r0.ipc(0), rh.ipc(0), rp.ipc(0),
                    rc.ipc(0), 100 * p.accuracy(), 100 * p.coverage());
    }
    std::printf("\nIPC normalised columns show how Hermes attacks the "
                "gather misses\nthat spatial prefetching cannot learn "
                "(paper §2, Fig. 2).\n");
    return 0;
}
