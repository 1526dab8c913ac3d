/**
 * @file
 * Quickstart: build the paper's baseline system (Table 4), add Hermes
 * with POPET, run one workload and print the headline numbers — IPC,
 * speedup, POPET accuracy/coverage, and the Hermes request economy.
 *
 * Usage: example_quickstart [trace=<name>] [instructions=<n>]
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
    const std::string trace_name =
        cli.get("trace", std::string("ligra.pagerank_like.0"));
    const auto instrs = static_cast<std::uint64_t>(
        cli.get("instructions", std::int64_t{400'000}));

    const TraceSpec trace = findTrace(trace_name);
    SimBudget budget;
    budget.warmupInstrs = instrs / 4;
    budget.simInstrs = instrs;

    // The paper's baseline: Pythia prefetching at the LLC.
    SystemConfig base = SystemConfig::baseline(1);
    base.prefetcher = PrefetcherKind::Pythia;

    // Same system plus Hermes-O with the POPET off-chip predictor.
    SystemConfig hermes_cfg = base;
    hermes_cfg.predictor = PredictorKind::Popet;
    hermes_cfg.hermesIssueEnabled = true;
    hermes_cfg.hermesIssueLatency = 6;

    std::printf("trace: %s (%s), %llu instructions\n", trace.name().c_str(),
                trace.category().c_str(),
                static_cast<unsigned long long>(instrs));

    const RunStats b = simulate(base, {trace}, budget);
    const RunStats h = simulate(hermes_cfg, {trace}, budget);

    std::printf("\n%-28s %10s %10s\n", "", "baseline", "+Hermes");
    std::printf("%-28s %10.3f %10.3f\n", "IPC", b.ipc(0), h.ipc(0));
    std::printf("%-28s %10.2f %10.2f\n", "LLC MPKI", b.llcMpki(),
                h.llcMpki());
    std::printf("%-28s %10llu %10llu\n", "off-chip loads",
                static_cast<unsigned long long>(b.core[0].loadsOffChip),
                static_cast<unsigned long long>(h.core[0].loadsOffChip));
    std::printf("%-28s %10s %10llu\n", "Hermes requests", "-",
                static_cast<unsigned long long>(
                    h.hermesRequestsScheduled));
    std::printf("%-28s %10s %10llu\n", "loads served by Hermes", "-",
                static_cast<unsigned long long>(h.hermesLoadsServed));

    const PredictorStats p = h.predTotal();
    std::printf("\nPOPET accuracy %.1f%%  coverage %.1f%%\n",
                100.0 * p.accuracy(), 100.0 * p.coverage());
    std::printf("speedup from Hermes: %.2f%%\n",
                100.0 * (h.ipc(0) / b.ipc(0) - 1.0));
    return 0;
}
