/**
 * @file
 * Prefetcher interplay study: sweeps all six prefetchers over a chosen
 * trace, with and without Hermes, reporting speedup, coverage of
 * off-chip loads, extra DRAM traffic and storage cost — the
 * performance-per-overhead argument of paper §8.2.4.
 *
 * Usage: example_prefetcher_study [trace=<name>] [instructions=<n>]
 */

#include <cstdio>

#include "common/config.hh"
#include "sim/model_registry.hh"
#include "sim/simulator.hh"

using namespace hermes;

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);
    const TraceSpec trace = findTrace(
        cli.get("trace", std::string("parsec.streamcluster_like.0")));
    SimBudget budget;
    budget.simInstrs = static_cast<std::uint64_t>(
        cli.get("instructions", std::int64_t{250'000}));
    budget.warmupInstrs = budget.simInstrs / 2;

    const SystemConfig base = SystemConfig::baseline(1);
    const RunStats r0 = simulate(base, {trace}, budget);
    const double base_ipc = r0.ipc(0);
    const double base_reads =
        static_cast<double>(r0.dram.totalReads());

    std::printf("trace: %s   baseline IPC %.3f, %llu DRAM reads\n\n",
                trace.name().c_str(), base_ipc,
                static_cast<unsigned long long>(r0.dram.totalReads()));
    std::printf("%-10s %9s %9s %9s %9s %9s\n", "prefetcher", "speedup",
                "+hermes", "reads+%", "h.reads+%", "kB");

    for (auto pf : {PrefetcherKind::None, PrefetcherKind::Streamer,
                    PrefetcherKind::Spp, PrefetcherKind::Bingo,
                    PrefetcherKind::Mlop, PrefetcherKind::Sms,
                    PrefetcherKind::Pythia}) {
        SystemConfig cfg = base;
        cfg.prefetcher = pf;
        const RunStats rp = simulate(cfg, {trace}, budget);

        SystemConfig hcfg = cfg;
        hcfg.predictor = PredictorKind::Popet;
        hcfg.hermesIssueEnabled = true;
        const RunStats rh = simulate(hcfg, {trace}, budget);

        const auto pref =
            ModelRegistry::instance().makePrefetcher(pf, ModelContext{});
        std::printf("%-10s %8.1f%% %8.1f%% %8.1f%% %8.1f%% %9.1f\n", pf,
                    100.0 * (rp.ipc(0) / base_ipc - 1.0),
                    100.0 * (rh.ipc(0) / base_ipc - 1.0),
                    100.0 * (rp.dram.totalReads() / base_reads - 1.0),
                    100.0 * (rh.dram.totalReads() / base_reads - 1.0),
                    pref ? pref->storageBits() / 8192.0 : 0.0);
    }
    std::printf("\nHermes adds its gain at ~4KB of state; compare the "
                "reads-per-speedup\nratios against the prefetchers "
                "(paper: 0.5%% vs 2%% requests per 1%% speedup).\n");
    return 0;
}
