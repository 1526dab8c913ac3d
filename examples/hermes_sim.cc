/**
 * @file
 * Full command-line front end for the simulator — the "champsim binary"
 * of this repository. Configures every major knob from key=value
 * arguments or an ini-style config file, runs single- or multi-core
 * simulations on synthetic or recorded traces, and dumps the complete
 * statistics report (plus an optional CSV row).
 *
 * Usage examples:
 *   example_hermes_sim trace=spec06.mcf_like.0 prefetcher=pythia \
 *       predictor=popet hermes=1 instructions=500000
 *   example_hermes_sim config=myrun.ini csv=1
 *   example_hermes_sim cores=8 trace=ligra.bfs_like.0 prefetcher=pythia
 *   example_hermes_sim record=trace.bin trace=cvp.server_db_like.0 \
 *       record_count=1000000
 *   example_hermes_sim trace_file=trace.bin predictor=popet hermes=1
 *   example_hermes_sim list_traces=1
 *
 * Keys (defaults in parentheses): cores(1), trace, trace_file,
 * instructions(400000), warmup(instructions/4), prefetcher(none),
 * predictor(none), hermes(0), hermes_latency(6), tau_act(-18),
 * rob(512), llc_mb_per_core(3), llc_latency(40), mtps(3200),
 * channels(auto), csv(0), config(-), record(-), record_count(1000000).
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/config.hh"
#include "sim/param_registry.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/trace_file.hh"

using namespace hermes;

namespace
{

int
listTraces()
{
    std::printf("%-30s %-8s %s\n", "name", "category", "pattern");
    for (const auto &spec : fullSuite())
        std::printf("%-30s %-8s %d\n", spec.name().c_str(),
                    spec.category().c_str(),
                    static_cast<int>(spec.params.pattern));
    return 0;
}

int
recordTrace(const Config &cfg)
{
    const std::string out = cfg.get("record", std::string());
    const std::string trace_name =
        cfg.get("trace", std::string("spec06.mcf_like.0"));
    const auto count = static_cast<std::uint64_t>(
        cfg.get("record_count", std::int64_t{1'000'000}));
    auto wl = findTrace(trace_name).make();
    try {
        writeTraceFile(out, *wl, count, trace_name,
                       findTrace(trace_name).category());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "failed to write %s: %s\n", out.c_str(),
                     e.what());
        return 1;
    }
    std::printf("recorded %llu instructions of %s into %s\n",
                static_cast<unsigned long long>(count),
                trace_name.c_str(), out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    if (cfg.contains("config")) {
        std::ifstream in(cfg.get("config", std::string()));
        if (!in) {
            std::fprintf(stderr, "cannot open config file\n");
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        Config file_cfg;
        if (!file_cfg.parse(buf.str()))
            std::fprintf(stderr, "warning: malformed config lines\n");
        // Command line wins over the file: re-apply argv last.
        for (const auto &k : file_cfg.keys())
            if (!cfg.contains(k))
                cfg.set(k, *file_cfg.getString(k));
    }

    if (cfg.get("list_traces", false))
        return listTraces();
    if (cfg.contains("record"))
        return recordTrace(cfg);

    const int cores = static_cast<int>(cfg.get("cores", std::int64_t{1}));
    SystemConfig sys = SystemConfig::baseline(cores);
    // Registered model names (hermes_run --list-models); a typo throws
    // with a nearest-name suggestion.
    ParamRegistry::instance().apply(
        sys, "prefetcher", cfg.get("prefetcher", std::string("none")));
    ParamRegistry::instance().apply(
        sys, "predictor", cfg.get("predictor", std::string("none")));
    sys.hermesIssueEnabled = cfg.get("hermes", false);
    sys.hermesIssueLatency = static_cast<Cycle>(
        cfg.get("hermes_latency", std::int64_t{6}));
    sys.popet.activationThreshold = static_cast<int>(
        cfg.get("tau_act", std::int64_t{-18}));
    sys.core.robSize = static_cast<unsigned>(
        cfg.get("rob", std::int64_t{512}));
    sys.llcBytesPerCore = static_cast<std::uint64_t>(cfg.get(
                              "llc_mb_per_core", std::int64_t{3})) << 20;
    sys.llcLatency = static_cast<Cycle>(
        cfg.get("llc_latency", std::int64_t{40}));
    sys.dram.mtps = static_cast<unsigned>(
        cfg.get("mtps", std::int64_t{3200}));
    if (cfg.contains("channels"))
        sys.dram.channels = static_cast<unsigned>(
            cfg.get("channels", std::int64_t{1}));

    const auto instrs = static_cast<std::uint64_t>(
        cfg.get("instructions", std::int64_t{400'000}));
    SimBudget budget;
    budget.simInstrs = instrs;
    budget.warmupInstrs = static_cast<std::uint64_t>(
        cfg.get("warmup", static_cast<std::int64_t>(instrs / 4)));

    RunStats stats;
    std::string label;
    if (cfg.contains("trace_file")) {
        const std::string path = cfg.get("trace_file", std::string());
        std::vector<std::unique_ptr<Workload>> wls;
        for (int i = 0; i < cores; ++i) {
            auto base = std::make_unique<FileWorkload>(path);
            wls.push_back(i == 0 ? std::move(base) : base->clone(i));
        }
        label = path;
        System system(sys, std::move(wls));
        stats = system.run(budget.warmupInstrs, budget.simInstrs);
    } else {
        const std::string trace_name =
            cfg.get("trace", std::string("spec06.mcf_like.0"));
        label = trace_name;
        // One trace runs on every core (a homogeneous mix).
        stats = simulate(sys, {findTrace(trace_name)}, budget);
    }

    if (cfg.get("csv", false)) {
        std::printf("%s\n%s\n", csvHeader().c_str(),
                    formatCsvRow(label, stats).c_str());
    } else {
        std::printf("%s", formatReport(stats).c_str());
    }
    return 0;
}
