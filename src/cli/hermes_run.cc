/**
 * @file
 * hermes_run: build and run any simulation scenario from strings — no
 * recompiling. Every SystemConfig field is reachable through the
 * parameter registry as a key=value override (see --list-params), the
 * workload comes from --trace/--mix, and results land as a summary,
 * a full report, CSV/JSON rows or a bare deterministic fingerprint.
 *
 * The scenario is a one-point grid: it runs through the same
 * sweep::runJournaled path as a hermes_sweep grid (result store
 * included), and its flags come from the shared flag table
 * (sweep/front_end.hh).
 *
 * The string path is golden-verified: with no overrides, the scenario
 * equals SystemConfig::baseline and reproduces the library-API
 * fingerprints pinned in tests/golden/fingerprints.txt.
 *
 * Examples:
 *   hermes_run --trace spec06.mcf_like.0 prefetcher=pythia \
 *              predictor=popet hermes.enabled=true
 *   hermes_run --mix spec06.mcf_like.0,ligra.pagerank_like.0 \
 *              llc.latency=50 --json -
 *   hermes_run --config scenario.ini --report
 */

#include <cstdio>
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

/** The default named in sweep::kRunFrontEnd's summary. */
constexpr const char *kDefaultTrace = "spec06.mcf_like.0";

} // namespace

int
main(int argc, char **argv)
{
    sweep::CliOptions opt =
        sweep::parseCliOrExit(sweep::kRunFrontEnd, argc, argv);
    try {
        std::vector<TraceSpec> traces;
        for (const sweep::WorkloadArg &w : opt.workloads) {
            if (!w.mix) {
                traces.push_back(resolveTrace(w.spec));
                continue;
            }
            for (const std::string &name :
                 sweep::splitCommaList(w.spec, "--mix list"))
                traces.push_back(resolveTrace(name));
        }
        if (traces.empty())
            traces.push_back(resolveTrace(kDefaultTrace));

        // One trace per core unless a single trace is replicated; when
        // the scenario does not pin system.cores, the mix size implies
        // the core count.
        if (!opt.overrides.contains("system.cores") && traces.size() > 1)
            opt.overrides.set("system.cores",
                              std::to_string(traces.size()));
        const SystemConfig cfg = SystemConfig::fromConfig(opt.overrides);
        if (traces.size() != 1 &&
            static_cast<int>(traces.size()) != cfg.numCores)
            throw std::invalid_argument(
                "got " + std::to_string(traces.size()) +
                " traces for a " + std::to_string(cfg.numCores) +
                "-core system (use one trace per core, or a single "
                "trace to replicate)");

        // The selection shapes the summary and the dumps; fingerprints
        // always cover the full statistics set.
        const std::vector<StatColumn> columns = sweep::statColumns(opt);

        // The label is part of the point's store identity, so settle
        // it before any lookup.
        if (opt.label.empty()) {
            for (const auto &t : traces)
                opt.label +=
                    (opt.label.empty() ? "" : "+") + t.name();
        }

        // The same scenario described to hermes_sweep hashes
        // identically: a single trace replicates across every core.
        sweep::GridPoint point;
        point.label = opt.label;
        point.config = cfg;
        point.traces = traces;
        if (traces.size() == 1 && cfg.numCores > 1)
            point.traces.assign(
                static_cast<std::size_t>(cfg.numCores), traces[0]);
        point.budget = SimBudget::fromEnv(opt.warmup, opt.instrs);

        const sweep::Stores stores = sweep::openStores(opt);
        sweep::OrchestrateOptions oopts;
        oopts.cache = stores.results.get();
        const RunStats stats =
            sweep::runJournaled(
                sweep::engineOptions(opt, stores.warmups.get()), {point},
                oopts)
                .results[0]
                .stats;

        // Keep stdout machine-parseable when a dump streams to it.
        const std::string fp = fingerprintHex(statsFingerprint(stats));
        if (opt.fingerprint)
            std::printf("%s\n", fp.c_str());
        else if (opt.report)
            std::printf("%s", formatTextLines(
                                  stats, allStatColumns(stats.core.size()))
                                  .c_str());
        else if (opt.csvPath != "-" && opt.jsonPath != "-")
            std::printf("scenario %s: %d core(s), prefetcher=%s, "
                        "predictor=%s, hermes=%s\n%sfingerprint %s\n",
                        opt.label.c_str(), cfg.numCores,
                        cfg.prefetcher.c_str(), cfg.predictor.c_str(),
                        cfg.hermesIssueEnabled ? "on" : "off",
                        formatTextLines(stats, columns).c_str(), fp.c_str());

        bool dumps_ok = true;
        if (!opt.csvPath.empty())
            dumps_ok &= writeTextFile(
                opt.csvPath,
                csvHeader(columns) + "\n" +
                    formatCsvRow(opt.label, stats, columns) + "\n");
        if (!opt.jsonPath.empty())
            dumps_ok &= writeTextFile(
                opt.jsonPath,
                formatJsonRow(opt.label, stats, columns) + "\n");
        return dumps_ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
