/**
 * @file
 * hermes_run: build and run any simulation scenario from strings — no
 * recompiling. Every SystemConfig field is reachable through the
 * parameter registry as a key=value override (see --list-params), the
 * workload comes from --trace/--mix, and results land as a summary,
 * a full report, CSV/JSON rows or a bare deterministic fingerprint.
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

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/model_registry.hh"
#include "sim/param_registry.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/stat_registry.hh"
#include "sim/warmup_cache.hh"
#include "sweep/axis.hh"
#include "sweep/result_cache.hh"
#include "trace/resolve.hh"
#include "trace/suite.hh"

namespace
{

using namespace hermes;

constexpr const char *kDefaultTrace = "spec06.mcf_like.0";

void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        stderr,
        "usage: %s [key=value ...] [options]\n"
        "Build any simulation scenario from strings (no recompiling).\n"
        "\n"
        "scenario:\n"
        "  key=value        registry parameter override, e.g. llc.ways=16\n"
        "                   (--key=value also accepted; see --list-params)\n"
        "  --config FILE    .ini scenario file ('key = value' lines,\n"
        "                   '#' comments); command-line overrides win\n"
        "  --trace SPEC     workload trace, repeatable (one per core;\n"
        "                   default %s): a suite trace name,\n"
        "                   corpus.<generator>[:knob=value...], or an\n"
        "                   on-disk trace — file:<path> (HRMTRACE or\n"
        "                   ChampSim, optionally .gz/.xz)\n"
        "  --mix A,B,...    comma-separated trace-spec list (one per\n"
        "                   core)\n"
        "  --warmup N       warmup instructions per core (default 100000)\n"
        "  --instrs N       measured instructions per core (default 400000)\n"
        "  --scale F        scale both budgets (env HERMES_SIM_SCALE)\n"
        "  --cache SPEC     content-addressed result store\n"
        "                   \"DIR[,max_bytes=SIZE][,max_entries=N]\"; a\n"
        "                   cached scenario loads instead of simulating\n"
        "                   (env HERMES_RESULT_CACHE)\n"
        "  --no-cache       ignore HERMES_RESULT_CACHE\n"
        "  --warmup-cache SPEC\n"
        "                   warmup checkpoint store (same SPEC syntax);\n"
        "                   a matching warmup identity restores the\n"
        "                   warmed state instead of re-warming\n"
        "                   (env HERMES_WARMUP_CACHE)\n"
        "  --no-warmup-cache\n"
        "                   ignore HERMES_WARMUP_CACHE\n"
        "\n"
        "output:\n"
        "  --label NAME     row label for CSV/JSON (default: trace names)\n"
        "  --report         full plain-text statistics report\n"
        "  --csv FILE|-     header + one CSV row\n"
        "  --json FILE|-    one JSON object\n"
        "  --stats LIST     CSV/JSON columns: comma-separated stat keys,\n"
        "                   per-core forms (core.0.ipc) and globs\n"
        "                   (dram.*); default: the aggregate column set\n"
        "  --fingerprint    print only the 16-hex deterministic RunStats\n"
        "                   fingerprint (golden-comparable; --stats\n"
        "                   never changes it)\n"
        "\n"
        "discovery:\n"
        "  --list           predictors, prefetchers, replacement policies,\n"
        "                   suites and all parameters\n"
        "  --list-params    parameter table only\n"
        "  --list-models    registered models (predictors, prefetchers,\n"
        "                   replacement policies) with their knobs\n"
        "  --list-stats     statistics table (key, type, aggregation,\n"
        "                   fingerprint flag, description)\n"
        "  -h, --help       this message\n",
        argv0, kDefaultTrace);
    std::exit(exit_code);
}

struct Options
{
    Config overrides;
    std::vector<std::string> traceNames;
    std::uint64_t warmup = SimBudget::runDefaults().warmupInstrs;
    std::uint64_t instrs = SimBudget::runDefaults().simInstrs;
    std::string label;
    std::string cacheSpec;
    bool noCache = false;
    std::string warmupCacheSpec;
    bool noWarmupCache = false;
    std::string csvPath;
    std::string jsonPath;
    std::string statsSpec;
    bool report = false;
    bool fingerprintOnly = false;
};

std::uint64_t
parseCountOrDie(const std::string &s, const char *argv0)
{
    const auto v = parseInt64(s);
    if (!v || *v < 0) {
        std::fprintf(stderr, "error: expected a non-negative integer, "
                             "got '%s'\n",
                     s.c_str());
        usage(argv0, 2);
    }
    return static_cast<std::uint64_t>(*v);
}

Options
parseCli(int argc, char **argv)
{
    Options opt;
    Config file_config;
    std::vector<std::string> cli_overrides;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // GNU-style "--opt=value" for the value-taking options; only
        // unrecognised names fall through to the override branch.
        std::string inline_val;
        bool has_inline = false;
        if (arg.compare(0, 2, "--") == 0) {
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                const std::string name = arg.substr(0, eq);
                for (const char *o :
                     {"--config", "--trace", "--mix", "--warmup",
                      "--instrs", "--scale", "--label", "--cache",
                      "--warmup-cache", "--csv", "--json",
                      "--stats"}) {
                    if (name == o) {
                        has_inline = true;
                        inline_val = arg.substr(eq + 1);
                        arg = name;
                        break;
                    }
                }
            }
        }
        auto value = [&]() -> std::string {
            if (has_inline)
                return inline_val;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n",
                             arg.c_str());
                usage(argv[0], 2);
            }
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(argv[0], 0);
        } else if (arg == "--list") {
            std::printf("%s", describeScenarioSpace().c_str());
            std::exit(0);
        } else if (arg == "--list-params") {
            std::printf("%s",
                        ParamRegistry::instance().describe().c_str());
            std::exit(0);
        } else if (arg == "--list-models") {
            std::printf("%s",
                        ModelRegistry::instance().describe().c_str());
            std::exit(0);
        } else if (arg == "--list-stats") {
            std::printf("%s",
                        StatRegistry::instance().describe().c_str());
            std::exit(0);
        } else if (arg == "--config") {
            const std::string path = value();
            std::ifstream in(path);
            if (!in) {
                std::fprintf(stderr, "error: cannot read %s\n",
                             path.c_str());
                std::exit(1);
            }
            std::ostringstream text;
            text << in.rdbuf();
            if (!file_config.parse(text.str())) {
                std::fprintf(stderr,
                             "error: malformed line in %s (expected "
                             "'key = value')\n",
                             path.c_str());
                std::exit(1);
            }
        } else if (arg == "--trace") {
            opt.traceNames.push_back(value());
        } else if (arg == "--mix") {
            const std::string spec = value();
            try {
                for (std::string &name :
                     sweep::splitCommaList(spec, "--mix list"))
                    opt.traceNames.push_back(std::move(name));
            } catch (const std::invalid_argument &) {
                std::fprintf(stderr,
                             "error: --mix wants a non-empty "
                             "comma-separated trace list, got '%s'\n",
                             spec.c_str());
                usage(argv[0], 2);
            }
        } else if (arg == "--warmup") {
            opt.warmup = parseCountOrDie(value(), argv[0]);
        } else if (arg == "--instrs") {
            opt.instrs = parseCountOrDie(value(), argv[0]);
        } else if (arg == "--scale") {
            // Validate here: SimBudget::fromEnv only warns on bad env
            // values, but an explicit flag deserves a hard error.
            const std::string scale = value();
            if (!parseScale(scale)) {
                std::fprintf(stderr,
                             "error: --scale wants a finite positive "
                             "number, got '%s'\n",
                             scale.c_str());
                usage(argv[0], 2);
            }
            setenv("HERMES_SIM_SCALE", scale.c_str(), 1);
        } else if (arg == "--label") {
            opt.label = value();
        } else if (arg == "--cache") {
            opt.cacheSpec = value();
        } else if (arg == "--no-cache") {
            opt.noCache = true;
        } else if (arg == "--warmup-cache") {
            opt.warmupCacheSpec = value();
        } else if (arg == "--no-warmup-cache") {
            opt.noWarmupCache = true;
        } else if (arg == "--csv") {
            opt.csvPath = value();
        } else if (arg == "--json") {
            opt.jsonPath = value();
        } else if (arg == "--stats") {
            opt.statsSpec = value();
        } else if (arg == "--report") {
            opt.report = true;
        } else if (arg == "--fingerprint") {
            opt.fingerprintOnly = true;
        } else if (arg.find('=') != std::string::npos) {
            // A parameter override; --key=value is also accepted.
            while (!arg.empty() && arg.front() == '-')
                arg.erase(arg.begin());
            cli_overrides.push_back(arg);
        } else {
            std::fprintf(stderr, "error: unknown argument '%s'\n",
                         arg.c_str());
            usage(argv[0], 2);
        }
    }

    // File keys first, command-line overrides after (later wins).
    opt.overrides = file_config;
    for (const std::string &kv : cli_overrides) {
        const auto eq = kv.find('=');
        if (eq == 0 || eq == std::string::npos) {
            std::fprintf(stderr, "error: malformed override '%s'\n",
                         kv.c_str());
            usage(argv[0], 2);
        }
        opt.overrides.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    const int stdout_claims = (opt.fingerprintOnly ? 1 : 0) +
                              (opt.csvPath == "-" ? 1 : 0) +
                              (opt.jsonPath == "-" ? 1 : 0);
    if (stdout_claims > 1) {
        std::fprintf(stderr,
                     "error: only one of --fingerprint, --csv - and "
                     "--json - can claim stdout\n");
        usage(argv[0], 2);
    }
    if (opt.noWarmupCache && !opt.warmupCacheSpec.empty()) {
        std::fprintf(stderr,
                     "error: --warmup-cache and --no-warmup-cache are "
                     "mutually exclusive\n");
        usage(argv[0], 2);
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseCli(argc, argv);
    try {
        if (opt.traceNames.empty())
            opt.traceNames.push_back(kDefaultTrace);
        std::vector<TraceSpec> traces;
        for (const std::string &name : opt.traceNames)
            traces.push_back(resolveTrace(name));

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

        // Validate the column selection before simulating: a typo'd
        // --stats must not cost the run. Selection shapes the dumps
        // only; fingerprints and the summary always cover the full
        // statistics set.
        const std::vector<StatColumn> columns =
            opt.statsSpec.empty() ? defaultStatColumns()
                                  : selectStatColumns(opt.statsSpec);

        const SimBudget budget =
            SimBudget::fromEnv(opt.warmup, opt.instrs);

        // The label is part of the point's cache identity, so settle
        // it before any lookup.
        if (opt.label.empty()) {
            for (const auto &t : traces)
                opt.label +=
                    (opt.label.empty() ? "" : "+") + t.name();
        }

        // The same scenario described to hermes_sweep must hash
        // identically, so mirror its grid-point shape: a single trace
        // replicates across every core.
        sweep::GridPoint point;
        point.label = opt.label;
        point.config = cfg;
        point.traces = traces;
        if (traces.size() == 1 && cfg.numCores > 1)
            point.traces.assign(
                static_cast<std::size_t>(cfg.numCores), traces[0]);
        point.budget = budget;

        const auto cache =
            openStore<sweep::ResultCache>(opt.cacheSpec, opt.noCache);
        const auto warmup_cache =
            openStore<WarmupCache>(opt.warmupCacheSpec, opt.noWarmupCache);

        RunStats stats;
        std::optional<sweep::PointResult> hit;
        if (cache)
            hit = cache->load(point);
        if (hit) {
            stats = std::move(hit->stats);
        } else {
            const auto t0 = std::chrono::steady_clock::now();
            SimSession session(cfg, traces, budget);
            stats = runSession(session, warmup_cache.get());
            if (cache) {
                sweep::PointResult r;
                r.index = 0;
                r.label = opt.label;
                r.stats = stats;
                r.wallSeconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    t0)
                                    .count();
                cache->store(point, r);
            }
        }

        // Keep stdout machine-parseable when a dump streams to it.
        const bool stdout_is_dump =
            opt.csvPath == "-" || opt.jsonPath == "-";
        if (opt.fingerprintOnly) {
            std::printf("%016llx\n",
                        static_cast<unsigned long long>(
                            statsFingerprint(stats)));
        } else if (opt.report) {
            std::printf("%s", formatReport(stats).c_str());
        } else if (!stdout_is_dump) {
            std::printf("scenario %s: %d core(s), prefetcher=%s, "
                        "predictor=%s, hermes=%s\n",
                        opt.label.c_str(), cfg.numCores,
                        cfg.prefetcher.c_str(),
                        cfg.predictor.c_str(),
                        cfg.hermesIssueEnabled ? "on" : "off");
            std::printf("  cycles %llu  instrs %llu  ipc0 %.4f  "
                        "llc_mpki %.3f\n",
                        static_cast<unsigned long long>(stats.simCycles),
                        static_cast<unsigned long long>(
                            stats.instrsRetired()),
                        stats.ipc(0), stats.llcMpki());
            std::printf("  dram_reads %llu  hermes_scheduled %llu  "
                        "hermes_served %llu\n",
                        static_cast<unsigned long long>(
                            stats.dram.totalReads()),
                        static_cast<unsigned long long>(
                            stats.hermesRequestsScheduled),
                        static_cast<unsigned long long>(
                            stats.hermesLoadsServed));
            const PredictorStats pred = stats.predTotal();
            if (pred.total() > 0)
                std::printf("  pred_accuracy %.3f  pred_coverage %.3f\n",
                            pred.accuracy(), pred.coverage());
            std::printf("  fingerprint %016llx\n",
                        static_cast<unsigned long long>(
                            statsFingerprint(stats)));
        }

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
