#include "sweep/front_end.hh"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "sim/model_registry.hh"
#include "sim/param_registry.hh"
#include "sweep/axis.hh"
#include "trace/resolve.hh"

namespace hermes::sweep
{

namespace
{

std::uint64_t
count(const char *flag, const std::string &v)
{
    const auto n = parseCount(v);
    if (!n)
        throw UsageError(std::string(flag) +
                         " wants a non-negative integer, got '" + v + "'");
    return *n;
}

int
threadCount(const char *what, const std::string &v)
{
    const auto n = parseThreadCount(v);
    if (!n)
        throw UsageError(std::string(what) +
                         " wants an integer from 0 (all hardware "
                         "threads) to " +
                         std::to_string(INT_MAX) + ", got '" + v + "'");
    return *n;
}

void
readConfigFile(CliOptions &o, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    if (!o.overrides.parse(text.str()))
        throw std::runtime_error("malformed line in " + path +
                                 " (expected 'key = value')");
}

const Flag *
findFlag(const std::string &name)
{
    for (const Flag &f : flagTable())
        if (name == f.name)
            return &f;
    return nullptr;
}

/** "  lhs" with @p help word-wrapped into the help column. */
void
appendRow(std::string &out, const std::string &lhs, const std::string &help)
{
    constexpr std::size_t kHelpColumn = 22;
    constexpr std::size_t kWidth = 78;
    std::string line = "  " + lhs;
    bool bare = true; // no help word on this line yet
    std::istringstream words(help);
    for (std::string w; words >> w;) {
        if (!bare && line.size() + 1 + w.size() > kWidth) {
            out += line + "\n";
            line.clear();
            bare = true;
        }
        if (bare) {
            if (line.size() >= kHelpColumn) {
                out += line + "\n";
                line.clear();
            }
            line.resize(kHelpColumn, ' ');
        } else {
            line += ' ';
        }
        line += w;
        bare = false;
    }
    out += line + "\n";
}

using S = const std::string &;

} // namespace

const std::vector<Flag> &
flagTable()
{
    static const std::vector<Flag> table = {
        {"scenario", "--config", "FILE",
         ".ini scenario file ('key = value' lines, '#' comments); "
         "command-line overrides win",
         [](CliOptions &o, S v) { readConfigFile(o, v); }},
        {"scenario", "--axis", "SPEC",
         "sweep axis \"key=v1,v2,...\" (repeatable; axes expand as a "
         "cartesian product)",
         [](CliOptions &o, S v) { o.axisSpecs.push_back(v); }},
        {"scenario", "--suite", "S",
         "trace suite: quick (default), full, or a comma-separated list "
         "of trace specs",
         [](CliOptions &o, S v) {
             // Resolve now, so a typo or a missing trace file fails
             // before any setup work.
             try {
                 resolveSuite(v);
             } catch (const std::exception &e) {
                 throw UsageError(e.what());
             }
             o.suiteName = v;
         }},
        {"scenario", "--trace", "SPEC",
         "workload trace (repeatable): a suite trace name, "
         "corpus.<generator>[:knob=value...], or file:<path> (HRMTRACE "
         "or ChampSim, optionally .gz/.xz)",
         [](CliOptions &o, S v) { o.workloads.push_back({v, false}); }},
        {"scenario", "--mix", "A,B,...",
         "comma-separated trace specs, one per core",
         [](CliOptions &o, S v) { o.workloads.push_back({v, true}); }},
        {"scenario", "--warmup", "N", "warmup instructions per core",
         [](CliOptions &o, S v) { o.warmup = count("--warmup", v); }},
        {"scenario", "--instrs", "N", "measured instructions per core",
         [](CliOptions &o, S v) { o.instrs = count("--instrs", v); }},
        {"scenario", "--scale", "F",
         "scale both budgets by F, a finite number > 0 (env "
         "HERMES_SIM_SCALE)",
         [](CliOptions &o, S v) {
             if (!parseScale(v))
                 throw UsageError(
                     "--scale wants a finite positive number, got '" + v +
                     "'");
             o.scale = v;
         }},
        {"orchestration", "--shard", "i/N",
         "simulate only slice i of each grid's deterministic N-way "
         "partition",
         [](CliOptions &o, S v) {
             try {
                 o.shard = parseShardSpec(v);
             } catch (const std::invalid_argument &e) {
                 throw UsageError(e.what());
             }
         }},
        {"orchestration", "--journal", "FILE",
         "record every completed point to FILE as crash-safe JSONL",
         [](CliOptions &o, S v) { o.journalPath = v; }},
        {"orchestration", "--resume", "FILE",
         "skip points already recorded in FILE (repeatable; shard "
         "journals union together)",
         [](CliOptions &o, S v) { o.resumePaths.push_back(v); }},
        {"orchestration", "--merge", nullptr,
         "union the --resume journals without simulating; fails unless "
         "they cover the whole grid",
         [](CliOptions &o, S) { o.merge = true; }},
        {"orchestration", "--threads", "N",
         "worker threads, 0 = all hardware threads (env HERMES_THREADS)",
         [](CliOptions &o, S v) { o.threads = threadCount("--threads", v); }},
        {"orchestration", "--progress", nullptr,
         "per-point meter with points/sec and ETA on stderr (default "
         "when stderr is a terminal)",
         [](CliOptions &o, S) { o.progress = true; }},
        {"orchestration", "--no-progress", nullptr, "no progress meter",
         [](CliOptions &o, S) { o.progress = false; }},
        {"stores", "--cache", "SPEC",
         "content-addressed result store "
         "\"DIR[,max_bytes=SIZE][,max_entries=N]\"; stored points load "
         "instead of simulating (env HERMES_RESULT_CACHE)",
         [](CliOptions &o, S v) { o.cacheSpec = v; }},
        {"stores", "--no-cache", nullptr, "ignore HERMES_RESULT_CACHE",
         [](CliOptions &o, S) { o.noCache = true; }},
        {"stores", "--warmup-cache", "SPEC",
         "warmup checkpoint store (same SPEC syntax); points sharing a "
         "warmup identity restore the warmed state instead of "
         "re-warming, e.g. across hermes.issue_latency values under "
         "hermes.warmup_issue=false (env HERMES_WARMUP_CACHE)",
         [](CliOptions &o, S v) { o.warmupCacheSpec = v; }},
        {"stores", "--no-warmup-cache", nullptr,
         "ignore HERMES_WARMUP_CACHE",
         [](CliOptions &o, S) { o.noWarmupCache = true; }},
        {"output", "--label", "NAME",
         "row label for the CSV/JSON dumps (default: the trace names)",
         [](CliOptions &o, S v) { o.label = v; }},
        {"output", "--report", nullptr,
         "every registered statistic, one 'key value' line each (with "
         "the core.N. forms on a multi-core run)",
         [](CliOptions &o, S) { o.report = true; }},
        {"output", "--csv", "FILE|-", "CSV dump, one row per point",
         [](CliOptions &o, S v) { o.csvPath = v; }},
        {"output", "--json", "FILE|-",
         "JSON dump, one object per point",
         [](CliOptions &o, S v) { o.jsonPath = v; }},
        {"output", "--stats", "LIST",
         "dump and summary columns: comma-separated stat keys, per-core "
         "forms (core.0.ipc) and globs (dram.*); default: the aggregate "
         "set",
         [](CliOptions &o, S v) { o.statsSpec = v; }},
        {"output", "--fingerprint", nullptr,
         "print the 16-hex deterministic fingerprint (--stats never "
         "changes it)",
         [](CliOptions &o, S) { o.fingerprint = true; }},
        {"output", "--mips", nullptr,
         "simulated MIPS per point on stderr, and sim_mips/host_seconds "
         "columns in the dumps",
         [](CliOptions &o, S) { o.mips = true; }},
        {"output", "--profile", nullptr,
         "per-component host-time breakdown per grid (exports "
         "HERMES_PROFILE; simulated results are unaffected)",
         [](CliOptions &o, S) { o.profile = true; }},
        {"discovery", "--list-grid", nullptr,
         "print the expanded grid and its space fingerprint, then exit",
         [](CliOptions &o, S) { o.listGrid = true; }},
        {"discovery", "--list", nullptr,
         "predictors, prefetchers, replacement policies, suites and all "
         "parameters",
         [](CliOptions &o, S) { o.action = CliAction::List; }},
        {"discovery", "--list-params", nullptr, "parameter table only",
         [](CliOptions &o, S) { o.action = CliAction::ListParams; }},
        {"discovery", "--list-models", nullptr,
         "registered models (predictors, prefetchers, replacement "
         "policies) with their knobs",
         [](CliOptions &o, S) { o.action = CliAction::ListModels; }},
        {"discovery", "--list-stats", nullptr,
         "statistics table (key, type, aggregation, fingerprint flag, "
         "description)",
         [](CliOptions &o, S) { o.action = CliAction::ListStats; }},
        {"discovery", "--help", nullptr, "this message (also -h)",
         [](CliOptions &o, S) { o.action = CliAction::Help; }},
    };
    return table;
}

bool
FrontEnd::accepts(const std::string &flag) const
{
    for (const std::string &f : flags)
        if (f == flag)
            return true;
    return false;
}

const FrontEnd kRunFrontEnd{
    "Build and run one simulation scenario from strings (no recompiling).\n"
    "Every --trace and --mix entry is one core's trace, in order (default\n"
    "spec06.mcf_like.0); a single trace runs on every core.",
    true,
    {"--config", "--trace", "--mix", "--warmup", "--instrs", "--scale",
     "--cache", "--no-cache", "--warmup-cache", "--no-warmup-cache",
     "--label", "--report", "--csv", "--json", "--stats", "--fingerprint",
     "--list", "--list-params", "--list-models", "--list-stats", "--help"},
    SimBudget::runDefaults(),
};

const FrontEnd kSweepFrontEnd{
    "Run, shard, resume and merge string-declared sweep grids: the base\n"
    "config crossed with every --axis, times the workloads. Each --trace\n"
    "is one point (on every core), each --mix one multi-core point, and\n"
    "without either each --suite trace is one single-core point.\n"
    "--csv, --json and --fingerprint need a complete grid.",
    true,
    {"--axis", "--suite", "--trace", "--mix", "--warmup", "--instrs",
     "--scale", "--shard", "--journal", "--resume", "--merge",
     "--threads", "--progress", "--no-progress", "--cache", "--no-cache",
     "--warmup-cache", "--no-warmup-cache", "--csv", "--json", "--stats",
     "--fingerprint", "--mips", "--list-grid", "--list", "--list-models",
     "--list-stats", "--help"},
    SimBudget::sweepDefaults(),
};

const FrontEnd kFigureFrontEnd{
    "Reproduce one figure or table of the paper. Every grid it fans out\n"
    "is journaled, shardable and resumable (one journal segment per\n"
    "grid); the dumps hold every simulated point.",
    false,
    {"--suite", "--scale", "--shard", "--journal", "--resume",
     "--threads", "--progress", "--no-progress", "--cache", "--no-cache",
     "--warmup-cache", "--no-warmup-cache", "--csv", "--json", "--stats",
     "--mips", "--profile", "--list", "--help"},
    SimBudget::sweepDefaults(),
};

CliOptions
parseCli(const FrontEnd &fe, int argc, const char *const *argv)
{
    CliOptions opt;
    opt.warmup = fe.budget.warmupInstrs;
    opt.instrs = fe.budget.simInstrs;
    opt.progress = fe.accepts("--progress") && isatty(fileno(stderr)) != 0;
    const char *env_threads = std::getenv("HERMES_THREADS");
    if (env_threads != nullptr && fe.accepts("--threads"))
        opt.threads = threadCount("HERMES_THREADS", env_threads);

    std::vector<std::string> overrides;
    for (int i = 1; i < argc; ++i) {
        const std::string arg =
            std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
        const auto eq = arg.find('=');
        const bool inline_value =
            arg.compare(0, 2, "--") == 0 && eq != std::string::npos;
        const std::string name = inline_value ? arg.substr(0, eq) : arg;
        const Flag *flag = findFlag(name);
        if (flag == nullptr && fe.overrides && eq != std::string::npos) {
            // A registry override; --key=value is also accepted.
            overrides.push_back(arg.substr(arg.find_first_not_of('-')));
            continue;
        }
        if (flag == nullptr || !fe.accepts(name))
            throw UsageError("unknown argument '" + arg + "'");
        std::string value;
        if (inline_value) {
            if (flag->metavar == nullptr)
                throw UsageError(name + " takes no value");
            value = arg.substr(eq + 1);
        } else if (flag->metavar != nullptr) {
            if (i + 1 >= argc)
                throw UsageError(name + " needs a value");
            value = argv[++i];
        }
        flag->apply(opt, value);
        if (opt.action != CliAction::Run)
            return opt;
    }

    for (const std::string &kv : overrides) {
        const auto eq = kv.find('=');
        if (eq == 0)
            throw UsageError("malformed override '" + kv + "'");
        opt.overrides.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    // A --mix list and a --stats selection are checked once the whole
    // line is read, like the combinations below.
    for (const WorkloadArg &w : opt.workloads) {
        if (!w.mix)
            continue;
        try {
            splitCommaList(w.spec, "--mix list");
        } catch (const std::invalid_argument &) {
            throw UsageError("--mix wants a non-empty comma-separated "
                             "trace list, got '" +
                             w.spec + "'");
        }
    }
    try {
        statColumns(opt);
    } catch (const std::invalid_argument &e) {
        throw UsageError(e.what());
    }
    if (!opt.suiteName.empty() && !opt.workloads.empty())
        throw UsageError("--suite cannot be combined with --trace/--mix");
    if (opt.merge && opt.resumePaths.empty())
        throw UsageError(
            "--merge needs the shard journals as --resume FILE arguments");
    if (opt.merge && opt.shard.count > 1)
        throw UsageError("--merge and --shard are mutually exclusive");
    // Where a result may print to stdout, one claim at most; a figure
    // driver's stdout is its table, which its dumps may follow.
    if (fe.accepts("--fingerprint") &&
        (opt.fingerprint ? 1 : 0) + (opt.csvPath == "-" ? 1 : 0) +
                (opt.jsonPath == "-" ? 1 : 0) >
            1)
        throw UsageError("only one of --fingerprint, --csv - and --json - "
                         "can claim stdout");
    if (opt.noCache && !opt.cacheSpec.empty())
        throw UsageError("--cache and --no-cache are mutually exclusive");
    if (opt.noWarmupCache && !opt.warmupCacheSpec.empty())
        throw UsageError("--warmup-cache and --no-warmup-cache are "
                         "mutually exclusive");
    // A parameter value the registry rejects ("llc.ways=010", an axis
    // value, an unknown key) is a bad command line too.
    try {
        expandGrid(SystemConfig::fromConfig(opt.overrides), opt.axisSpecs);
    } catch (const std::invalid_argument &e) {
        throw UsageError(e.what());
    }
    return opt;
}

std::string
usage(const FrontEnd &fe, const std::string &argv0)
{
    std::string out = "usage: " + argv0 +
                      (fe.overrides ? " [key=value ...]" : "") +
                      " [options]\n" + fe.summary + "\n";
    if (fe.accepts("--warmup"))
        out += "Default budget per core: " +
               std::to_string(fe.budget.warmupInstrs) + " warmup + " +
               std::to_string(fe.budget.simInstrs) +
               " measured instructions.\n";
    std::string group;
    if (fe.overrides) {
        group = "scenario";
        out += "\n" + group + ":\n";
        appendRow(out, "key=value",
                  "registry parameter override, e.g. llc.ways=16 (also "
                  "--key=value; --list shows every key)");
    }
    for (const Flag &f : flagTable()) {
        if (!fe.accepts(f.name))
            continue;
        if (group != f.group) {
            group = f.group;
            out += "\n" + group + ":\n";
        }
        appendRow(out,
                  std::string(f.name) +
                      (f.metavar ? std::string(" ") + f.metavar : ""),
                  f.help);
    }
    return out;
}

CliOptions
parseCliOrExit(const FrontEnd &fe, int argc, char **argv)
{
    CliOptions opt;
    try {
        opt = parseCli(fe, argc, argv);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "error: %s\n%s", e.what(),
                     usage(fe, argv[0]).c_str());
        std::exit(2);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(1);
    }
    switch (opt.action) {
    case CliAction::Run:
        break;
    case CliAction::Help:
        std::fputs(usage(fe, argv[0]).c_str(), stderr);
        std::exit(0);
    case CliAction::List:
        std::printf("%s", describeScenarioSpace().c_str());
        std::exit(0);
    case CliAction::ListParams:
        std::printf("%s", ParamRegistry::instance().describe().c_str());
        std::exit(0);
    case CliAction::ListModels:
        std::printf("%s", ModelRegistry::instance().describe().c_str());
        std::exit(0);
    case CliAction::ListStats:
        std::printf("%s", StatRegistry::instance().describe().c_str());
        std::exit(0);
    }
    // The library reads both from the environment: budgets through
    // SimBudget::fromEnv, profiling when each System is built.
    if (!opt.scale.empty())
        setenv("HERMES_SIM_SCALE", opt.scale.c_str(), 1);
    if (opt.profile)
        setenv("HERMES_PROFILE", "1", 1);
    return opt;
}

Stores
openStores(const CliOptions &opt)
{
    Stores s;
    s.results = openStore<ResultCache>(opt.cacheSpec, opt.noCache);
    s.warmups = openStore<WarmupCache>(opt.warmupCacheSpec,
                                       opt.noWarmupCache);
    return s;
}

std::vector<std::vector<JournalSegment>>
readResumeJournals(const CliOptions &opt)
{
    std::vector<std::vector<JournalSegment>> files;
    for (const std::string &path : opt.resumePaths) {
        bool truncated = false;
        files.push_back(readJournal(path, &truncated));
        if (truncated)
            std::fprintf(stderr,
                         "note: %s has a truncated final record (crash "
                         "mid-append); it will be re-simulated\n",
                         path.c_str());
    }
    return files;
}

SweepOptions
engineOptions(const CliOptions &opt, WarmupCache *warmups)
{
    SweepOptions eo;
    eo.threads = opt.threads;
    eo.warmupCache = warmups;
    if (opt.progress) {
        // One meter per fan-out so the rate/ETA restart with each grid.
        auto meter = std::make_shared<ProgressMeter>();
        eo.onProgress = [meter](std::size_t done, std::size_t total,
                                const PointResult &r) {
            std::fprintf(stderr, "\r%s",
                         meter->line(done, total, r.label).c_str());
            if (done == total)
                std::fprintf(stderr, "\n");
        };
    }
    return eo;
}

void
printMipsSummary(const std::vector<PointResult> &results)
{
    std::uint64_t instrs = 0;
    double seconds = 0;
    for (const PointResult &r : results) {
        if (r.stats.hostPerf.instrs == 0)
            continue; // not simulated here (other shard)
        std::fprintf(stderr, "mips %-48s %8.2f\n", r.label.c_str(),
                     r.stats.hostPerf.mips());
        instrs += r.stats.hostPerf.instrs;
        seconds += r.stats.hostPerf.seconds;
    }
    // Per-run host seconds summed across workers: at one thread this
    // is the grid's aggregate simulated MIPS; with more, runs overlap
    // and it reads as per-worker throughput.
    if (seconds > 0)
        std::fprintf(stderr,
                     "mips TOTAL %llu instrs / %.3f run-seconds = %.2f "
                     "MIPS\n",
                     static_cast<unsigned long long>(instrs), seconds,
                     static_cast<double>(instrs) / seconds / 1e6);
}

std::vector<StatColumn>
statColumns(const CliOptions &opt)
{
    if (opt.statsSpec.empty())
        return defaultStatColumns(opt.mips);
    std::vector<StatColumn> columns = selectStatColumns(opt.statsSpec);
    if (opt.mips)
        appendHostPerfColumns(columns);
    return columns;
}

} // namespace hermes::sweep
