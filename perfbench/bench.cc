/**
 * @file
 * The simulator benchmark: runs one workload (single_core, eight_core
 * or sweep_stores) through the library's public entry points, times
 * it from outside, checks every simulated point and prints one JSON
 * result line. perfbench/run.py builds and launches it; README.md in
 * this directory explains the workloads, metrics and span file.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--golden FILE] [--tiny]
 *
 *  --trace 0  repeat untimed-input, timed passes for S seconds and
 *             report the end-to-end metrics (each the median over the
 *             passes, scaled by a reference kernel timed before each)
 *  --trace 1  alternate untraced and HERMES_PROFILE passes for S
 *             seconds, run the standalone trace/store probes and
 *             report the per-layer metrics; spans go to
 *             .bench_build/perfbench/spans/
 *  --golden   golden fingerprint file for the known-answer check
 *             (default tests/golden/fingerprints.txt; read only)
 *  --tiny     tiny budgets (the self-test)
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/harness.hh"
#include "sim/model_registry.hh"
#include "sim/param_registry.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/stat_registry.hh"
#include "sim/warmup_cache.hh"
#include "sweep/journal.hh"
#include "sweep/result_cache.hh"
#include "sweep/sweep.hh"
#include "trace/corpus.hh"
#include "trace/resolve.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"

extern char **environ;

namespace fs = std::filesystem;
using namespace hermes;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0, Clock::time_point t1 = Clock::now())
{
    return std::chrono::duration<double>(t1 - t0).count();
}

const Clock::time_point kEpoch = Clock::now();

/** Where every file the benchmark writes lives (inside the checkout). */
const std::string kWorkDir = ".bench_build/perfbench";

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string golden = "tests/golden/fingerprints.txt";
};

// ---------------------------------------------------------------------
// Spans: one record per public call the benchmark makes, kept in memory
// and written once at exit as Chrome trace-event JSON.

struct Span
{
    std::string name;
    std::string cat;
    double start = 0; ///< seconds since kEpoch
    double dur = 0;
    int tid = 0;
    long id = 0;     ///< the point (or grid/probe) the span belongs to
    long parent = 0; ///< the pass that caused it (0 = none)
    std::string label;
};

class SpanLog
{
  public:
    void
    add(std::string name, std::string cat, Clock::time_point t0,
        double dur, long id, long parent, std::string label)
    {
        std::lock_guard<std::mutex> g(mutex_);
        const auto [it, fresh] =
            tids_.emplace(std::this_thread::get_id(), tids_.size());
        (void)fresh;
        spans_.push_back({std::move(name), std::move(cat),
                          secondsSince(kEpoch, t0), dur,
                          static_cast<int>(it->second), id, parent,
                          std::move(label)});
    }

    /** A span over [t0, now). */
    void
    close(const char *name, const char *cat, Clock::time_point t0, long id,
          long parent, const std::string &label)
    {
        add(name, cat, t0, secondsSince(t0), id, parent, label);
    }

    long
    nextId()
    {
        std::lock_guard<std::mutex> g(mutex_);
        return ++lastId_;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        char buf[160];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof(buf),
                          "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                          "\"ts\":%.3f,\"dur\":%.3f,",
                          i ? "," : "", s.tid, s.start * 1e6, s.dur * 1e6);
            out << buf << "\"name\":\"" << jsonEscape(s.name)
                << "\",\"cat\":\"" << jsonEscape(s.cat)
                << "\",\"args\":{\"id\":" << s.id
                << ",\"parent\":" << s.parent << ",\"label\":\""
                << jsonEscape(s.label) << "\"}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::thread::id, std::size_t> tids_;
    long lastId_ = 0;
};

/** Times one public call into a span when a log is attached. */
class Timer
{
  public:
    Timer(SpanLog *log, const char *name, const char *cat, long id,
          long parent, std::string label)
        : log_(log), name_(name), cat_(cat), id_(id), parent_(parent),
          label_(std::move(label))
    {
    }

    /** Stop, record the span, return the elapsed seconds. */
    double
    stop()
    {
        const double s = secondsSince(t0_);
        if (log_ != nullptr)
            log_->add(name_, cat_, t0_, s, id_, parent_, label_);
        return s;
    }

  private:
    SpanLog *log_;
    const char *name_;
    const char *cat_;
    long id_;
    long parent_;
    std::string label_;
    Clock::time_point t0_ = Clock::now();
};

long
newId(SpanLog *log)
{
    return log != nullptr ? log->nextId() : 0;
}

// ---------------------------------------------------------------------
// Output check: one operation per simulated point, plus the known
// answer and the restore probe.

class Check
{
  public:
    void
    op(bool ok, const std::string &what)
    {
        ++attempted_;
        if (ok)
            return;
        ++failed_;
        if (failed_ <= 20)
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * The physical invariants that hold on every point at this commit
 * ("" when all do). Two candidates do not, so they are counted instead
 * of gated: per-core IPC above the retire width (ROADMAP item 1), as
 * core.ipc_over_width, and hermes.served above hermes.scheduled, as
 * hermes.served_over_scheduled. The latter is no defect: served counts
 * loads and scheduled counts requests, and every load whose miss merged
 * onto a line a Hermes-only DRAM read brings in is served by it.
 */
std::string
brokenInvariant(const RunStats &s, const sweep::GridPoint &point)
{
    const int cores = point.config.numCores;
    const std::uint64_t quota = point.budget.simInstrs;
    for (const char *level : {"l1", "l2", "llc"})
        for (const char *kind : {"load", "rfo", "wb"}) {
            const std::string k = std::string(level) + "." + kind;
            if (statU64(s, k + "_hits") > statU64(s, k + "_lookups"))
                return k + " hits exceed lookups";
        }
    if (s.dramBwUtil() > 1.0)
        return "dram.bw_util exceeds 1";
    if (s.core.size() != static_cast<std::size_t>(cores) ||
        s.coreFinishCycle.size() != s.core.size())
        return "wrong core count";
    for (int c = 0; c < cores; ++c)
        if (s.core[c].instrsRetired < quota || s.coreFinishCycle[c] == 0)
            return "core " + std::to_string(c) + " missed its quota";
    return "";
}

// ---------------------------------------------------------------------
// Host-speed reference. On a shared host, other tenants slow every pass
// of a run together, by up to 1.6x for tens of seconds to minutes at a
// time. A fixed kernel shaped like the simulator's own hot loop, timed
// on the same thread before every pass, slows with it; each pass's
// timings are scaled by the sample before it, so that a change of host
// speed cancels and a change of the program does not.

/** The kernel's cache: 2048 sets x 16 ways of tags and LRU stamps,
 * 384 KiB, resident in a core's L2 like the simulator's hot tables. */
constexpr std::uint32_t kRefSets = 2048;
constexpr std::uint32_t kRefWays = 16;
/** Accesses per sample, about 30 ms. */
constexpr std::uint32_t kRefAccesses = 1'000'000;
/** ns per access the scaled timings assume: a calm sizing host's. */
constexpr double kReferenceNs = 30.0;

volatile std::uint32_t referenceSink = 0;

/**
 * A set-associative LRU cache model over a fixed address stream (three
 * sequential lines in four, else a random jump in 64 MiB): tag scans,
 * data-dependent branches and stamp updates, as in the simulator's
 * caches. Benchmark code, so a change to the program leaves it alone.
 */
class HostReference
{
  public:
    HostReference() : tags_(kRefSets * kRefWays), stamps_(kRefSets * kRefWays)
    {
    }

    /** One timed sample from the same start state, in ns per access. */
    double
    sample()
    {
        std::fill(tags_.begin(), tags_.end(), ~0ull);
        std::fill(stamps_.begin(), stamps_.end(), 0u);
        std::uint64_t x = 0x9e3779b97f4a7c15ull, addr = 0;
        std::uint32_t clock = 0, hits = 0;
        const auto t0 = Clock::now();
        for (std::uint32_t i = 0; i < kRefAccesses; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            addr = (x & 3) != 0 ? addr + 64 : (x >> 20) & ((1ull << 26) - 1);
            const std::uint64_t line = addr >> 6;
            const std::size_t base = (line % kRefSets) * kRefWays;
            std::uint32_t way = kRefWays;
            for (std::uint32_t w = 0; w < kRefWays; ++w)
                if (tags_[base + w] == line) {
                    way = w;
                    break;
                }
            if (way == kRefWays) {
                way = 0;
                for (std::uint32_t w = 1; w < kRefWays; ++w)
                    if (stamps_[base + w] < stamps_[base + way])
                        way = w;
                tags_[base + way] = line;
            } else {
                ++hits;
            }
            stamps_[base + way] = ++clock;
        }
        const double ns = secondsSince(t0) * 1e9 / kRefAccesses;
        referenceSink = hits;
        return ns;
    }

  private:
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> stamps_;
};

// ---------------------------------------------------------------------
// Workloads.

/**
 * Pythia + POPET + Hermes-O, the paper's headline system: perf_gate's
 * withHermes(cfgBaseline(), Popet) on one core, fig16's Pythia
 * baseline(8) + Hermes on eight.
 */
SystemConfig
hermesConfig(int cores, std::uint64_t seed)
{
    SystemConfig base = bench::cfgBaseline();
    if (cores != 1) {
        base = SystemConfig::baseline(cores);
        base.prefetcher = PrefetcherKind::Pythia;
    }
    SystemConfig cfg = bench::withHermes(base, PredictorKind::Popet);
    cfg.seed = seed;
    return cfg;
}

/** Per-point budgets (per core), set here rather than by environment. */
struct Budgets
{
    SimBudget singleCore;
    SimBudget eightCore;
    SimBudget sweep;
};

Budgets
budgets(bool tiny)
{
    if (tiny)
        return {{5'000, 10'000}, {2'000, 5'000}, {4'000, 6'000}};
    return {{150'000, 250'000}, {40'000, 100'000}, {100'000, 100'000}};
}

/** fig17c-style axis; hermes.warmup_issue=false lets it share warmups. */
const std::vector<Cycle> kIssueLatencies = {0, 6, 12, 18, 24, 30};
/** Half of the 4 vCPUs the budgets were sized on. */
constexpr int kSweepThreads = 2;

std::vector<sweep::GridPoint>
singleCoreScenarios(std::uint64_t seed, const SimBudget &b)
{
    std::vector<sweep::GridPoint> out;
    for (const TraceSpec &t : quickSuite())
        out.push_back({t.name(), hermesConfig(1, seed), {t}, b});
    return out;
}

std::vector<sweep::GridPoint>
eightCoreScenarios(std::uint64_t seed, const SimBudget &b)
{
    // fig16's heterogeneous mix (its mcf core is the straggler) and a
    // bandwidth-bound homogeneous mix.
    const std::vector<TraceSpec> quick = quickSuite();
    const std::vector<TraceSpec> hetero(quick.begin(), quick.begin() + 8);
    return {
        {"mix8.hetero", hermesConfig(8, seed), hetero, b},
        {"mix8.server_db", hermesConfig(8, seed),
         std::vector<TraceSpec>(8, findTrace("cvp.server_db_like.0")), b},
    };
}

SystemConfig
sweepConfig(std::uint64_t seed, Cycle latency)
{
    SystemConfig cfg = hermesConfig(1, seed);
    cfg.hermesIssueLatency = latency;
    cfg.hermesWarmupIssue = false;
    return cfg;
}

/** The four trace files, written once per process before any timing. */
struct SweepInputs
{
    std::vector<TraceSpec> traces;
    std::uint64_t seed = 1;
    SimBudget budget;
};

SweepInputs
writeSweepInputs(const std::string &dir, std::uint64_t seed,
                 const SimBudget &b)
{
    SweepInputs in{{}, seed, b};
    // Each file holds a point's warmup + measure window plus the ROB's
    // fetch-ahead, so replay never loops back to the start.
    const std::uint64_t count = b.warmupInstrs + b.simInstrs + 4096;
    const std::string knob_seed =
        std::to_string(seed % 1'000'000'000'000'000ull);
    for (const char *gen : {"chase", "stream", "gather", "mix"}) {
        const TraceSpec spec = makeCorpusTrace(
            std::string("corpus.") + gen + ":seed=" + knob_seed);
        const std::string path = dir + "/" + gen + ".hrmtrace.gz";
        auto workload = spec.make();
        writeTraceFile(path, *workload, count, spec.name(),
                       spec.category());
        in.traces.push_back(resolveTrace("file:" + path));
    }
    return in;
}

std::vector<sweep::GridPoint>
sweepGrid(const SweepInputs &in)
{
    std::vector<sweep::GridPoint> grid;
    for (Cycle lat : kIssueLatencies)
        for (const TraceSpec &t : in.traces)
            grid.push_back(
                {"lat" + std::to_string(lat) + "." +
                     fs::path(t.filePath).stem().stem().string(),
                 sweepConfig(in.seed, lat), {t}, in.budget});
    return grid;
}

// ---------------------------------------------------------------------
// One pass of a workload and what it measured.

struct PointRecord
{
    sweep::GridPoint point;
    RunStats stats;
    /** Warmup ran in this System (false: restored from the store). */
    bool warmed = true;
    /** Why the point fails its check ("" = it passes). */
    std::string problem;
};

struct SweepMeasures
{
    double coldSeconds = 0;
    double warmSeconds = 0;
    double busySeconds = 0; ///< sum of cold PointResult::wallSeconds
    std::uint64_t simulated = 0;
    std::uint64_t cached = 0;
    double snapshotSeconds = 0;
    double restoreSeconds = 0; ///< standalone WarmupCache::load probe
    /** Standalone JournalWriter::append / ResultCache::store probes. */
    double journalSeconds = 0;
    double publishSeconds = 0;
    std::uint64_t checkpointBytes = 0;
    std::uint64_t warmupHits = 0;
    std::uint64_t resultHits = 0;
    std::uint64_t resultStores = 0;
    std::uint64_t rejected = 0;
};

struct Pass
{
    /** The host-speed reference sampled just before the pass. */
    double referenceNs = 0;
    double wall = 0;
    double setup = 0;
    /** sim_mips = measuredBudget / mipsSeconds. */
    double mipsSeconds = 0;
    std::uint64_t measuredBudget = 0;
    /** Session phases: the benchmark's own spans, except measure on
     * sweep_stores (the cold points' RunStats::hostPerf seconds). */
    double buildSeconds = 0;
    double warmupSeconds = 0;
    double measureSeconds = 0;
    double collectSeconds = 0;
    std::vector<PointRecord> points;
    SweepMeasures sweep;
};

/** single_core and eight_core: SimSession phases, one point at a time. */
Pass
runSessions(const std::vector<sweep::GridPoint> &scenarios, SpanLog *spans)
{
    Pass pass;
    const long pass_id = newId(spans);
    const auto t_pass = Clock::now();
    for (const sweep::GridPoint &sc : scenarios) {
        PointRecord p;
        p.point = sc;
        const long id = newId(spans);
        try {
            Timer tb(spans, "build", "session", id, pass_id, sc.label);
            SimSession session(sc.config, sc.traces, sc.budget);
            session.build();
            const double build = tb.stop();
            Timer tw(spans, "warmup", "session", id, pass_id, sc.label);
            session.warmup();
            const double warmup = tw.stop();
            Timer tm(spans, "measure", "session", id, pass_id, sc.label);
            session.measure();
            const double measure = tm.stop();
            Timer tc(spans, "collect", "session", id, pass_id, sc.label);
            p.stats = session.collect();
            pass.collectSeconds += tc.stop();
            pass.buildSeconds += build;
            pass.warmupSeconds += warmup;
            pass.measureSeconds += measure;
            p.problem = brokenInvariant(p.stats, sc);
        } catch (const std::exception &e) {
            p.problem = std::string("threw: ") + e.what();
        }
        pass.measuredBudget +=
            static_cast<std::uint64_t>(sc.config.numCores) *
            sc.budget.simInstrs;
        pass.points.push_back(std::move(p));
    }
    pass.wall = secondsSince(t_pass);
    pass.setup = pass.buildSeconds + pass.warmupSeconds;
    pass.mipsSeconds = pass.measureSeconds;
    if (spans != nullptr)
        spans->close("pass", "pass", t_pass, pass_id, 0, "pass");
    return pass;
}

std::uint64_t
directoryBytes(const std::string &dir, const std::string &ext)
{
    std::uint64_t bytes = 0;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ext)
            bytes += e.file_size();
    return bytes;
}

/**
 * The journal appends and result-store publishes of a cold grid, timed
 * on their own into fresh files. runJournaled makes the same calls
 * under the engine's progress lock, and each one writes and fsyncs.
 */
void
publishProbe(const std::vector<sweep::GridPoint> &grid,
             const sweep::OrchestratedRun &cold, const std::string &dir,
             SpanLog *spans, long pass_id, SweepMeasures &m)
{
    sweep::JournalWriter journal(dir + "/probe.jsonl");
    sweep::ResultCache store({dir + "/probe_results", 0, 0});
    Timer tj(spans, "append", "sweep", newId(spans), pass_id,
             "probe.journal");
    journal.beginGrid(grid);
    for (const sweep::PointResult &r : cold.results)
        journal.append(r);
    m.journalSeconds = tj.stop();
    Timer tp(spans, "publish", "store", newId(spans), pass_id,
             "probe.results");
    for (std::size_t i = 0; i < grid.size(); ++i)
        store.store(grid[i], cold.results[i]);
    m.publishSeconds = tp.stop();
}

/**
 * sweep_stores: prime a fresh warmup store, run the grid cold (every
 * point restores, simulates and publishes), then warm (every point
 * loads from the result store). @p check_restore appends the
 * standalone restore and publish probes after the timed part.
 */
Pass
runSweepStores(const SweepInputs &in, const std::string &store_dir,
               SpanLog *spans, Check *check_restore)
{
    Pass pass;
    const std::vector<sweep::GridPoint> grid = sweepGrid(in);
    const std::size_t n = grid.size();
    std::string grid_problem;
    const long pass_id = newId(spans);
    const auto t_pass = Clock::now();

    WarmupCache warm_store({store_dir + "/warmup", 0, 0});
    sweep::ResultCache result_store({store_dir + "/results", 0, 0});
    try {
        for (const TraceSpec &t : in.traces) {
            const std::string label = "prime." + t.name();
            const long id = newId(spans);
            Timer tb(spans, "build", "session", id, pass_id, label);
            SimSession session(sweepConfig(in.seed, kIssueLatencies[0]),
                               {t}, in.budget);
            session.build();
            pass.buildSeconds += tb.stop();
            Timer tw(spans, "warmup", "session", id, pass_id, label);
            session.warmup();
            pass.warmupSeconds += tw.stop();
            Timer ts(spans, "snapshot", "store", id, pass_id, label);
            warm_store.store(session);
            pass.sweep.snapshotSeconds += ts.stop();
        }
    } catch (const std::exception &e) {
        grid_problem = std::string("priming threw: ") + e.what();
    }
    pass.setup = secondsSince(t_pass);
    if (grid_problem.empty() &&
        warm_store.stats().stores != in.traces.size())
        grid_problem = "warmup store not primed with every trace";

    sweep::SweepOptions eopts;
    eopts.threads = kSweepThreads;
    eopts.warmupCache = &warm_store;
    if (spans != nullptr)
        eopts.onProgress = [spans, pass_id,
                            &grid](std::size_t, std::size_t,
                                   const sweep::PointResult &r) {
            // The engine runs build/restore/measure/collect itself, so
            // a point is one span ending now, as long as its wall time.
            const auto dur = std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(r.wallSeconds));
            spans->add("point", "sweep", Clock::now() - dur, r.wallSeconds,
                       spans->nextId(), pass_id, grid[r.index].label);
        };

    sweep::OrchestratedRun cold, warm;
    try {
        sweep::JournalWriter journal(store_dir + "/cold.jsonl");
        Timer t(spans, "cold", "sweep", pass_id, 0, "grid");
        cold = sweep::runJournaled(eopts, grid,
                                   {{}, nullptr, &journal, &result_store});
        pass.sweep.coldSeconds = t.stop();
        pass.sweep.warmupHits = warm_store.stats().hits;
        pass.sweep.resultStores = result_store.stats().stores;
        sweep::JournalWriter warm_journal(store_dir + "/warm.jsonl");
        Timer tw(spans, "warm", "sweep", pass_id, 0, "grid");
        warm = sweep::runJournaled(
            eopts, grid, {{}, nullptr, &warm_journal, &result_store});
        pass.sweep.warmSeconds = tw.stop();
    } catch (const std::exception &e) {
        grid_problem = std::string("grid threw: ") + e.what();
    }

    if (grid_problem.empty()) {
        if (cold.simulated != n || warm.simulated != 0 || warm.cached != n)
            grid_problem = "cold pass must simulate every point and the "
                           "warm pass none";
        else if (pass.sweep.warmupHits != n)
            grid_problem = "a cold point did not restore its warmup";
        else if (sweep::sweepFingerprint(warm.results) !=
                 sweep::sweepFingerprint(cold.results))
            grid_problem = "warm sweepFingerprint differs from cold";
    }
    for (std::size_t i = 0; i < n; ++i) {
        PointRecord p;
        p.point = grid[i];
        p.warmed = false;
        p.problem = grid_problem;
        if (grid_problem.empty()) {
            const sweep::PointResult &r = cold.results[i];
            p.stats = r.stats;
            if (!r.ok)
                p.problem = "simulation threw";
            else if (statsFingerprint(warm.results[i].stats) !=
                     statsFingerprint(r.stats))
                p.problem = "warm result differs from cold";
            else
                p.problem = brokenInvariant(p.stats, grid[i]);
            pass.sweep.busySeconds += r.wallSeconds;
            pass.measureSeconds += r.stats.hostPerf.seconds;
        }
        pass.points.push_back(std::move(p));
    }
    pass.wall = secondsSince(t_pass);
    if (spans != nullptr)
        spans->close("pass", "pass", t_pass, pass_id, 0, "pass");

    pass.mipsSeconds = pass.sweep.coldSeconds;
    pass.measuredBudget = n * in.budget.simInstrs;
    pass.sweep.simulated = cold.simulated;
    pass.sweep.cached = warm.cached;
    pass.sweep.resultHits = result_store.stats().hits;
    pass.sweep.checkpointBytes = directoryBytes(warm_store.dir(), ".ckpt");
    if (check_restore != nullptr) {
        for (const TraceSpec &t : in.traces) {
            const std::string label = "probe." + t.name();
            SimSession session(sweepConfig(in.seed, kIssueLatencies[0]),
                               {t}, in.budget);
            session.build();
            Timer tr(spans, "restore", "store", newId(spans), 0, label);
            const bool ok = warm_store.load(session);
            pass.sweep.restoreSeconds += tr.stop();
            check_restore->op(ok, label + ": checkpoint did not restore");
        }
        if (grid_problem.empty())
            publishProbe(grid, cold, store_dir, spans, pass_id, pass.sweep);
    }
    pass.sweep.rejected =
        warm_store.stats().rejected + result_store.stats().rejected;
    return pass;
}

/**
 * Count every point of @p pass as one operation; with @p reference, a
 * point must also reproduce the reference pass's statistics exactly.
 */
void
account(Check &check, const Pass &pass, const Pass *reference,
        const char *what)
{
    for (std::size_t i = 0; i < pass.points.size(); ++i) {
        const PointRecord &p = pass.points[i];
        std::string problem = p.problem;
        if (problem.empty() && reference != nullptr &&
            (i >= reference->points.size() ||
             statsFingerprint(p.stats) !=
                 statsFingerprint(reference->points[i].stats)))
            problem = std::string("fingerprint differs from ") + what;
        check.op(problem.empty(), p.point.label + ": " + problem);
    }
}

// ---------------------------------------------------------------------
// Known answer: one golden scenario, recomputed at the golden budget.

std::optional<std::uint64_t>
goldenValue(const std::string &path, const std::string &key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string k, hex;
        if (ls >> k >> hex && k == key) {
            try {
                return std::stoull(hex, nullptr, 16);
            } catch (const std::exception &) {
                return std::nullopt;
            }
        }
    }
    return std::nullopt;
}

void
knownAnswer(const std::string &golden_path, Check &check)
{
    const auto want = goldenValue(golden_path, "one.hermes.mcf");
    if (!want) {
        check.op(false, "no one.hermes.mcf line in " + golden_path);
        return;
    }
    try {
        // The golden scenario's own seed, whatever --seed says.
        SimSession session(hermesConfig(1, 1),
                           {findTrace("spec06.mcf_like.0")}, {5'000, 20'000});
        session.build();
        session.warmup();
        session.measure();
        const std::uint64_t got = statsFingerprint(session.collect());
        check.op(got == *want, "one.hermes.mcf fingerprint " +
                                   fingerprintHex(got) + " != golden " +
                                   fingerprintHex(*want));
    } catch (const std::exception &e) {
        check.op(false, std::string("one.hermes.mcf threw: ") + e.what());
    }
}

/** Keeps the trace probe's reads observable to the optimizer. */
volatile std::uint64_t probeSink = 0;

/** Standalone Workload::next() over the instructions the pass ran. */
void
traceProbe(const Pass &p, SpanLog &spans, double &seconds,
           std::uint64_t &instrs)
{
    std::uint64_t sink = 0;
    for (const PointRecord &r : p.points) {
        const sweep::GridPoint &pt = r.point;
        Timer t(&spans, "next", "trace", spans.nextId(), 0,
                "probe." + pt.label);
        for (int c = 0; c < pt.config.numCores; ++c) {
            // SimSession's per-core workloads: core c > 0 clones with
            // seed offset c. A restored file workload re-decoded its
            // warmup window too, so every point counts it.
            auto w = pt.traces[pt.traces.size() == 1 ? 0 : c].make();
            if (c > 0)
                w = w->clone(static_cast<std::uint64_t>(c));
            const std::uint64_t n =
                pt.budget.warmupInstrs +
                (c < static_cast<int>(r.stats.core.size())
                     ? r.stats.core[c].instrsRetired
                     : 0);
            for (std::uint64_t i = 0; i < n; ++i)
                sink += w->next().vaddr;
            instrs += n;
        }
        seconds += t.stop();
    }
    probeSink = sink;
}

// ---------------------------------------------------------------------
// Metrics.

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * A size in /proc/self/status, in MB: VmRSS (resident now) or VmHWM
 * (peak resident of this process image). Not getrusage's ru_maxrss:
 * run.py exec()s this binary, and Linux carries the launcher's larger
 * maximum across exec.
 */
double
statusMb(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    std::string key;
    double kib = 0;
    while (in >> key) {
        if (key == field) {
            in >> kib;
            break;
        }
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return kib / 1024.0;
}

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        rows_.push_back({name, value, unit});
    }

    void
    count(const std::string &name, std::uint64_t value)
    {
        add(name, static_cast<double>(value), "count");
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%.17g", rows_[i].value);
            out += (i ? ", \"" : "\"") + rows_[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   rows_[i].unit + "\"}";
        }
        return out + "}";
    }

    void
    print(FILE *f) const
    {
        for (const Row &r : rows_)
            std::fprintf(f, "  %-28s %16.6f %s\n", r.name.c_str(), r.value,
                         r.unit.c_str());
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

template <typename F>
double
medianOver(const std::vector<Pass> &passes, F f)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back(f(p));
    return median(v);
}

/**
 * Each timing is the median over the run's passes of that pass's
 * timing scaled to the reference host speed, by kReferenceNs over the
 * reference sample taken just before the pass. The scale removes the
 * host's slow regimes, which outlast a pass; the median removes the
 * bursts shorter than one, which hit a pass and not its sample or the
 * other way round.
 */
void
endToEndMetrics(const std::vector<Pass> &passes, double peak_mb,
                Metrics &m)
{
    auto scaled = [](double Pass::*f) {
        return [f](const Pass &p) {
            return p.*f * kReferenceNs / p.referenceNs;
        };
    };
    const double wall = medianOver(passes, scaled(&Pass::wall));
    const double setup = medianOver(passes, scaled(&Pass::setup));
    const double measure = medianOver(passes, scaled(&Pass::mipsSeconds));
    std::fprintf(stderr,
                 "median of %zu passes: raw wall %.4f s, setup %.4f s, "
                 "measure %.4f s; reference %.1f ns/access\n",
                 passes.size(),
                 medianOver(passes, [](const Pass &p) { return p.wall; }),
                 medianOver(passes, [](const Pass &p) { return p.setup; }),
                 medianOver(passes,
                            [](const Pass &p) { return p.mipsSeconds; }),
                 medianOver(passes,
                            [](const Pass &p) { return p.referenceNs; }));
    m.add("wall_s", wall, "s");
    m.add("setup_s", setup, "s");
    m.add("sim_mips",
          ratio(static_cast<double>(passes.front().measuredBudget),
                measure) /
              1e6,
          "MIPS");
    m.add("peak_rss_mb", peak_mb, "MB");
}

/** The simulated machine, pooled over one pass's points. */
void
machineMetrics(const Pass &pass, Metrics &m)
{
    std::uint64_t instrs = 0, cycles = 0, over_width = 0, mispredicts = 0,
                  llc_misses = 0, offchip = 0, served = 0,
                  served_over_scheduled = 0;
    std::uint64_t hits[3] = {}, lookups[3] = {};
    double bus_busy = 0, bus_capacity = 0;
    PredictorStats pred;
    std::map<std::string, std::uint64_t> sum;
    for (const PointRecord &r : pass.points) {
        const RunStats &s = r.stats;
        instrs += s.instrsRetired();
        cycles += s.simCycles;
        for (int c = 0; c < r.point.config.numCores; ++c)
            if (s.ipc(c) > r.point.config.core.retireWidth)
                ++over_width;
        for (const BranchStats &b : s.branch)
            mispredicts += b.mispredicts;
        const CacheStats *levels[3] = {&s.l1, &s.l2, &s.llc};
        for (int l = 0; l < 3; ++l) {
            hits[l] += levels[l]->demandHits();
            lookups[l] += levels[l]->demandLookups();
        }
        llc_misses += s.llc.demandMisses();
        for (const CoreStats &c : s.core)
            offchip += c.loadsOffChip;
        served += s.hermesLoadsServed;
        if (s.hermesLoadsServed > s.hermesRequestsScheduled)
            ++served_over_scheduled;
        const PredictorStats t = s.predTotal();
        pred.truePositives += t.truePositives;
        pred.falsePositives += t.falsePositives;
        pred.falseNegatives += t.falseNegatives;
        pred.trueNegatives += t.trueNegatives;
        bus_busy +=
            static_cast<double>(s.dram.totalReads() + s.dram.writes) *
            static_cast<double>(s.dramBusCyclesPerLine);
        bus_capacity += static_cast<double>(s.simCycles) *
                        static_cast<double>(s.dramChannels);
        for (const char *k :
             {"llc.rq_rejects", "pf.issued", "pf.useful", "hermes.issued",
              "dram.reads", "dram.writes", "dram.row_hits",
              "dram.row_misses", "dram.row_conflicts"})
            sum[k] += statU64(s, k);
    }
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double kinstr = d(instrs) / 1000.0;
    m.count("core.instrs", instrs);
    m.count("cycles", cycles);
    m.count("core.ipc_over_width", over_width);
    m.add("branch.mpki", ratio(d(mispredicts), kinstr), "1/kinstr");
    static const char *const levels[3] = {"l1", "l2", "llc"};
    for (int l = 0; l < 3; ++l)
        m.add(std::string(levels[l]) + ".hit_rate",
              ratio(d(hits[l]), d(lookups[l])), "ratio");
    m.add("llc.mpki", ratio(d(llc_misses), kinstr), "1/kinstr");
    m.count("llc.rq_rejects", sum["llc.rq_rejects"]);
    m.count("pf.issued", sum["pf.issued"]);
    m.add("pf.accuracy", ratio(d(sum["pf.useful"]), d(sum["pf.issued"])),
          "ratio");
    m.add("pred.accuracy", pred.accuracy(), "ratio");
    m.add("pred.coverage", pred.coverage(), "ratio");
    m.count("hermes.issued", sum["hermes.issued"]);
    m.add("hermes.served_rate", ratio(d(served), d(offchip)), "ratio");
    m.count("hermes.served_over_scheduled", served_over_scheduled);
    m.count("dram.reads", sum["dram.reads"]);
    m.count("dram.writes", sum["dram.writes"]);
    m.add("dram.bw_util", ratio(bus_busy, bus_capacity), "ratio");
    m.add("dram.row_hit_rate",
          ratio(d(sum["dram.row_hits"]),
                d(sum["dram.row_hits"] + sum["dram.row_misses"] +
                  sum["dram.row_conflicts"])),
          "ratio");
}

/**
 * Per-layer metrics of the traced run: medians of the traced passes'
 * timings; exact counts from the first traced pass (every later pass
 * reproduced it fingerprint for fingerprint).
 */
void
perLayerMetrics(const std::vector<Pass> &untraced,
                const std::vector<Pass> &traced, double trace_seconds,
                std::uint64_t trace_instrs, Metrics &m)
{
    const Pass &first = traced.front();
    m.add("session.build_s",
          medianOver(traced, [](const Pass &p) { return p.buildSeconds; }),
          "s");
    m.add("session.warmup_s",
          medianOver(traced, [](const Pass &p) { return p.warmupSeconds; }),
          "s");
    m.add("session.measure_s",
          medianOver(traced,
                     [](const Pass &p) { return p.measureSeconds; }),
          "s");
    m.add("session.collect_s",
          medianOver(traced,
                     [](const Pass &p) { return p.collectSeconds; }),
          "s");

    // The stage profile covers the windows each System ran (a restored
    // point ran only its measurement); its base is their budget.
    std::uint64_t profiled = 0, ticked = 0, skipped = 0;
    for (const PointRecord &r : first.points) {
        const sweep::GridPoint &pt = r.point;
        profiled += static_cast<std::uint64_t>(pt.config.numCores) *
                    ((r.warmed ? pt.budget.warmupInstrs : 0) +
                     pt.budget.simInstrs);
        ticked += r.stats.profile.tickedCycles;
        skipped += r.stats.profile.skippedCycles;
    }
    m.add("horizon.skip_ratio",
          ratio(static_cast<double>(skipped),
                static_cast<double>(ticked + skipped)),
          "ratio");
    m.count("horizon.cycles", ticked + skipped);
    using Stage = double HostProfile::*;
    static const std::pair<const char *, Stage> stages[] = {
        {"horizon", &HostProfile::horizonSeconds},
        {"core", &HostProfile::coreSeconds},
        {"l1", &HostProfile::l1Seconds},
        {"l2", &HostProfile::l2Seconds},
        {"llc", &HostProfile::llcSeconds},
        {"dram", &HostProfile::dramSeconds},
    };
    auto stage_sum = [](const Pass &p, Stage f) {
        double s = 0;
        for (const PointRecord &r : p.points)
            s += r.stats.profile.*f;
        return s;
    };
    for (const auto &stage : stages)
        m.add(std::string("stage.") + stage.first + "_ns_per_instr",
              ratio(medianOver(traced,
                               [&](const Pass &p) {
                                   return stage_sum(p, stage.second);
                               }) *
                        1e9,
                    static_cast<double>(profiled)),
              "ns/instr");
    m.count("profile.instrs", profiled);
    m.add("trace.ns_per_instr",
          ratio(trace_seconds * 1e9, static_cast<double>(trace_instrs)),
          "ns/instr");
    m.count("trace.instrs", trace_instrs);

    m.add("sweep.cold_s", medianOver(traced, [](const Pass &p) {
              return p.sweep.coldSeconds;
          }),
          "s");
    m.add("sweep.warm_s", medianOver(traced, [](const Pass &p) {
              return p.sweep.warmSeconds;
          }),
          "s");
    m.add("sweep.worker_busy", medianOver(traced, [](const Pass &p) {
              return ratio(p.sweep.busySeconds,
                           kSweepThreads * p.sweep.coldSeconds);
          }),
          "ratio");
    m.count("sweep.simulated", first.sweep.simulated);
    m.count("sweep.cached", first.sweep.cached);
    m.add("store.snapshot_s", medianOver(traced, [](const Pass &p) {
              return p.sweep.snapshotSeconds;
          }),
          "s");
    m.add("store.restore_s", first.sweep.restoreSeconds, "s");
    m.add("sweep.journal_s", first.sweep.journalSeconds, "s");
    m.add("store.publish_s", first.sweep.publishSeconds, "s");
    m.add("store.checkpoint_bytes",
          static_cast<double>(first.sweep.checkpointBytes), "bytes");
    m.count("store.warmup_hits", first.sweep.warmupHits);
    m.count("store.result_hits", first.sweep.resultHits);
    m.count("store.result_stores", first.sweep.resultStores);
    m.count("store.rejected", first.sweep.rejected);

    machineMetrics(first, m);

    m.add("profile.stage_share", medianOver(traced, [&](const Pass &p) {
              double s = 0, host = 0;
              for (const auto &stage : stages)
                  s += stage_sum(p, stage.second);
              for (const PointRecord &r : p.points)
                  host += r.stats.hostPerf.seconds;
              return ratio(s, host);
          }),
          "ratio");
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size(); ++i)
        overhead.push_back(ratio(traced[i].measureSeconds,
                                 untraced[i].measureSeconds));
    m.add("profile.overhead", median(overhead), "ratio");
}

// ---------------------------------------------------------------------

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "single_core|eight_core|sweep_stores --seed N "
                 "--seconds S --trace 0|1 [--golden FILE] [--tiny]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (k == "--workload") {
                a.workload = v;
            } else if (k == "--seed") {
                if (v.empty() || v[0] == '-')
                    usage("--seed must be a non-negative integer");
                a.seed = std::stoull(v, &used);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v, &used);
            } else if (k == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace must be 0 or 1");
                a.trace = v == "1";
                used = 1;
            } else if (k == "--golden") {
                a.golden = v;
            } else {
                usage("unknown flag " + k);
            }
            if (used != 0 && used != v.size())
                usage("bad value for " + k);
        } catch (const std::logic_error &) {
            usage("bad value for " + k);
        }
    }
    if (a.workload != "single_core" && a.workload != "eight_core" &&
        a.workload != "sweep_stores")
        usage("unknown or missing --workload");
    return a;
}

/**
 * The library reads HERMES_NO_EVENT_SKIP and HERMES_PROFILE at System
 * construction, HERMES_SIM_SCALE in SimBudget::fromEnv and POPET_DEBUG
 * once per process: an inherited value would silently measure another
 * loop. Clear them all, and the store variables, before anything runs.
 */
void
clearInheritedEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("HERMES_", 0) == 0 || kv.rfind("POPET_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names) {
        std::fprintf(stderr, "perfbench: clearing inherited %s\n",
                     n.c_str());
        unsetenv(n.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    clearInheritedEnvironment();
    const Budgets b = budgets(args.tiny);

    // Process-level lazy state, touched before any timing.
    (void)fullSuite();
    (void)StatRegistry::instance();
    (void)ParamRegistry::instance();
    (void)ModelRegistry::instance();

    // The reference kernel, allocated before anything else and resident
    // from then on, so that its bytes come out of peak_rss_mb exactly.
    std::optional<HostReference> reference;
    double reference_mb = 0;
    if (!args.trace) {
        const double before = statusMb("VmRSS:");
        reference.emplace();
        reference_mb = statusMb("VmRSS:") - before;
    }

    Check check;
    knownAnswer(args.golden, check);

    // Inputs and temp directories: made here, outside every timing.
    const std::string tmp = kWorkDir + "/tmp/" + args.workload + "." +
                            std::to_string(getpid());
    std::vector<sweep::GridPoint> scenarios;
    SweepInputs inputs;
    if (args.workload == "single_core") {
        scenarios = singleCoreScenarios(args.seed, b.singleCore);
    } else if (args.workload == "eight_core") {
        scenarios = eightCoreScenarios(args.seed, b.eightCore);
    } else {
        fs::remove_all(tmp);
        fs::create_directories(tmp);
        inputs = writeSweepInputs(tmp, args.seed, b.sweep);
    }

    int pass_no = 0;
    auto run_pass = [&](SpanLog *spans, Check *check_restore) {
        if (!scenarios.empty())
            return runSessions(scenarios, spans);
        const std::string dir = tmp + "/pass" + std::to_string(++pass_no);
        fs::create_directories(dir);
        Pass p = runSweepStores(inputs, dir, spans, check_restore);
        fs::remove_all(dir);
        return p;
    };

    Metrics metrics;
    const auto t_run = Clock::now();
    if (!args.trace) {
        double peak_mb = 0;
        std::vector<Pass> passes;
        while (passes.empty() || secondsSince(t_run) < args.seconds) {
            const double reference_ns = reference->sample();
            passes.push_back(run_pass(nullptr, nullptr));
            passes.back().referenceNs = reference_ns;
            // The peak of one pass: later passes add a little heap
            // growth, more the more passes the host's speed allows.
            if (passes.size() == 1)
                peak_mb = statusMb("VmHWM:") - reference_mb;
            const Pass &p = passes.back();
            account(check, p, passes.size() > 1 ? &passes.front() : nullptr,
                    "the first pass");
            std::fprintf(stderr,
                         "pass %zu: wall %.4f s, setup %.4f s, "
                         "measure %.4f s, reference %.1f ns/access\n",
                         passes.size(), p.wall, p.setup, p.mipsSeconds,
                         p.referenceNs);
        }
        endToEndMetrics(passes, peak_mb, metrics);
    } else {
        SpanLog spans;
        std::vector<Pass> untraced, traced;
        while (traced.empty() || secondsSince(t_run) < args.seconds) {
            untraced.push_back(run_pass(nullptr, nullptr));
            account(check, untraced.back(),
                    untraced.size() > 1 ? &untraced.front() : nullptr,
                    "the first pass");
            setenv("HERMES_PROFILE", "1", 1);
            traced.push_back(
                run_pass(&spans, traced.empty() ? &check : nullptr));
            unsetenv("HERMES_PROFILE");
            account(check, traced.back(), &untraced.back(),
                    "the untraced pass");
        }
        double trace_seconds = 0;
        std::uint64_t trace_instrs = 0;
        traceProbe(traced.front(), spans, trace_seconds, trace_instrs);
        perLayerMetrics(untraced, traced, trace_seconds, trace_instrs,
                        metrics);
        const std::string dir = kWorkDir + "/spans";
        fs::create_directories(dir);
        const std::string path = dir + "/" + args.workload + ".seed" +
                                 std::to_string(args.seed) + ".json";
        if (spans.write(path))
            std::fprintf(stderr, "spans: %s\n", path.c_str());
        else
            std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
    fs::remove_all(tmp);

    std::fprintf(stderr, "%s, seed %lu, %s:\n", args.workload.c_str(),
                 static_cast<unsigned long>(args.seed),
                 args.trace ? "traced" : "untraced");
    metrics.print(stderr);
    std::printf("{\"correct\": %s, \"attempted\": %lu, \"failed\": %lu, "
                "\"metrics\": %s}\n",
                check.failed() == 0 ? "true" : "false",
                static_cast<unsigned long>(check.attempted()),
                static_cast<unsigned long>(check.failed()),
                metrics.json().c_str());
    return 0;
}
