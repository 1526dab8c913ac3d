#include "sim/stat_registry.hh"

#include <algorithm>
#include <cctype>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/config.hh"
#include "sim/power.hh"
#include "sim/report.hh"

namespace hermes
{

namespace
{

// The codec plan linearizes every field of these structs. If you add a
// field, register it (one StatDef row) — these asserts catch the
// struct growing before the registry does, and the runtime count
// checks in the constructor catch a row going missing. (All-u64
// structs have no padding, so sizeof is an exact field count.)
static_assert(sizeof(CoreStats) == 14 * sizeof(std::uint64_t),
              "CoreStats changed: register the new field");
static_assert(sizeof(CacheStats) == 18 * sizeof(std::uint64_t),
              "CacheStats changed: register the new field");
static_assert(sizeof(DramStats) == 14 * sizeof(std::uint64_t),
              "DramStats changed: register the new field");
static_assert(sizeof(PredictorStats) == 4 * sizeof(std::uint64_t),
              "PredictorStats changed: register the new field");
static_assert(sizeof(BranchStats) == 2 * sizeof(std::uint64_t),
              "BranchStats changed: register the new field");
static_assert(sizeof(HostPerf) == sizeof(double) + sizeof(std::uint64_t),
              "HostPerf changed: update the journal record codec");

/** Classic '*'/'?' glob over a whole key. */
bool
globMatch(const char *pat, const char *s)
{
    for (; *pat != '\0'; ++pat, ++s) {
        if (*pat == '*') {
            while (*(pat + 1) == '*')
                ++pat;
            for (const char *t = s;; ++t) {
                if (globMatch(pat + 1, t))
                    return true;
                if (*t == '\0')
                    return false;
            }
        }
        if (*s == '\0' || (*pat != '?' && *pat != *s))
            return false;
    }
    return *s == '\0';
}

/** The numeric renderings every CSV/JSON row always used. */
std::string
renderU64(std::uint64_t v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

std::string
renderF64(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

/** Counter @p f of @p x, or @p x itself when @p f is nullptr (@p x is
 * then a plain counter, not a stats struct). */
template <class X, class F>
auto &
counterOf(X &x, F f)
{
    if constexpr (std::is_null_pointer_v<F>)
        return x;
    else
        return x.*f;
}

std::string
underscored(const std::string &key)
{
    std::string out = key;
    for (char &c : out)
        if (c == '.')
            c = '_';
    return out;
}

} // namespace

const char *
StatDef::typeName() const
{
    switch (type) {
      case StatType::U64:
        return "u64";
      case StatType::F64:
        return "f64";
    }
    return "?";
}

const char *
StatDef::aggName() const
{
    switch (agg) {
      case StatAgg::Total:
        return "total";
      case StatAgg::PerCore:
        return "per-core";
      case StatAgg::Derived:
        return "derived";
      case StatAgg::Config:
        return "config";
      case StatAgg::Host:
        return "host";
    }
    return "?";
}

const StatRegistry &
StatRegistry::instance()
{
    // Intentionally immortal (never destroyed): the bench harness
    // renders its --csv/--json dumps from an atexit handler that can
    // be registered before the registry's first use, so a guarded
    // static would be destroyed first and leave the handler reading
    // freed memory.
    static const StatRegistry *registry = new StatRegistry();
    return *registry;
}

StatRegistry::StatRegistry()
{
    // Tag of the codec container each def belongs to ("" = derived or
    // record-level, not part of the stats codec); parallel to defs_.
    std::vector<std::string> tags;

    auto add = [&](StatDef d, const char *tag) {
        if (index_.count(d.key) != 0)
            throw std::logic_error("duplicate stat key " + d.key);
        index_[d.key] = defs_.size();
        defs_.push_back(std::move(d));
        tags.push_back(tag);
    };

    // One whole-run counter: RunStats member @p m, or counter @p f of
    // the RunStats struct @p m (a cache level, the DRAM). Configuration
    // echoes stay out of the fingerprint, which keeps the pinned goldens
    // stable.
    auto field = [&](std::string key, auto m, auto f, const char *doc,
                     const char *tag, StatAgg agg = StatAgg::Total) {
        StatDef d;
        d.key = std::move(key);
        d.type = StatType::U64;
        d.agg = agg;
        d.inFingerprint = agg != StatAgg::Config;
        d.doc = doc;
        d.getU64 = [m, f](const RunStats &s) -> std::uint64_t {
            return counterOf(s.*m, f);
        };
        d.setU64 = [m, f](RunStats &s, std::uint64_t v) {
            counterOf(s.*m, f) = v;
        };
        add(std::move(d), tag);
    };

    // One per-core counter: counter @p f of each element of the RunStats
    // vector @p v (nullptr for a vector of counters). The bare key sums
    // across cores.
    auto perCore = [&](const char *key, auto v, auto f, const char *doc,
                       const char *tag) {
        StatDef d;
        d.key = key;
        d.type = StatType::U64;
        d.agg = StatAgg::PerCore;
        d.inFingerprint = true;
        d.doc = doc;
        d.getU64 = [v, f](const RunStats &s) {
            std::uint64_t t = 0;
            for (const auto &e : s.*v)
                t += counterOf(e, f);
            return t;
        };
        d.getAtU64 = [v, f](const RunStats &s,
                            std::size_t i) -> std::uint64_t {
            return i < (s.*v).size() ? counterOf((s.*v)[i], f) : 0;
        };
        d.setAtU64 = [v, f](RunStats &s, std::size_t i, std::uint64_t x) {
            counterOf((s.*v)[i], f) = x;
        };
        add(std::move(d), tag);
    };

    auto derivedF64 = [&](const char *key, const char *doc,
                          std::function<double(const RunStats &)> get,
                          std::function<double(const RunStats &,
                                               std::size_t)>
                              getAt = nullptr) {
        StatDef d;
        d.key = key;
        d.type = StatType::F64;
        d.agg = StatAgg::Derived;
        d.doc = doc;
        d.getF64 = std::move(get);
        d.getAtF64 = std::move(getAt);
        add(std::move(d), "");
    };

    auto hostF64 = [&](const char *key, const char *doc,
                       std::function<double(const RunStats &)> get) {
        StatDef d;
        d.key = key;
        d.type = StatType::F64;
        d.agg = StatAgg::Host;
        d.doc = doc;
        d.getF64 = std::move(get);
        add(std::move(d), "");
    };

    // --- simulation window ----------------------------------------
    field("cycles", &RunStats::simCycles, nullptr,
          "simulated cycles in the measurement window", "cycles");

    // --- per-core retirement and stalls ---------------------------
    perCore("core.cycles", &RunStats::core, &CoreStats::cycles,
            "cycles this core was simulated", "core");
    perCore("core.instrs", &RunStats::core, &CoreStats::instrsRetired,
            "instructions retired (measurement window)", "core");
    perCore("core.loads", &RunStats::core, &CoreStats::loadsRetired,
            "load instructions retired", "core");
    perCore("core.stores", &RunStats::core, &CoreStats::storesRetired,
            "store instructions retired", "core");
    perCore("core.branches", &RunStats::core,
            &CoreStats::branchesRetired, "branch instructions retired",
            "core");
    perCore("core.branch_mispredicts", &RunStats::core,
            &CoreStats::branchMispredicts,
            "branches mispredicted at retirement", "core");
    perCore("core.loads_offchip", &RunStats::core,
            &CoreStats::loadsOffChip, "retired loads served by DRAM",
            "core");
    perCore("core.offchip_blocking", &RunStats::core,
            &CoreStats::offChipBlocking,
            "off-chip loads that blocked retirement", "core");
    perCore("core.offchip_nonblocking", &RunStats::core,
            &CoreStats::offChipNonBlocking,
            "off-chip loads retired without blocking", "core");
    perCore("core.loads_hermes", &RunStats::core,
            &CoreStats::loadsServedByHermes,
            "retired loads whose data came from a Hermes request", "core");
    perCore("core.stall_offchip", &RunStats::core,
            &CoreStats::stallCyclesOffChip,
            "ROB-head stall cycles under an off-chip load (Fig. 3)",
            "core");
    perCore("core.stall_other_load", &RunStats::core,
            &CoreStats::stallCyclesOtherLoad,
            "ROB-head stall cycles under an on-chip load", "core");
    perCore("core.stall_other", &RunStats::core,
            &CoreStats::stallCyclesOther,
            "ROB-head stall cycles with no load at the head", "core");
    perCore("core.stall_eliminable", &RunStats::core,
            &CoreStats::stallCyclesEliminable,
            "off-chip stall cycles removable by skipping the cache "
            "hierarchy (Fig. 3 dark bars)",
            "core");
    derivedF64(
        "core.ipc",
        "instructions per cycle (aggregate; core.N.ipc per core)",
        [](const RunStats &s) {
            return s.simCycles
                       ? static_cast<double>(s.instrsRetired()) /
                             static_cast<double>(s.simCycles)
                       : 0.0;
        },
        [](const RunStats &s, std::size_t i) {
            return s.ipc(static_cast<int>(i));
        });

    // --- branch predictor -----------------------------------------
    perCore("branch.lookups", &RunStats::branch, &BranchStats::lookups,
            "branch predictor lookups", "branch");
    perCore("branch.mispredicts", &RunStats::branch,
            &BranchStats::mispredicts, "branch predictor mispredictions",
            "branch");
    derivedF64(
        "branch.mpki", "branch mispredictions per kilo-instruction",
        [](const RunStats &s) {
            std::uint64_t m = 0;
            for (const BranchStats &b : s.branch)
                m += b.mispredicts;
            const std::uint64_t instrs = s.instrsRetired();
            return instrs ? 1000.0 * static_cast<double>(m) /
                                static_cast<double>(instrs)
                          : 0.0;
        },
        [](const RunStats &s, std::size_t i) {
            if (i >= s.branch.size() || i >= s.core.size())
                return 0.0;
            return s.branch[i].mpki(s.core[i].instrsRetired);
        });

    // --- off-chip load predictor (Eq. 3/4, Fig. 9) ----------------
    perCore("pred.tp", &RunStats::predictor,
            &PredictorStats::truePositives,
            "loads predicted off-chip that went off-chip", "pred");
    perCore("pred.fp", &RunStats::predictor,
            &PredictorStats::falsePositives,
            "loads predicted off-chip that stayed on-chip", "pred");
    perCore("pred.fn", &RunStats::predictor,
            &PredictorStats::falseNegatives,
            "off-chip loads predicted on-chip", "pred");
    perCore("pred.tn", &RunStats::predictor,
            &PredictorStats::trueNegatives,
            "on-chip loads predicted on-chip", "pred");
    derivedF64(
        "pred.accuracy",
        "fraction of off-chip predictions that were right (Eq. 3)",
        [](const RunStats &s) { return s.predTotal().accuracy(); },
        [](const RunStats &s, std::size_t i) {
            return i < s.predictor.size() ? s.predictor[i].accuracy()
                                          : 0.0;
        });
    derivedF64(
        "pred.coverage",
        "fraction of off-chip loads that were predicted (Eq. 4)",
        [](const RunStats &s) { return s.predTotal().coverage(); },
        [](const RunStats &s, std::size_t i) {
            return i < s.predictor.size() ? s.predictor[i].coverage()
                                          : 0.0;
        });

    // --- per-core completion --------------------------------------
    perCore("core.finish_cycle", &RunStats::coreFinishCycle, nullptr,
            "cycle this core reached its instruction quota", "finish");

    // --- cache hierarchy ------------------------------------------
    struct CacheRow
    {
        std::uint64_t CacheStats::*f;
        const char *name;
        const char *doc;
    };
    const CacheRow kCacheRows[] = {
        {&CacheStats::loadLookups, "load_lookups", "demand load lookups"},
        {&CacheStats::loadHits, "load_hits", "demand load hits"},
        {&CacheStats::rfoLookups, "rfo_lookups", "store (RFO) lookups"},
        {&CacheStats::rfoHits, "rfo_hits", "store (RFO) hits"},
        {&CacheStats::writebackLookups, "wb_lookups", "writeback lookups"},
        {&CacheStats::writebackHits, "wb_hits", "writeback hits"},
        {&CacheStats::prefetchLookups, "pf_lookups",
         "own-prefetch candidates probed"},
        {&CacheStats::prefetchDropped, "pf_dropped",
         "prefetch candidates already present"},
        {&CacheStats::prefetchIssued, "pf_issued",
         "prefetches forwarded to the lower level"},
        {&CacheStats::mshrMerges, "mshr_merges",
         "requests merged into an in-flight MSHR"},
        {&CacheStats::mshrLatePrefetchHits, "mshr_late_pf",
         "demand merged into a prefetch MSHR (late prefetch)"},
        {&CacheStats::fills, "fills", "lines filled"},
        {&CacheStats::prefetchFills, "pf_fills", "lines filled by prefetch"},
        {&CacheStats::evictions, "evictions", "lines evicted"},
        {&CacheStats::dirtyEvictions, "dirty_evictions",
         "dirty lines written back"},
        {&CacheStats::usefulPrefetches, "pf_useful",
         "prefetched lines later hit by demand"},
        {&CacheStats::uselessPrefetches, "pf_useless",
         "prefetched lines evicted untouched"},
        {&CacheStats::rqRejects, "rq_rejects",
         "requests rejected by a full read queue"},
    };
    auto cacheLevel = [&](const std::string &level,
                          CacheStats RunStats::*c) {
        for (const CacheRow &r : kCacheRows)
            field(level + "." + r.name, c, r.f, r.doc, level.c_str());
        derivedF64(
            (level + ".hit_rate").c_str(),
            "demand hit rate (hits / lookups)",
            [c](const RunStats &s) {
                const CacheStats &cs = s.*c;
                return cs.demandLookups()
                           ? static_cast<double>(cs.demandHits()) /
                                 static_cast<double>(cs.demandLookups())
                           : 0.0;
            });
    };
    cacheLevel("l1", &RunStats::l1);
    cacheLevel("l2", &RunStats::l2);
    cacheLevel("llc", &RunStats::llc);
    derivedF64("llc.mpki",
               "LLC demand misses per kilo-instruction (Fig. 5)",
               [](const RunStats &s) { return s.llcMpki(); });

    // --- DRAM ------------------------------------------------------
    field("dram.demand_reads", &RunStats::dram, &DramStats::demandReads,
          "demand (load/RFO) reads serviced", "dram");
    field("dram.prefetch_reads", &RunStats::dram, &DramStats::prefetchReads,
          "prefetch reads serviced", "dram");
    field("dram.hermes_reads", &RunStats::dram, &DramStats::hermesReads,
          "Hermes-initiated reads serviced", "dram");
    field("dram.writes", &RunStats::dram, &DramStats::writes,
          "writebacks serviced", "dram");
    field("dram.row_hits", &RunStats::dram, &DramStats::rowHits,
          "row-buffer hits", "dram");
    field("dram.row_misses", &RunStats::dram, &DramStats::rowMisses,
          "closed-row activations", "dram");
    field("dram.row_conflicts", &RunStats::dram, &DramStats::rowConflicts,
          "row-buffer conflicts", "dram");
    field("dram.read_merges", &RunStats::dram, &DramStats::readMerges,
          "reads merged into in-flight reads", "dram");
    field("dram.wq_forwards", &RunStats::dram, &DramStats::wqForwards,
          "reads serviced from the write queue", "dram");
    {
        StatDef d;
        d.key = "dram.reads";
        d.type = StatType::U64;
        d.agg = StatAgg::Derived;
        d.doc = "total reads serviced (demand + prefetch + hermes; "
                "Fig. 15b)";
        d.getU64 = [](const RunStats &s) { return s.dram.totalReads(); };
        add(std::move(d), "");
    }
    derivedF64("dram.bw_util",
               "fraction of DRAM data-bus capacity used (Fig. 17a)",
               [](const RunStats &s) { return s.dramBwUtil(); });

    // --- Hermes ----------------------------------------------------
    field("hermes.issued", &RunStats::dram, &DramStats::hermesIssued,
          "Hermes requests enqueued at the controller", "hermes");
    field("hermes.merged", &RunStats::dram,
          &DramStats::hermesMergedIntoExisting,
          "Hermes requests merged into an in-flight read", "hermes");
    field("hermes.dropped", &RunStats::dram, &DramStats::hermesDropped,
          "Hermes reads completed with no waiting load", "hermes");
    field("hermes.useful", &RunStats::dram, &DramStats::hermesUseful,
          "Hermes reads completed with a waiting load", "hermes");
    field("hermes.rejected", &RunStats::dram, &DramStats::hermesRejected,
          "Hermes requests rejected by a full read queue", "hermes");

    // --- prefetcher ------------------------------------------------
    // The LLC prefetcher's events are the LLC's prefetch counters; the
    // pf.* keys bind to them in place, so the journal's "pf" section
    // and the fingerprint keep their layout.
    field("pf.issued", &RunStats::llc, &CacheStats::prefetchIssued,
          "prefetch lines handed to the cache", "pf");
    field("pf.useful", &RunStats::llc, &CacheStats::usefulPrefetches,
          "prefetched lines later hit by demand", "pf");
    field("pf.useless", &RunStats::llc, &CacheStats::uselessPrefetches,
          "prefetched lines evicted untouched", "pf");

    // --- Hermes scheduling (core side) -----------------------------
    field("hermes.scheduled", &RunStats::hermesRequestsScheduled, nullptr,
          "Hermes requests scheduled by the predictors", "hsched");
    field("hermes.served", &RunStats::hermesLoadsServed, nullptr,
          "retired loads served by a Hermes request", "hserved");
    derivedF64("hermes.issue_rate",
               "fraction of scheduled Hermes requests issued to DRAM",
               [](const RunStats &s) {
                   return s.hermesRequestsScheduled
                              ? static_cast<double>(
                                    s.dram.hermesIssued) /
                                    static_cast<double>(
                                        s.hermesRequestsScheduled)
                              : 0.0;
               });
    derivedF64("hermes.served_rate",
               "fraction of off-chip loads served by Hermes",
               [](const RunStats &s) {
                   std::uint64_t offchip = 0;
                   for (const CoreStats &c : s.core)
                       offchip += c.loadsOffChip;
                   return offchip ? static_cast<double>(
                                        s.hermesLoadsServed) /
                                        static_cast<double>(offchip)
                                  : 0.0;
               });

    // --- configuration echoes -------------------------------------
    field("dram.channels", &RunStats::dramChannels, nullptr,
          "DRAM channels (configuration echo for dram.bw_util)", "cfg",
          StatAgg::Config);
    field("dram.bus_cycles_per_line", &RunStats::dramBusCyclesPerLine,
          nullptr, "core cycles one 64B line occupies a channel data bus",
          "cfg", StatAgg::Config);

    // --- dynamic power (sim/power.hh model) -----------------------
    derivedF64("power.mw", "dynamic power, total (mW; Fig. 18)",
               [](const RunStats &s) { return computePower(s).total(); });
    derivedF64("power.l1", "dynamic power, L1D slice (mW)",
               [](const RunStats &s) { return computePower(s).l1; });
    derivedF64("power.l2", "dynamic power, L2 slice (mW)",
               [](const RunStats &s) { return computePower(s).l2; });
    derivedF64("power.llc", "dynamic power, LLC slice (mW)",
               [](const RunStats &s) { return computePower(s).llc; });
    derivedF64("power.bus", "dynamic power, bus + DRAM slice (mW)",
               [](const RunStats &s) { return computePower(s).bus; });
    derivedF64("power.other",
               "dynamic power, predictors/prefetcher/branch slice (mW)",
               [](const RunStats &s) { return computePower(s).other; });

    // --- host-side throughput (non-deterministic) -----------------
    hostF64("host.mips",
            "simulated MIPS of the simulator itself (host-side)",
            [](const RunStats &s) { return s.hostPerf.mips(); });
    hostF64("host.seconds",
            "host wall-clock seconds spent warming up and measuring",
            [](const RunStats &s) { return s.hostPerf.seconds; });

    // --- the codec / fingerprint plan ------------------------------
    // Mirrors the legacy hand-rolled journal layout and fingerprint
    // order exactly; the golden determinism tests pin the result.
    auto defsTagged = [&](const char *tag) {
        std::vector<const StatDef *> out;
        for (std::size_t i = 0; i < defs_.size(); ++i)
            if (tags[i] == tag)
                out.push_back(&defs_[i]);
        return out;
    };
    auto planScalar = [&](const char *tag) {
        StatCodecItem it;
        it.kind = StatCodecItem::Kind::Scalar;
        it.name = tag;
        it.defs = defsTagged(tag);
        plan_.push_back(std::move(it));
    };
    auto planGroup =
        [&](const char *tag, bool hash_count,
            std::function<std::size_t(const RunStats &)> count,
            std::function<void(RunStats &, std::size_t)> resize) {
            StatCodecItem it;
            it.kind = StatCodecItem::Kind::Group;
            it.name = tag;
            it.hashCount = hash_count;
            it.defs = defsTagged(tag);
            it.count = std::move(count);
            it.resize = std::move(resize);
            plan_.push_back(std::move(it));
        };
    auto planSection = [&](const char *tag) {
        StatCodecItem it;
        it.kind = StatCodecItem::Kind::Section;
        it.name = tag;
        it.defs = defsTagged(tag);
        plan_.push_back(std::move(it));
    };

    planScalar("cycles");
    planGroup(
        "core", /*hash_count=*/true,
        [](const RunStats &s) { return s.core.size(); },
        [](RunStats &s, std::size_t n) { s.core.resize(n); });
    planGroup(
        "branch", false,
        [](const RunStats &s) { return s.branch.size(); },
        [](RunStats &s, std::size_t n) { s.branch.resize(n); });
    planGroup(
        "pred", false,
        [](const RunStats &s) { return s.predictor.size(); },
        [](RunStats &s, std::size_t n) { s.predictor.resize(n); });
    planGroup(
        "finish", false,
        [](const RunStats &s) { return s.coreFinishCycle.size(); },
        [](RunStats &s, std::size_t n) { s.coreFinishCycle.resize(n); });
    planSection("l1");
    planSection("l2");
    planSection("llc");
    planSection("dram");
    planSection("hermes");
    planSection("pf");
    planScalar("hsched");
    planScalar("hserved");
    planSection("cfg");

    // Every struct field must be covered exactly once; sizes are
    // checked against the static_asserts' field counts so a field
    // registered twice or dropped fails the whole test suite at once.
    auto expectPlan = [&](const char *tag, std::size_t want) {
        for (const StatCodecItem &it : plan_)
            if (it.name == tag) {
                if (it.defs.size() != want)
                    throw std::logic_error(
                        std::string("stat registry: codec container '") +
                        tag + "' holds " +
                        std::to_string(it.defs.size()) +
                        " stats, expected " + std::to_string(want));
                return;
            }
        throw std::logic_error(
            std::string("stat registry: no codec container '") + tag +
            "'");
    };
    expectPlan("cycles", 1);
    expectPlan("core", sizeof(CoreStats) / sizeof(std::uint64_t));
    expectPlan("branch", sizeof(BranchStats) / sizeof(std::uint64_t));
    expectPlan("pred", sizeof(PredictorStats) / sizeof(std::uint64_t));
    expectPlan("finish", 1);
    expectPlan("l1", sizeof(CacheStats) / sizeof(std::uint64_t));
    expectPlan("l2", sizeof(CacheStats) / sizeof(std::uint64_t));
    expectPlan("llc", sizeof(CacheStats) / sizeof(std::uint64_t));
    // DramStats splits across the "dram" and "hermes" containers.
    expectPlan("dram", 9);
    expectPlan("hermes", sizeof(DramStats) / sizeof(std::uint64_t) - 9);
    expectPlan("pf", 3);
    expectPlan("hsched", 1);
    expectPlan("hserved", 1);
    expectPlan("cfg", 2);
}

const StatDef *
StatRegistry::find(const std::string &key) const
{
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &defs_[it->second];
}

const StatDef &
StatRegistry::findOrThrow(const std::string &key) const
{
    const StatDef *d = find(key);
    if (d == nullptr) {
        std::string msg = "unknown statistic '" + key + "'";
        const std::string near = nearestKey(key);
        if (!near.empty())
            msg += "; did you mean '" + near + "'?";
        throw std::invalid_argument(msg);
    }
    return *d;
}

std::string
StatRegistry::nearestKey(const std::string &key) const
{
    std::string best;
    std::size_t best_dist = ~std::size_t{0};
    for (const StatDef &d : defs_) {
        const std::size_t dist = editDistance(key, d.key);
        if (dist < best_dist) {
            best_dist = dist;
            best = d.key;
        }
    }
    return best;
}

std::string
StatRegistry::describe() const
{
    std::size_t key_w = 0, type_w = 0, agg_w = 0;
    for (const StatDef &d : defs_) {
        key_w = std::max(key_w, d.key.size());
        type_w = std::max(type_w, std::string(d.typeName()).size());
        agg_w = std::max(agg_w, std::string(d.aggName()).size());
    }
    std::ostringstream os;
    for (const StatDef &d : defs_) {
        os << d.key << std::string(key_w - d.key.size() + 2, ' ');
        const std::string type = d.typeName();
        os << type << std::string(type_w - type.size() + 2, ' ');
        const std::string agg = d.aggName();
        os << agg << std::string(agg_w - agg.size() + 2, ' ');
        os << (d.inFingerprint ? "fp" : "- ") << "  ";
        os << d.doc << "\n";
    }
    return os.str();
}

namespace
{

/** Resolve one non-glob spec item (plain or "group.N.rest" indexed). */
StatColumn
resolveOne(const std::string &item)
{
    const StatRegistry &reg = StatRegistry::instance();
    StatColumn col;
    col.name = underscored(item);
    if (const StatDef *d = reg.find(item)) {
        col.def = d;
        return col;
    }

    // "core.0.ipc": an index inserted after the first segment selects
    // one core of a per-core statistic.
    const std::size_t dot1 = item.find('.');
    const std::size_t dot2 =
        dot1 == std::string::npos ? std::string::npos
                                  : item.find('.', dot1 + 1);
    if (dot2 != std::string::npos && dot2 > dot1 + 1) {
        const std::string idx = item.substr(dot1 + 1, dot2 - dot1 - 1);
        bool digits = true;
        for (const char c : idx)
            digits =
                digits && std::isdigit(static_cast<unsigned char>(c));
        if (digits) {
            const std::string base =
                item.substr(0, dot1) + item.substr(dot2);
            const StatDef &d = reg.findOrThrow(base);
            if (!d.perCore())
                throw std::invalid_argument(
                    "'" + base + "' is not a per-core statistic ('" +
                    item + "')");
            // Strict parse: an absurd index must fail like any other
            // bad spec, not escape as a different exception type.
            const auto parsed = parseInt64(idx);
            if (!parsed || *parsed < 0 ||
                *parsed > std::numeric_limits<int>::max())
                throw std::invalid_argument("bad core index in '" +
                                            item + "'");
            col.def = &d;
            col.coreIndex = static_cast<int>(*parsed);
            return col;
        }
    }
    reg.findOrThrow(item); // throws with a nearest-key suggestion
    return col;            // unreachable
}

} // namespace

std::vector<StatColumn>
defaultStatColumns(bool with_host_perf)
{
    // The pre-registry aggregate row: these (column, key) pairs pin
    // the legacy CSV/JSON column names, so dumps stay byte-identical.
    static const std::pair<const char *, const char *> kColumns[] = {
        {"cycles", "cycles"},
        {"instrs", "core.instrs"},
        {"ipc", "core.ipc"},
        {"llc_mpki", "llc.mpki"},
        {"loads", "core.loads"},
        {"offchip_loads", "core.loads_offchip"},
        {"pred_accuracy", "pred.accuracy"},
        {"pred_coverage", "pred.coverage"},
        {"dram_reads", "dram.reads"},
        {"dram_writes", "dram.writes"},
        {"hermes_issued", "hermes.issued"},
        {"hermes_useful", "hermes.useful"},
        {"hermes_dropped", "hermes.dropped"},
        {"pf_issued", "pf.issued"},
        {"pf_useful", "pf.useful"},
        {"power_mw", "power.mw"},
    };
    const StatRegistry &reg = StatRegistry::instance();
    std::vector<StatColumn> cols;
    for (const auto &[name, key] : kColumns)
        cols.push_back({name, &reg.findOrThrow(key), -1});
    if (with_host_perf)
        appendHostPerfColumns(cols);
    return cols;
}

std::vector<StatColumn>
allStatColumns(std::size_t cores)
{
    std::vector<StatColumn> cols;
    for (const StatDef &d : StatRegistry::instance().stats()) {
        cols.push_back({underscored(d.key), &d, -1});
        if (cores < 2 || !d.perCore())
            continue;
        for (std::size_t i = 0; i < cores; ++i) {
            StatColumn c{"", &d, static_cast<int>(i)};
            c.name = underscored(statColumnKey(c));
            cols.push_back(std::move(c));
        }
    }
    return cols;
}

std::vector<StatColumn>
selectStatColumns(const std::string &spec)
{
    const StatRegistry &reg = StatRegistry::instance();
    std::vector<StatColumn> cols;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        // Trim ASCII whitespace around each item.
        while (!item.empty() &&
               std::isspace(static_cast<unsigned char>(item.front())))
            item.erase(item.begin());
        while (!item.empty() &&
               std::isspace(static_cast<unsigned char>(item.back())))
            item.pop_back();
        if (item.empty())
            throw std::invalid_argument(
                "empty entry in stats column list '" + spec + "'");
        if (item.find('*') != std::string::npos ||
            item.find('?') != std::string::npos) {
            bool any = false;
            for (const StatDef &d : reg.stats()) {
                if (!globMatch(item.c_str(), d.key.c_str()))
                    continue;
                cols.push_back({underscored(d.key), &d, -1});
                any = true;
            }
            if (!any)
                throw std::invalid_argument(
                    "stats glob '" + item +
                    "' matches no registered key (see --list-stats)");
        } else {
            cols.push_back(resolveOne(item));
        }
    }
    if (cols.empty())
        throw std::invalid_argument("empty stats column list");
    return cols;
}

void
appendHostPerfColumns(std::vector<StatColumn> &columns)
{
    const StatRegistry &reg = StatRegistry::instance();
    for (const auto &[name, key] :
         {std::pair<const char *, const char *>{"sim_mips",
                                                "host.mips"},
          {"host_seconds", "host.seconds"}}) {
        const StatDef &d = reg.findOrThrow(key);
        bool present = false;
        for (const StatColumn &c : columns)
            present = present || c.def == &d;
        if (!present)
            columns.push_back({name, &d, -1});
    }
}

std::string
statColumnKey(const StatColumn &col)
{
    std::string key = col.def->key;
    if (col.coreIndex >= 0)
        key.insert(key.find('.'), "." + std::to_string(col.coreIndex));
    return key;
}

std::string
statColumnValue(const StatColumn &col, const RunStats &stats)
{
    const StatDef &d = *col.def;
    if (d.type == StatType::U64) {
        if (col.coreIndex >= 0)
            return renderU64(d.getAtU64(
                stats, static_cast<std::size_t>(col.coreIndex)));
        return renderU64(d.getU64(stats));
    }
    if (col.coreIndex >= 0)
        return renderF64(
            d.getAtF64
                ? d.getAtF64(stats,
                             static_cast<std::size_t>(col.coreIndex))
                : 0.0);
    return renderF64(d.getF64(stats));
}

std::uint64_t
statsFingerprint(const RunStats &stats)
{
    // Walk the codec plan in order, hashing every fingerprint-flagged
    // counter; the plan order reproduces the pre-registry hand-rolled
    // hash exactly, so the pinned goldens survive the refactor.
    Fnv64 h;
    for (const StatCodecItem &item :
         StatRegistry::instance().codecPlan()) {
        if (item.kind == StatCodecItem::Kind::Group) {
            const std::size_t n = item.count(stats);
            if (item.hashCount)
                h.add(static_cast<std::uint64_t>(n));
            for (std::size_t i = 0; i < n; ++i)
                for (const StatDef *d : item.defs)
                    if (d->inFingerprint)
                        h.add(d->getAtU64(stats, i));
            continue;
        }
        for (const StatDef *d : item.defs)
            if (d->inFingerprint)
                h.add(d->getU64(stats));
    }
    return h.value();
}

namespace
{

/**
 * Every raw counter of the codec plan set to op(@p a's value, @p b's
 * value), read and written through its registry binding; everything
 * else (configuration echoes, host-side fields) is @p a's. Per-core
 * groups keep @p a's length.
 */
template <class Op>
RunStats
combineCounters(const RunStats &a, const RunStats &b, Op op)
{
    RunStats out = a;
    for (const StatCodecItem &item :
         StatRegistry::instance().codecPlan()) {
        if (item.kind == StatCodecItem::Kind::Group) {
            for (std::size_t i = 0; i < item.count(a); ++i)
                for (const StatDef *d : item.defs)
                    d->setAtU64(out, i,
                                op(d->getAtU64(a, i), d->getAtU64(b, i)));
            continue;
        }
        for (const StatDef *d : item.defs)
            if (d->agg != StatAgg::Config)
                d->setU64(out, op(d->getU64(a), d->getU64(b)));
    }
    return out;
}

} // namespace

RunStats
windowStats(const RunStats &end, const RunStats &start)
{
    return combineCounters(end, start, std::minus<std::uint64_t>());
}

RunStats
sumStats(const RunStats &a, const RunStats &b)
{
    return combineCounters(a, b, std::plus<std::uint64_t>());
}

std::uint64_t
statU64(const RunStats &stats, const std::string &key)
{
    const StatDef &d = StatRegistry::instance().findOrThrow(key);
    if (!d.getU64)
        throw std::invalid_argument("statistic '" + key +
                                    "' is not an integer counter");
    return d.getU64(stats);
}

double
statF64(const RunStats &stats, const std::string &key)
{
    const StatDef &d = StatRegistry::instance().findOrThrow(key);
    if (d.getF64)
        return d.getF64(stats);
    if (d.getU64)
        return static_cast<double>(d.getU64(stats));
    throw std::invalid_argument("statistic '" + key +
                                "' has no aggregate value");
}

} // namespace hermes
