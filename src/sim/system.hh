#pragma once

/**
 * @file
 * Full-system assembly: N cores, each with a private L1D and L2, a
 * shared LLC (3MB/core slices modelled as one shared cache), a DDR4
 * memory controller, the configured LLC prefetcher, and per-core
 * off-chip predictors + Hermes controllers. Defaults reproduce Table 4.
 *
 * The LLC replacement policy, the prefetcher and the predictor are
 * built from the model registry by the names SystemConfig holds, each
 * tuned by its registered knobs (SystemConfig::modelKnobs); L1 and L2
 * always use LRU. SystemConfig itself holds no model's parameters.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/ooo_core.hh"
#include "dram/dram.hh"
#include "hermes/hermes.hh"
#include "sim/perf.hh"
#include "predictor/offchip_pred.hh"
#include "prefetch/prefetcher.hh"
#include "trace/workload.hh"

namespace hermes
{

class Config;

/** Complete system configuration (Table 4 defaults for one core). */
struct SystemConfig
{
    int numCores = 1;
    CoreParams core;

    // L1D: 48KB, 12-way, 5-cycle round trip.
    std::uint32_t l1Sets = 64;
    std::uint32_t l1Ways = 12;
    Cycle l1Latency = 5;
    std::uint32_t l1Mshrs = 16;

    // L2: 1.25MB, 20-way, 15-cycle round trip (10 incremental).
    std::uint32_t l2Sets = 1024;
    std::uint32_t l2Ways = 20;
    Cycle l2Latency = 10;
    std::uint32_t l2Mshrs = 48;

    // LLC: 3MB/core, 12-way, 55-cycle round trip (40 incremental),
    // SHiP replacement (Fig. 17d sweeps llcLatency; Fig. 20 the size).
    std::uint64_t llcBytesPerCore = 3ull << 20;
    std::uint32_t llcWays = 12;
    Cycle llcLatency = 40;
    std::uint32_t llcMshrsPerCore = 64;

    // The three model choices, each a model-registry name
    // (sim/model_registry.hh; `hermes_run --list-models`). The
    // "llc.repl", "prefetcher" and "predictor" parameters validate
    // against the registry; System resolves whatever is set here.
    std::string llcRepl = "ship";
    std::string prefetcher = PrefetcherKind::None;
    std::string predictor = PredictorKind::None;

    /** Issue Hermes requests (false = predictor-only measurement). */
    bool hermesIssueEnabled = false;
    /** Hermes-O: 6 cycles; Hermes-P: 18 cycles (Fig. 17c sweeps). */
    Cycle hermesIssueLatency = 6;
    /**
     * Issue Hermes requests during warmup too (the legacy behaviour).
     * Turning this off makes warmed state independent of the Hermes
     * issue path, so a sweep over issue-side parameters (e.g.
     * hermes.issue_latency) can share one warmup checkpoint across all
     * its points. The predictor still trains during warmup either way.
     * Issue switches on at the end of System::runWarmup, so when this
     * is off a statistics window is valid only if it starts at the
     * configured warmup.
     */
    bool hermesWarmupIssue = true;

    DramParams dram;

    std::uint64_t seed = 1;

    /**
     * Sparse model-knob overrides ("<model>.<knob>" -> canonical value
     * string, e.g. "popet.feature_mask" -> "1"). Only knobs off their
     * declared default appear here (ParamRegistry::apply erases a knob
     * set back to its default); the rest fall back to their declared
     * defaults at model construction.
     */
    std::map<std::string, std::string> modelKnobs;
    /**
     * Sparse corpus-generator knob overrides ("corpus.<gen>.<knob>" ->
     * validated value string), applied by re-canonicalizing
     * corpus-backed trace specs (trace/corpus.hh) before the workloads
     * are opened. Like modelKnobs, only explicitly-set knobs appear, so
     * pre-existing configurations render (and fingerprint) unchanged.
     */
    std::map<std::string, std::string> corpusKnobs;

    /** Baseline single/multi-core configuration per Table 4. */
    static SystemConfig baseline(int cores);

    /**
     * Build a configuration from dotted string keys ("llc.ways=16",
     * "popet.act_threshold=-20", ...) validated against the parameter
     * registry (sim/param_registry.hh). Starts from
     * baseline(system.cores) so derived defaults (DRAM channels per
     * core count) match the struct API, then applies every other key
     * in insertion order. Throws std::invalid_argument on unknown keys
     * (with a nearest-key suggestion), unparsable or out-of-range
     * values, and non-power-of-two geometry.
     */
    static SystemConfig fromConfig(const Config &config);

    /**
     * The registry round trip: every registered key with this
     * configuration's current value. fromConfig(toConfig()) rebuilds
     * an identical configuration.
     */
    Config toConfig() const;
};

/** Aggregated statistics: a System::snapshot() or the window between
 * two snapshots (windowStats, sim/stat_registry.hh). */
struct RunStats
{
    std::uint64_t simCycles = 0;
    std::vector<CoreStats> core;
    std::vector<BranchStats> branch;
    std::vector<PredictorStats> predictor;
    std::vector<std::uint64_t> coreFinishCycle; ///< Cycle each core hit
                                                ///< its instruction quota
    CacheStats l1;  ///< Summed over cores
    CacheStats l2;  ///< Summed over cores
    CacheStats llc; ///< Its pf_* counters are also the pf.* keys
    DramStats dram;
    std::uint64_t hermesRequestsScheduled = 0;
    std::uint64_t hermesLoadsServed = 0;
    /** Configuration echoes filled by System::snapshot() so derived
     * metrics (dram.bw_util) stay computable from a RunStats alone;
     * deterministic but excluded from fingerprints to keep the pinned
     * goldens stable. */
    std::uint64_t dramChannels = 0;
    std::uint64_t dramBusCyclesPerLine = 0;
    /** Simulator throughput (host-side; excluded from fingerprints). */
    HostPerf hostPerf;
    /** Per-component host-time attribution and ticked/skipped cycle
     * counters (host-side; excluded from fingerprints). */
    HostProfile profile;

    /** Instructions retired across all cores (measurement window). */
    std::uint64_t instrsRetired() const;
    /** Per-core IPC over the measurement window (0 if no such core,
     * so empty shard placeholders read as "no data"). */
    double ipc(int core_id) const;
    /** LLC demand misses per kilo instruction. */
    double llcMpki() const;
    /** Aggregate predictor confusion matrix. */
    PredictorStats predTotal() const;
    /** Fraction of DRAM data-bus capacity spent transferring lines
     * (reads + writes, all channels); 0 for an empty window. */
    double dramBwUtil() const;
};

/**
 * A complete simulated machine. Workloads are cloned per core from the
 * provided list (one entry per core).
 */
class System
{
  public:
    System(const SystemConfig &config,
           std::vector<std::unique_ptr<Workload>> workloads);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Warmup phase: execute @p warmup_instrs per core (Hermes issue
     * gated by SystemConfig::hermesWarmupIssue), then store the seam
     * snapshot that the measurement window starts from.
     */
    void runWarmup(std::uint64_t warmup_instrs);

    /**
     * Measurement phase: each core executes at least @p sim_instrs
     * instructions past the seam; cores that finish early keep
     * executing (multi-programmed replay, §7). Returns
     * windowStats(snapshot(), seam).
     */
    RunStats runMeasure(std::uint64_t sim_instrs);

    /** Every counter since construction or loadState() (counters only
     * grow and are not checkpointed), with cycles set to now(). */
    RunStats snapshot() const;

    /**
     * True iff every stateful component (workloads, caches via their
     * replacement policy, predictor, prefetcher) opted into
     * checkpointing. Registry models that don't are a clean "no
     * checkpoint", never a wrong one.
     */
    bool checkpointable() const;

    /**
     * Serialize/restore the full warmed machine state. Only valid at
     * the seam (right after runWarmup(); loadState() into a fresh
     * System, which stores its seam). Counters are not serialized.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

    /**
     * Single-stepping access for fine-grained tests.
     * @return true iff any core retired at least one instruction
     * (run{Warmup,Measure} re-check completion only on such cycles).
     */
    bool tick();
    Cycle now() const { return now_; }

    /**
     * The event-horizon of the whole machine: the minimum of every
     * component's nextEventCycle() (docs/performance.md). Cycles in
     * (now(), horizon) are provably event-free — ticking them would
     * only perform the bookkeeping skipIdle() emulates — so the run
     * loops fast-forward across them. Always at least now() + 1.
     */
    Cycle nextEventHorizon() const;

    /**
     * Enable/disable the event-horizon fast-forward (defaults to on;
     * the HERMES_NO_EVENT_SKIP environment variable disables it at
     * construction — the escape hatch the determinism tests use to
     * prove the two loops produce identical statistics).
     */
    void setEventSkip(bool enabled) { eventSkip_ = enabled; }
    bool eventSkip() const { return eventSkip_; }

    OooCore &coreAt(int i) { return *cores_[i]; }
    Cache &l1At(int i) { return *l1_[i]; }
    Cache &l2At(int i) { return *l2_[i]; }
    Cache &llc() { return *llc_; }
    DramController &dram() { return *dram_; }
    Prefetcher *prefetcher() { return prefetcher_.get(); }
    OffChipPredictor *predictorAt(int i)
    {
        return predictors_[i].get();
    }
    HermesController &hermesAt(int i) { return *hermes_[i]; }
    const SystemConfig &config() const { return config_; }

  private:
    /** Store the snapshot the measurement window starts from. */
    void markSeam();
    /** tick() with per-stage host-time attribution (HERMES_PROFILE). */
    bool tickProfiled();
    /** Advance every component clock to @p target, emulating the
     * bookkeeping the skipped idle ticks would have performed. */
    void skipIdle(Cycle target);
    /** Fast-forward to just before the next event, clamped to
     * @p limit (the run loop's watchdog bound). */
    void doSkip(Cycle limit);
    void
    maybeSkip(Cycle limit)
    {
        if (eventSkip_)
            doSkip(limit);
    }

    SystemConfig config_;
    std::vector<std::unique_ptr<Workload>> workloads_;
    std::unique_ptr<DramController> dram_;
    std::unique_ptr<Cache> llc_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::vector<std::unique_ptr<OffChipPredictor>> predictors_;
    std::vector<std::unique_ptr<HermesController>> hermes_;
    std::vector<std::unique_ptr<OooCore>> cores_;
    Cycle now_ = 0;
    /** Cycle each core reached its quota (the seam's cycle until then,
     * so a window reads 0 for a core that never did). */
    std::vector<std::uint64_t> finishCycle_;
    RunStats seam_;
    /** Host seconds of runWarmup/runMeasure in *this process* (zero
     * after a checkpoint restore, which is the point). */
    double hostSeconds_ = 0.0;
    /** Event-horizon fast-forward enabled (HERMES_NO_EVENT_SKIP=1
     * disables it; statistics are identical either way). */
    bool eventSkip_ = true;
    /** Host-side tick/skip accounting (HostProfile in RunStats). */
    HostProfile profile_;
};

} // namespace hermes
