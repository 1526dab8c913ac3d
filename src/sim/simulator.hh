#pragma once

/**
 * @file
 * Session-based simulation entry layer. A SimSession walks one run
 * through explicit phases —
 *
 *   build() -> warmup() -> measure() -> collect()
 *
 * — with a serialization seam between warmup() and measure(): the
 * warmed machine state can be written out (snapshot()) and later
 * restored (restore()) into a freshly built session, so grids that
 * vary only post-warmup parameters pay for warmup once (see
 * sim/warmup_cache.hh for the content-addressed store and
 * docs/sessions.md for the full lifecycle and trust model).
 *
 * simulate() runs all four phases in one call.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/system.hh"
#include "trace/suite.hh"

namespace hermes
{

class ByteSink;
class ByteSource;

/** Instruction budgets for a run. */
struct SimBudget
{
    std::uint64_t warmupInstrs = 100'000;
    std::uint64_t simInstrs = 400'000;

    /** Single-run windows (hermes_run, examples, golden tests' base). */
    static SimBudget runDefaults() { return {100'000, 400'000}; }

    /**
     * Per-point windows for grids (hermes_sweep, the bench harness):
     * smaller than runDefaults() because a figure multiplies them by
     * dozens of points. Both CLIs and the harness share this one
     * definition so their --warmup/--instrs defaults can never drift.
     */
    static SimBudget sweepDefaults() { return {60'000, 250'000}; }

    /**
     * Budget scaled by the HERMES_SIM_SCALE environment variable
     * (a positive float; e.g. 4 quadruples both windows). Lets the
     * benchmark suite trade fidelity for runtime without recompiling.
     * Throws std::invalid_argument, naming the scale, when a scaled
     * window does not fit in 64 bits or a nonzero window scales to 0.
     */
    static SimBudget fromEnv(std::uint64_t warmup = 100'000,
                             std::uint64_t sim = 400'000);
};

/**
 * One simulation run as an explicit lifecycle. Phases must be entered
 * in order; calling one out of order throws std::logic_error (a
 * programming error, never a data defect).
 *
 *   SimSession s(config, traces, budget);
 *   s.build();            // open workloads, assemble the System
 *   s.warmup();           // or s.restore(source) from a checkpoint
 *   s.measure();
 *   RunStats r = s.collect();
 *
 * Between warmup() and measure() the session sits at the *snapshot
 * seam*: the System has stored a snapshot of its counters for the
 * measurement window to start from (System::snapshot; counters only
 * grow), and every stateful component (workload cursors/RNG, cache
 * tags + queues, DRAM queues, predictor and prefetcher training state,
 * ROB) is serializable. snapshot() writes that state; restore()
 * replaces warmup() in a session that is built but not yet warmed. Checkpoints are versioned, keyed by
 * warmupFingerprint() and checksummed; restore() treats any mismatch
 * or corruption as a clean miss (returns false, session stays built)
 * so a caller always falls back to a real warmup.
 *
 * The constructor canonicalizes traces: corpus.* knob overrides from
 * the configuration are applied (trace/corpus.hh) and a single trace
 * on a multi-core configuration is replicated across cores (the
 * homogeneous-mix convention, distinct per-core seed offsets).
 */
class SimSession
{
  public:
    /** Checkpoint stream format version (bump on any layout change). */
    static constexpr std::uint32_t kCheckpointVersion = 2;
    /** Leading bytes of every checkpoint stream. */
    static constexpr char kCheckpointMagic[9] = "HRMCKPT1";

    /**
     * Validates trace count (one per core, or one total) and applies
     * corpus overrides; throws std::invalid_argument on either defect.
     */
    SimSession(SystemConfig config, std::vector<TraceSpec> traces,
               SimBudget budget);
    ~SimSession();

    SimSession(const SimSession &) = delete;
    SimSession &operator=(const SimSession &) = delete;

    /** Open the workloads and assemble the System. */
    void build();

    /** Run the warmup window and store the seam snapshot. */
    void warmup();

    /** Run the measurement window. */
    const RunStats &measure();

    /** Results of the measurement window: the window from the seam
     * snapshot to the snapshot measure() ended at. */
    const RunStats &collect() const;

    /**
     * True iff every stateful component opted into checkpointing
     * (System::checkpointable); false means warmup is always paid.
     */
    bool checkpointable() const;

    /**
     * Identity of the warmed state this session would produce: an
     * FNV-1a over the checkpoint version, every *warmup-affecting*
     * registry-rendered configuration key (ParamDef::warmupAffecting;
     * model and corpus knobs always count), the Hermes
     * warmup-issue-active bit, the trace list and the warmup budget.
     * Two sessions with equal fingerprints warm into identical state,
     * so one may restore the other's snapshot. Deliberately excludes
     * simInstrs and measure-only keys — that is the whole point.
     */
    std::uint64_t warmupFingerprint() const;

    /**
     * Serialize the warmed state (only legal at the snapshot seam).
     * The caller owns sink lifecycle (finish() for crash-safe sinks).
     */
    void snapshot(ByteSink &sink) const;

    /**
     * Restore a warmed state into a built session. Returns true and
     * advances to the warmed phase on success; returns false on *any*
     * defect — bad magic, version or fingerprint mismatch, truncation,
     * checksum failure — after rebuilding the session's pristine state
     * (a failed restore may have half-written component state, so the
     * System is dropped and reconstructed; the session stays in the
     * built phase and warmup() remains valid). If that rebuild throws
     * (say a trace file vanished since build()), the exception
     * propagates and the session is left in the created phase with no
     * System: warmup() then throws std::logic_error, and build() may
     * be retried.
     */
    bool restore(ByteSource &source);

    /** The assembled machine (built phase onwards). */
    System &system();

    const SystemConfig &config() const { return config_; }
    /** Canonicalized trace list (after corpus overrides/replication). */
    const std::vector<TraceSpec> &traces() const { return traces_; }
    const SimBudget &budget() const { return budget_; }

  private:
    enum class Phase : std::uint8_t
    {
        Created,
        Built,
        Warmed,
        Measured,
    };

    void requirePhase(Phase expect, const char *method) const;
    /** (Re)construct workloads_ + System from the canonical traces. */
    void construct();

    SystemConfig config_;
    std::vector<TraceSpec> traces_;
    SimBudget budget_;
    Phase phase_ = Phase::Created;
    std::unique_ptr<System> system_;
    RunStats stats_;
};

/**
 * Run one simulation through a SimSession: build, warm up, measure,
 * collect. @p traces holds one entry per core, or one entry that a
 * multi-core configuration replicates across its cores (the
 * homogeneous-mix convention, distinct per-core seed offsets so copies
 * do not run in lockstep); any other count throws
 * std::invalid_argument.
 */
RunStats simulate(const SystemConfig &config,
                  std::vector<TraceSpec> traces, const SimBudget &budget);

} // namespace hermes
