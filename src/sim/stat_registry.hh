#pragma once

/**
 * @file
 * Schema'd statistics registry: the output-side twin of the parameter
 * registry. Every RunStats field — raw counters (scalar and per-core),
 * configuration echoes and derived metrics (IPC, MPKI, predictor
 * accuracy/coverage, DRAM bandwidth utilization, Hermes rates, power)
 * — is bound to a dotted string key ("core.instrs", "llc.mpki",
 * "pred.accuracy", "dram.bw_util", ...) with a type, an aggregation
 * rule, a doc string and a fingerprint-inclusion flag.
 *
 * Everything that renders, persists or combines statistics funnels
 * through this schema: the CSV/JSON rows and text lines in sim/report,
 * statsFingerprint(), the sweep journal's stats codec (via
 * codecPlan()), windowStats(), sumStats(), the CLIs' --stats/--report/
 * --list-stats columns and the bench harness dumps.
 * Declaring one row here makes a new counter summed over cores,
 * windowed, journal-codec'd, CSV-emittable, selectable, reported and
 * documented at once.
 *
 * Per-core statistics are addressable in two forms: the bare key
 * ("core.instrs") is the across-cores aggregate, and an index inserted
 * after the first segment ("core.0.instrs", "pred.2.accuracy") reads
 * one core. Out-of-range indices read as 0, so placeholder rows from
 * partial shards render as zeros instead of exploding.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace hermes
{

/** Value category of one registered statistic. */
enum class StatType : std::uint8_t
{
    U64, ///< Exact integer counter
    F64, ///< Real-valued (derived or host-side) metric
};

/** How one statistic relates to the underlying counters. */
enum class StatAgg : std::uint8_t
{
    Total,   ///< One counter for the whole run
    PerCore, ///< Stored per core; the bare key sums across cores
    Derived, ///< Computed from other statistics (zero-safe)
    Config,  ///< Run metadata echoed from the configuration
    Host,    ///< Host-side measurement (non-deterministic)
};

/** Schema entry for one RunStats statistic. */
struct StatDef
{
    std::string key;
    StatType type = StatType::U64;
    StatAgg agg = StatAgg::Total;
    std::string doc;
    /** Hashed by statsFingerprint() (raw deterministic counters). */
    bool inFingerprint = false;

    /** Aggregate value (sum across cores for PerCore statistics). */
    std::function<std::uint64_t(const RunStats &)> getU64;
    /** Write one scalar counter (journal decode, windowStats); null
     * for Derived. Two keys may share a counter (pf.* and llc.pf_*). */
    std::function<void(RunStats &, std::uint64_t)> setU64;
    /** Per-core read; must return 0 for an out-of-range core. */
    std::function<std::uint64_t(const RunStats &, std::size_t)> getAtU64;
    /** Per-core write; the codec resizes the vector first. */
    std::function<void(RunStats &, std::size_t, std::uint64_t)> setAtU64;
    /** Aggregate real value (Derived/Host statistics). */
    std::function<double(const RunStats &)> getF64;
    /** Optional per-core real value (e.g. core.N.ipc). */
    std::function<double(const RunStats &, std::size_t)> getAtF64;

    const char *typeName() const;
    const char *aggName() const;
    /** True when the statistic has a per-core indexed form. */
    bool perCore() const { return getAtU64 || getAtF64; }
};

/**
 * One step of the journal stats codec (and of statsFingerprint()).
 * The plan linearizes RunStats deterministically: scalars render as
 * "name":value, per-core groups as "name":[[...],...] (flat for a
 * single-statistic group), scalar sections as "name":[...]. The
 * fingerprint walks the same plan, hashing every inFingerprint value
 * in plan order — so codec, fingerprint and schema can never drift.
 */
struct StatCodecItem
{
    enum class Kind : std::uint8_t
    {
        Scalar,  ///< One top-level "name":value
        Group,   ///< Per-core array-of-arrays
        Section, ///< Flat array of scalar counters
    };
    Kind kind = Kind::Scalar;
    std::string name; ///< JSON key in the journal record
    /** Hash the per-core count itself (the "core" group: every other
     * vector's length is implied by it). */
    bool hashCount = false;
    std::vector<const StatDef *> defs;
    /** Vector length (Group). */
    std::function<std::size_t(const RunStats &)> count;
    /** Resize before per-core decode (Group). */
    std::function<void(RunStats &, std::size_t)> resize;
};

/** The process-wide statistics schema (immutable after construction). */
class StatRegistry
{
  public:
    static const StatRegistry &instance();

    /** All statistics, in registration (documentation) order. */
    const std::vector<StatDef> &stats() const { return defs_; }

    /** The journal codec / fingerprint linearization of RunStats. */
    const std::vector<StatCodecItem> &codecPlan() const { return plan_; }

    /** Look a key up; nullptr if unknown. */
    const StatDef *find(const std::string &key) const;

    /**
     * Look a key up; throws std::invalid_argument with a nearest-key
     * suggestion if unknown.
     */
    const StatDef &findOrThrow(const std::string &key) const;

    /** Registered key closest to @p key by edit distance. */
    std::string nearestKey(const std::string &key) const;

    /**
     * Human-readable table of every key: type, aggregation,
     * fingerprint flag and doc string (the --list-stats output).
     */
    std::string describe() const;

  private:
    StatRegistry();

    std::vector<StatDef> defs_;
    std::vector<StatCodecItem> plan_;
    std::map<std::string, std::size_t> index_;
};

/**
 * One rendered output column: a registered statistic, optionally
 * pinned to a single core (the "core.N.ipc" form).
 */
struct StatColumn
{
    /** Column header: the key with dots as underscores. */
    std::string name;
    const StatDef *def = nullptr;
    /** >= 0 selects one core of a per-core statistic. */
    int coreIndex = -1;
};

/**
 * The legacy aggregate column set every CSV/JSON row used before the
 * registry existed — column names are pinned ("ipc", "llc_mpki", ...)
 * so existing dumps and downstream scripts stay byte-identical.
 * @p with_host_perf appends the non-deterministic sim_mips /
 * host_seconds columns (the --mips opt-in).
 */
std::vector<StatColumn> defaultStatColumns(bool with_host_perf = false);

/**
 * Every registered statistic, in registration order (the --report
 * column set). When @p cores > 1, each per-core statistic is followed
 * by its per-core forms for cores 0 .. @p cores - 1.
 */
std::vector<StatColumn> allStatColumns(std::size_t cores);

/**
 * Parse a --stats column list: comma-separated keys, indexed per-core
 * keys ("core.0.ipc") and '*'/'?' globs over registered keys
 * ("dram.*", expanded in registration order). Throws
 * std::invalid_argument on unknown keys (with a nearest-key
 * suggestion), non-per-core indexed keys and globs matching nothing.
 */
std::vector<StatColumn> selectStatColumns(const std::string &spec);

/**
 * Append the sim_mips/host_seconds columns unless already selected:
 * --mips keeps its documented dump columns when combined with a
 * --stats selection.
 */
void appendHostPerfColumns(std::vector<StatColumn> &columns);

/** The registry key a column reads ("core.0.ipc" for core 0's IPC). */
std::string statColumnKey(const StatColumn &col);

/**
 * Rendered value of one column, using the same numeric formatting the
 * CSV/JSON emitters always used (integers exact, reals at 6
 * significant digits).
 */
std::string statColumnValue(const StatColumn &col, const RunStats &stats);

/**
 * The window between two snapshots (System::snapshot): every raw
 * counter of the codec plan is end - start, read and written through
 * its registry binding, so a newly registered counter is windowed with
 * no further work. Configuration echoes and host-side fields come from
 * @p end. windowStats(x, RunStats{}) is x.
 */
RunStats windowStats(const RunStats &end, const RunStats &start);

/**
 * The same walk adding: every raw counter is a + b (System::snapshot
 * sums the cores' private cache levels this way). Configuration echoes
 * and host-side fields come from @p a; per-core groups keep @p a's
 * length.
 */
RunStats sumStats(const RunStats &a, const RunStats &b);

/** Aggregate value of a registered integer statistic. */
std::uint64_t statU64(const RunStats &stats, const std::string &key);

/**
 * Aggregate value of any registered statistic as a double (integer
 * counters convert; use for derived metrics like "dram.bw_util").
 */
double statF64(const RunStats &stats, const std::string &key);

} // namespace hermes
