#include "sim/simulator.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/config.hh"
#include "common/fnv.hh"
#include "common/state_io.hh"
#include "sim/param_registry.hh"
#include "trace/corpus.hh"
#include "trace/trace_io.hh"

namespace hermes
{

namespace
{

/**
 * Does Hermes actually issue requests during warmup? Only then do the
 * issue-side keys (hermes.enabled, hermes.issue_latency) shape the
 * warmed state: the request stream seen by DRAM and the caches differs
 * when speculative loads fly during the warmup window.
 */
bool
warmupIssueActive(const SystemConfig &config)
{
    return config.hermesIssueEnabled && config.hermesWarmupIssue &&
           config.predictor != PredictorKind::None;
}

/** Read exactly @p size bytes or throw (short streams are defects). */
void
readExact(ByteSource &source, void *data, std::size_t size)
{
    auto *p = static_cast<unsigned char *>(data);
    std::size_t got = 0;
    while (got < size) {
        const std::size_t n = source.read(p + got, size - got);
        if (n == 0)
            throw StateError("truncated stream (wanted " +
                             std::to_string(size) + " magic bytes)");
        got += n;
    }
}

} // namespace

SimBudget
SimBudget::fromEnv(std::uint64_t warmup, std::uint64_t sim)
{
    SimBudget b;
    b.warmupInstrs = warmup;
    b.simInstrs = sim;
    const char *env = std::getenv("HERMES_SIM_SCALE");
    if (env == nullptr)
        return b;
    // The front ends reject a bad --scale before exporting it; a bad
    // value set directly in the environment is ignored, with a warning
    // so misconfigured runs are visible.
    const auto scale = parseScale(env);
    if (!scale) {
        std::fprintf(stderr,
                     "warning: ignoring invalid HERMES_SIM_SCALE=\"%s\""
                     " (expected a finite positive number)\n",
                     env);
        return b;
    }
    // Converting a product past 2^64 to uint64 is undefined behaviour,
    // and any stand-in value would run a budget nobody asked for; so
    // would a nonzero window that truncates to no instructions at all.
    const auto scaled = [&](std::uint64_t window) {
        const double w = static_cast<double>(window) * *scale;
        if (!(w < 0x1p64))
            throw std::invalid_argument(
                "scale " + std::string(env) + " takes the " +
                std::to_string(window) +
                "-instruction window past 2^64 instructions");
        if (window != 0 && w < 1.0)
            throw std::invalid_argument(
                "scale " + std::string(env) + " takes the " +
                std::to_string(window) +
                "-instruction window to 0 instructions");
        return static_cast<std::uint64_t>(w);
    };
    b.warmupInstrs = scaled(warmup);
    b.simInstrs = scaled(sim);
    return b;
}

constexpr char SimSession::kCheckpointMagic[9];

SimSession::SimSession(SystemConfig config, std::vector<TraceSpec> traces,
                       SimBudget budget)
    : config_(std::move(config)), traces_(std::move(traces)),
      budget_(budget)
{
    if (traces_.empty())
        throw std::invalid_argument("SimSession needs at least one trace");
    if (!config_.corpusKnobs.empty())
        traces_ = applyCorpusOverrides(std::move(traces_),
                                       config_.corpusKnobs);
    if (traces_.size() == 1 && config_.numCores > 1) {
        const TraceSpec t = traces_[0]; // copy: assign() would read a
                                        // reference into itself
        traces_.assign(static_cast<std::size_t>(config_.numCores), t);
    }
    if (static_cast<int>(traces_.size()) != config_.numCores)
        throw std::invalid_argument("need one trace per core");
}

SimSession::~SimSession() = default;

void
SimSession::requirePhase(Phase expect, const char *method) const
{
    if (phase_ == expect)
        return;
    static const char *const names[] = {"created", "built", "warmed",
                                        "measured"};
    throw std::logic_error(
        std::string("SimSession::") + method + ": session is " +
        names[static_cast<int>(phase_)] + ", wants " +
        names[static_cast<int>(expect)]);
}

void
SimSession::construct()
{
    std::vector<std::unique_ptr<Workload>> w;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
        auto base = traces_[i].make();
        w.push_back(i == 0 ? std::move(base) : base->clone(i));
    }
    system_ = std::make_unique<System>(config_, std::move(w));
}

void
SimSession::build()
{
    requirePhase(Phase::Created, "build");
    construct();
    phase_ = Phase::Built;
}

void
SimSession::warmup()
{
    requirePhase(Phase::Built, "warmup");
    system_->runWarmup(budget_.warmupInstrs);
    phase_ = Phase::Warmed;
}

const RunStats &
SimSession::measure()
{
    requirePhase(Phase::Warmed, "measure");
    stats_ = system_->runMeasure(budget_.simInstrs);
    phase_ = Phase::Measured;
    return stats_;
}

const RunStats &
SimSession::collect() const
{
    requirePhase(Phase::Measured, "collect");
    return stats_;
}

bool
SimSession::checkpointable() const
{
    requirePhase(Phase::Built, "checkpointable");
    return system_->checkpointable();
}

System &
SimSession::system()
{
    if (system_ == nullptr)
        throw std::logic_error("SimSession::system: not built yet");
    return *system_;
}

std::uint64_t
SimSession::warmupFingerprint() const
{
    Fnv64 f;
    f.add(std::string("hermes-warmup-v1"));
    f.add(std::uint64_t{kCheckpointVersion});
    const bool active = warmupIssueActive(config_);
    // Hash the registry-rendered configuration (the same canonical
    // strings pointFingerprint hashes) restricted to warmup-affecting
    // keys. Keys the registry does not know — model knobs, corpus
    // knobs — always shape training/workload state, so they always
    // count.
    const Config rendered = config_.toConfig();
    const ParamRegistry &registry = ParamRegistry::instance();
    for (const std::string &key : rendered.keys()) {
        const ParamDef *def = registry.find(key);
        const bool include =
            def == nullptr || def->warmupAffecting || active;
        if (!include)
            continue;
        f.add(key);
        f.add(rendered.get(key, std::string()));
    }
    f.add(std::uint64_t{active ? 1u : 0u});
    f.add(static_cast<std::uint64_t>(traces_.size()));
    for (const TraceSpec &t : traces_) {
        f.add(t.name());
        f.add(t.filePath); // "" for synthetic/corpus workloads
    }
    f.add(budget_.warmupInstrs);
    return f.value();
}

void
SimSession::snapshot(ByteSink &sink) const
{
    requirePhase(Phase::Warmed, "snapshot");
    sink.write(kCheckpointMagic, 8);
    StateWriter w(sink);
    w.u32(kCheckpointVersion);
    w.u64(warmupFingerprint());
    system_->saveState(w);
    w.sealChecksum();
}

bool
SimSession::restore(ByteSource &source)
{
    requirePhase(Phase::Built, "restore");
    try {
        char magic[8] = {};
        readExact(source, magic, sizeof(magic));
        if (std::memcmp(magic, kCheckpointMagic, 8) != 0)
            throw StateError("bad magic");
        StateReader r(source);
        if (r.u32() != kCheckpointVersion)
            throw StateError("version mismatch");
        if (r.u64() != warmupFingerprint())
            throw StateError("warmup fingerprint mismatch");
        system_->loadState(r);
        r.verifyChecksum();
        phase_ = Phase::Warmed;
        return true;
    } catch (const std::exception &) {
        // Any defect is a miss; the rebuild below handles it.
    }
    // A failed loadState may have half-written component state: drop
    // that System and rebuild from the trace specs so warmup() starts
    // pristine. If the rebuild throws (a trace file vanished), the
    // exception propagates and the session stays created, so no phase
    // method can run on a half-loaded machine.
    system_.reset();
    phase_ = Phase::Created;
    build();
    return false;
}

RunStats
simulate(const SystemConfig &config, std::vector<TraceSpec> traces,
         const SimBudget &budget)
{
    SimSession session(config, std::move(traces), budget);
    session.build();
    session.warmup();
    session.measure();
    return session.collect();
}

} // namespace hermes
