#include "sim/system.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "sim/model_registry.hh"
#include "sim/stat_registry.hh"

namespace hermes
{

SystemConfig
SystemConfig::baseline(int cores)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    if (cores >= 8) {
        cfg.dram.channels = 4;
        cfg.dram.ranksPerChannel = 2;
    } else if (cores > 1) {
        cfg.dram.channels = 2;
        cfg.dram.ranksPerChannel = 2;
    }
    return cfg;
}

std::uint64_t
RunStats::instrsRetired() const
{
    std::uint64_t total = 0;
    for (const auto &c : core)
        total += c.instrsRetired;
    return total;
}

double
RunStats::ipc(int core_id) const
{
    // 0 for a core this RunStats has no data for: empty results (e.g.
    // grid points another shard owns) read as "no data", which the
    // harness speedup helpers already filter, instead of throwing.
    if (core_id < 0 || static_cast<std::size_t>(core_id) >= core.size())
        return 0.0;
    const auto &c = core[core_id];
    const std::uint64_t cycles =
        core_id < static_cast<int>(coreFinishCycle.size()) &&
                coreFinishCycle[core_id] > 0
            ? coreFinishCycle[core_id]
            : simCycles;
    return cycles ? static_cast<double>(c.instrsRetired) /
                        static_cast<double>(cycles)
                  : 0.0;
}

double
RunStats::llcMpki() const
{
    const std::uint64_t instrs = instrsRetired();
    return instrs ? 1000.0 * static_cast<double>(llc.demandMisses()) /
                        static_cast<double>(instrs)
                  : 0.0;
}

double
RunStats::dramBwUtil() const
{
    // Each DRAM access keeps its channel's data bus busy for
    // busCyclesPerLine core cycles; capacity is one transfer per
    // channel per cycle. Guarded so zero-instruction placeholder rows
    // (and pre-registry RunStats with no config echo) read as 0.
    const double capacity = static_cast<double>(simCycles) *
                            static_cast<double>(dramChannels);
    if (capacity <= 0)
        return 0.0;
    const double busy =
        static_cast<double>(dram.totalReads() + dram.writes) *
        static_cast<double>(dramBusCyclesPerLine);
    return busy / capacity;
}

PredictorStats
RunStats::predTotal() const
{
    PredictorStats t;
    for (const auto &p : predictor)
        t += p;
    return t;
}

namespace
{

std::uint32_t
toSets(std::uint64_t bytes, std::uint32_t ways)
{
    const std::uint64_t lines = bytes / kBlockSize;
    const std::uint64_t sets = lines / ways;
    std::uint64_t p = 1;
    while (p * 2 <= sets)
        p *= 2;
    // Geometry must be a power of two; round down and widen the ways
    // to preserve capacity if needed.
    return static_cast<std::uint32_t>(p);
}

} // namespace

System::System(const SystemConfig &config,
               std::vector<std::unique_ptr<Workload>> workloads)
    : config_(config), workloads_(std::move(workloads))
{
    const int n = config_.numCores;
    if (static_cast<int>(workloads_.size()) != n)
        throw std::invalid_argument("need one workload per core");

    dram_ = std::make_unique<DramController>(config_.dram);

    CacheParams llc_params;
    llc_params.name = "LLC";
    llc_params.level = MemLevel::Llc;
    llc_params.ways = config_.llcWays;
    llc_params.sets =
        toSets(config_.llcBytesPerCore * n, config_.llcWays);
    llc_params.latency = config_.llcLatency;
    llc_params.mshrs = config_.llcMshrsPerCore * n;
    llc_params.rqSize = 64u * n;
    llc_params.pqSize = 48u * n;
    {
        ModelContext ctx;
        ctx.knobs = &config_.modelKnobs;
        ctx.seed = config_.seed;
        ctx.sets = llc_params.sets;
        ctx.ways = llc_params.ways;
        llc_ = std::make_unique<Cache>(
            llc_params, ModelRegistry::instance().makeReplacement(
                            config_.llcRepl, std::move(ctx)));
    }
    llc_->setLower(dram_.get());

    {
        ModelContext ctx;
        ctx.knobs = &config_.modelKnobs;
        ctx.seed = config_.seed;
        prefetcher_ = ModelRegistry::instance().makePrefetcher(
            config_.prefetcher, std::move(ctx));
    }
    if (prefetcher_ != nullptr)
        llc_->setPrefetcher(prefetcher_.get());

    for (int i = 0; i < n; ++i) {
        CacheParams l2p;
        l2p.name = "L2";
        l2p.level = MemLevel::L2;
        l2p.sets = config_.l2Sets;
        l2p.ways = config_.l2Ways;
        l2p.latency = config_.l2Latency;
        l2p.mshrs = config_.l2Mshrs;
        l2p.rqSize = 48;
        l2_.push_back(std::make_unique<Cache>(l2p));
        l2_.back()->setLower(llc_.get());
        llc_->setUpper(i, l2_.back().get());
        dram_->setClient(i, llc_.get());

        CacheParams l1p;
        l1p.name = "L1D";
        l1p.level = MemLevel::L1;
        l1p.sets = config_.l1Sets;
        l1p.ways = config_.l1Ways;
        l1p.latency = config_.l1Latency;
        l1p.mshrs = config_.l1Mshrs;
        l1p.rqSize = 32;
        l1_.push_back(std::make_unique<Cache>(l1p));
        l1_.back()->setLower(l2_.back().get());
        l2_.back()->setUpper(i, l1_.back().get());
    }

    // Off-chip predictors + Hermes controllers (one per core), built
    // through the model registry by name.
    for (int i = 0; i < n; ++i) {
        Cache *l1 = l1_[i].get();
        Cache *l2 = l2_[i].get();
        Cache *llc = llc_.get();
        ModelContext ctx;
        ctx.knobs = &config_.modelKnobs;
        ctx.seed = config_.seed;
        ctx.coreId = i;
        ctx.residentProbe = [l1, l2, llc](Addr line) {
            return l1->probe(line) || l2->probe(line) ||
                   llc->probe(line);
        };
        predictors_.push_back(ModelRegistry::instance().makePredictor(
            config_.predictor, std::move(ctx)));

        HermesParams hp;
        hp.issueEnabled = config_.hermesIssueEnabled &&
                          predictors_.back() != nullptr;
        hp.issueLatency = config_.hermesIssueLatency;
        hermes_.push_back(std::make_unique<HermesController>(
            hp, predictors_.back().get(), dram_.get()));
    }

    // Hierarchy events feed the TTP trackers of every core.
    llc_->onFillFromDram = [this](Addr line) {
        for (auto &p : predictors_)
            if (p != nullptr)
                p->onFillFromDram(line);
    };
    llc_->onEviction = [this](Addr line) {
        for (auto &p : predictors_)
            if (p != nullptr)
                p->onLlcEviction(line);
    };

    for (int i = 0; i < n; ++i) {
        cores_.push_back(std::make_unique<OooCore>(
            i, config_.core, workloads_[i].get(), l1_[i].get(),
            hermes_[i].get()));
        l1_[i]->setUpper(i, cores_.back().get());
    }

    // Environment escape hatches (docs/performance.md): disable the
    // event-horizon fast-forward (determinism cross-check) and enable
    // per-component host-time attribution (bench --profile).
    eventSkip_ = std::getenv("HERMES_NO_EVENT_SKIP") == nullptr;
    profile_.enabled = std::getenv("HERMES_PROFILE") != nullptr;
    markSeam();
}

System::~System() = default;

bool
System::tick()
{
    if (profile_.enabled)
        return tickProfiled();
    ++now_;
    ++profile_.tickedCycles;
    dram_->tick(now_);
    llc_->tick(now_);
    for (auto &c : l2_)
        c->tick(now_);
    for (auto &c : l1_)
        c->tick(now_);
    bool retired = false;
    for (auto &c : cores_)
        retired |= c->tick(now_);
    return retired;
}

bool
System::tickProfiled()
{
    using clock = std::chrono::steady_clock;
    auto seconds_since = [](clock::time_point t0, clock::time_point t1) {
        return std::chrono::duration<double>(t1 - t0).count();
    };
    ++now_;
    ++profile_.tickedCycles;
    const auto t0 = clock::now();
    dram_->tick(now_);
    const auto t1 = clock::now();
    profile_.dramSeconds += seconds_since(t0, t1);
    llc_->tick(now_);
    const auto t2 = clock::now();
    profile_.llcSeconds += seconds_since(t1, t2);
    for (auto &c : l2_)
        c->tick(now_);
    const auto t3 = clock::now();
    profile_.l2Seconds += seconds_since(t2, t3);
    for (auto &c : l1_)
        c->tick(now_);
    const auto t4 = clock::now();
    profile_.l1Seconds += seconds_since(t3, t4);
    bool retired = false;
    for (auto &c : cores_)
        retired |= c->tick(now_);
    profile_.coreSeconds += seconds_since(t4, clock::now());
    return retired;
}

Cycle
System::nextEventHorizon() const
{
    // Minimum over every component's lower bound. Each contract
    // guarantees a result of at least now_ + 1, so once any component
    // reports exactly that we can stop scanning: nothing can be lower.
    const Cycle next = now_ + 1;
    Cycle horizon = kNoEventCycle;
    for (const auto &c : cores_) {
        horizon = std::min(horizon, c->nextEventCycle(now_));
        if (horizon <= next)
            return next;
    }
    for (const auto &h : hermes_) {
        horizon = std::min(horizon, h->nextEventCycle(now_));
        if (horizon <= next)
            return next;
    }
    for (const auto &c : l1_) {
        horizon = std::min(horizon, c->nextEventCycle(now_));
        if (horizon <= next)
            return next;
    }
    for (const auto &c : l2_) {
        horizon = std::min(horizon, c->nextEventCycle(now_));
        if (horizon <= next)
            return next;
    }
    horizon = std::min(horizon, llc_->nextEventCycle(now_));
    if (horizon <= next)
        return next;
    horizon = std::min(horizon, dram_->nextEventCycle(now_));
    return std::max(horizon, next);
}

void
System::skipIdle(Cycle target)
{
    // Emulate what ticking the cycles in (now_, target] would have
    // done: nothing happens in an event-free span except that every
    // component clock advances (caches and DRAM stamp enqueues from
    // their own clocks) and the cores account stall cycles.
    const std::uint64_t skipped = target - now_;
    now_ = target;
    profile_.skippedCycles += skipped;
    dram_->skipTo(now_);
    llc_->skipTo(now_);
    for (auto &c : l2_)
        c->skipTo(now_);
    for (auto &c : l1_)
        c->skipTo(now_);
    for (auto &c : cores_)
        c->skipCycles(now_, skipped);
}

void
System::doSkip(Cycle limit)
{
    if (profile_.enabled) {
        using clock = std::chrono::steady_clock;
        const auto t0 = clock::now();
        const Cycle horizon = nextEventHorizon();
        if (horizon > now_ + 1) {
            // Stop one cycle short of the horizon (the event itself
            // must be ticked) and never past the watchdog limit.
            const Cycle target = std::min<Cycle>(horizon - 1, limit);
            if (target > now_)
                skipIdle(target);
        }
        profile_.horizonSeconds +=
            std::chrono::duration<double>(clock::now() - t0).count();
        return;
    }
    const Cycle horizon = nextEventHorizon();
    if (horizon <= now_ + 1)
        return;
    const Cycle target = std::min<Cycle>(horizon - 1, limit);
    if (target > now_)
        skipIdle(target);
}

void
System::runWarmup(std::uint64_t warmup_instrs)
{
    const int n = config_.numCores;
    // Generous watchdog: no workload here sustains IPC below ~0.01.
    const std::uint64_t max_cycles = warmup_instrs * 400 + 1'000'000;
    const Stopwatch watch;

    // Warmup-time Hermes issue gate: with hermes.warmup_issue=false the
    // predictor still trains but no speculative requests are issued, so
    // the warmed state is independent of the issue path.
    if (!config_.hermesWarmupIssue)
        for (auto &h : hermes_)
            h->setIssueEnabled(false);

    auto all_reached = [&](std::uint64_t target) {
        for (const auto &c : cores_)
            if (c->instrsRetired() < target)
                return false;
        return true;
    };

    // all_reached() only changes when a core retires, and retirement is
    // an event, so fast-forwarding between ticks never skips the
    // completion check past the finish point.
    while (!all_reached(warmup_instrs) && now_ < max_cycles) {
        // Only probe the horizon after non-retiring ticks: a retiring
        // core almost always has head-of-ROB work next cycle, so the
        // probe would be wasted; skipping fewer idle spans is always
        // behavior-identical (idle ticks are no-ops).
        if (!tick())
            maybeSkip(max_cycles);
    }

    if (!config_.hermesWarmupIssue)
        for (int i = 0; i < n; ++i)
            hermes_[i]->setIssueEnabled(config_.hermesIssueEnabled &&
                                        predictors_[i] != nullptr);

    hostSeconds_ += watch.elapsedSeconds();
    markSeam();
}

void
System::markSeam()
{
    finishCycle_.assign(config_.numCores, now_);
    seam_ = snapshot();
}

RunStats
System::runMeasure(std::uint64_t sim_instrs)
{
    const int n = config_.numCores;
    const Cycle start = seam_.simCycles;
    const Cycle limit = start + sim_instrs * 400 + 1'000'000;
    const Stopwatch watch;

    // Each core's quota counts from the seam. The completion scan only
    // needs to run after cycles where some core retired: instrsRetired()
    // is constant otherwise, and finishCycle_ records the cycle the
    // quota was *reached*, which is by definition a retiring cycle. The
    // initial recheck covers the sim_instrs == 0 edge (quota met before
    // the first tick).
    bool done = false;
    bool recheck = true;
    while (!done && now_ < limit) {
        const bool retired = tick();
        if (retired || recheck) {
            recheck = false;
            done = true;
            for (int i = 0; i < n; ++i) {
                if (cores_[i]->instrsRetired() -
                        seam_.core[i].instrsRetired >=
                    sim_instrs) {
                    if (finishCycle_[i] == start)
                        finishCycle_[i] = now_;
                } else {
                    done = false;
                }
            }
        }
        // Horizon probes only pay off after non-retiring ticks (see
        // runWarmup); a retiring core has head-of-ROB work next cycle.
        if (!done && !retired)
            maybeSkip(limit);
    }

    hostSeconds_ += watch.elapsedSeconds();
    return windowStats(snapshot(), seam_);
}

bool
System::checkpointable() const
{
    for (const auto &wl : workloads_)
        if (!wl->checkpointable())
            return false;
    if (!llc_->checkpointable())
        return false;
    for (const auto &c : l2_)
        if (!c->checkpointable())
            return false;
    for (const auto &c : l1_)
        if (!c->checkpointable())
            return false;
    if (prefetcher_ != nullptr && !prefetcher_->checkpointable())
        return false;
    for (const auto &p : predictors_)
        if (p != nullptr && !p->checkpointable())
            return false;
    return true;
}

void
System::saveState(StateWriter &w) const
{
    w.section("SYST");
    w.u32(static_cast<std::uint32_t>(config_.numCores));
    w.u64(now_);
    for (const auto &wl : workloads_)
        wl->saveState(w);
    dram_->saveState(w);
    llc_->saveState(w);
    for (int i = 0; i < config_.numCores; ++i) {
        l2_[i]->saveState(w);
        l1_[i]->saveState(w);
    }
    if (prefetcher_ != nullptr)
        prefetcher_->saveState(w);
    for (const auto &p : predictors_)
        if (p != nullptr)
            p->saveState(w);
    for (const auto &h : hermes_)
        h->saveState(w);
    for (const auto &c : cores_)
        c->saveState(w);
}

void
System::loadState(StateReader &r)
{
    r.section("SYST");
    if (r.u32() != static_cast<std::uint32_t>(config_.numCores))
        throw StateError("core count mismatch");
    now_ = r.u64();
    for (auto &wl : workloads_)
        wl->loadState(r);
    dram_->loadState(r);
    llc_->loadState(r);
    for (int i = 0; i < config_.numCores; ++i) {
        l2_[i]->loadState(r);
        l1_[i]->loadState(r);
    }
    if (prefetcher_ != nullptr)
        prefetcher_->loadState(r);
    for (auto &p : predictors_)
        if (p != nullptr)
            p->loadState(r);
    for (auto &h : hermes_)
        h->loadState(r);
    for (auto &c : cores_)
        c->loadState(r);
    // The measurement window starts here, and this process did no
    // warmup work (host-perf accounting).
    hostSeconds_ = 0.0;
    markSeam();
}

RunStats
System::snapshot() const
{
    RunStats s;
    const int n = config_.numCores;
    s.simCycles = now_;
    s.coreFinishCycle = finishCycle_;
    for (int i = 0; i < n; ++i) {
        s.core.push_back(cores_[i]->stats());
        s.branch.push_back(cores_[i]->branchStats());
        s.predictor.push_back(hermes_[i]->stats().pred);
        // Core i's private levels and Hermes controller, added to the
        // other cores' counter by counter through the stat registry.
        RunStats own;
        own.l1 = l1_[i]->stats();
        own.l2 = l2_[i]->stats();
        own.hermesRequestsScheduled = hermes_[i]->stats().requestsScheduled;
        own.hermesLoadsServed = hermes_[i]->stats().loadsServedByHermes;
        s = sumStats(s, own);
    }
    s.llc = llc_->stats();
    s.dram = dram_->stats();
    s.dramChannels = config_.dram.channels;
    s.dramBusCyclesPerLine = config_.dram.busCyclesPerLine();
    // Host-side: this process's warmup + measurement work, so the
    // warmup share is informative rather than misleading.
    s.hostPerf.seconds = hostSeconds_;
    s.hostPerf.instrs = s.instrsRetired();
    s.profile = profile_;
    return s;
}

} // namespace hermes
