#pragma once

/**
 * @file
 * Host-side performance instrumentation for simulation runs: a
 * monotonic stopwatch and the per-run throughput record (simulated
 * instructions per host wall-clock second, reported as MIPS).
 *
 * The numbers here describe the *simulator*, not the simulated
 * machine: they are intentionally excluded from statsFingerprint() and
 * from the default CSV/JSON columns so that determinism checks and
 * paired sweeps stay reproducible. The front ends opt into them with
 * --mips.
 */

#include <chrono>
#include <cstdint>

namespace hermes
{

/** Simulator throughput of one System in this process. */
struct HostPerf
{
    /** Wall-clock seconds spent in runWarmup() and runMeasure(). */
    double seconds = 0;
    /** Instructions they executed, including the warmup window. */
    std::uint64_t instrs = 0;

    /** Simulated millions of instructions per host second. */
    double
    mips() const
    {
        return seconds > 0 ? static_cast<double>(instrs) / seconds / 1e6
                           : 0.0;
    }
};

/**
 * Per-component host-time attribution for one run (System `--profile`
 * mode, enabled by the HERMES_PROFILE environment variable). The cycle
 * counters are maintained on every run (they are cheap and make the
 * event-horizon skip ratio observable); the per-component seconds are
 * only accumulated when profiling is enabled, because they cost two
 * clock reads per pipeline stage per cycle. Like HostPerf, all of this
 * describes the simulator, never the simulated machine, and is
 * excluded from statsFingerprint().
 */
struct HostProfile
{
    /** HERMES_PROFILE was set when the System was built. */
    bool enabled = false;
    double dramSeconds = 0;
    double llcSeconds = 0;
    double l2Seconds = 0;
    double l1Seconds = 0;
    /** Cores, including the Hermes controllers they tick. */
    double coreSeconds = 0;
    /** nextEventHorizon() evaluation + fast-forward bookkeeping. */
    double horizonSeconds = 0;
    /** Cycles actually ticked (warmup + measurement). */
    std::uint64_t tickedCycles = 0;
    /** Idle cycles fast-forwarded by the event-horizon loop. */
    std::uint64_t skippedCycles = 0;
};

/** Monotonic stopwatch used to fill HostPerf::seconds. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    double
    elapsedSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace hermes
