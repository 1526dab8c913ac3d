/**
 * @file
 * Simulator-throughput gate: runs the quick suite single-threaded on
 * the paper's full-featured configuration (Pythia prefetcher + POPET
 * predictor + Hermes issue — the heaviest per-instruction hot path)
 * and reports simulated MIPS per trace plus the aggregate.
 *
 * Usage:
 *   perf_gate [--out FILE] [--min-mips X] [figure driver flags]
 *
 *  --out FILE     write the gate result as JSON (also printed)
 *  --min-mips X   exit 1 if the aggregate falls below X MIPS (a finite
 *                 number >= 0; anything else is a usage error)
 *
 * The other flags are the figure drivers' (sweep::kPerfGateFrontEnd
 * in src/sweep/front_end.hh). Measurement runs on one thread unless
 * --threads says otherwise, so the number is a single-thread figure
 * comparable across commits. CI uploads the JSON artifact so the
 * throughput trend is visible per commit.
 */
// figmap: (perf) | single-thread simulated-MIPS throughput gate

#include <cstdio>
#include <fstream>
#include <string>

#include "harness/harness.hh"
#include "sim/report.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv, sweep::kPerfGateFrontEnd);
    const std::string &out_path = cli().outPath;
    const double min_mips = cli().minMips;

    const SystemConfig cfg =
        withHermes(cfgBaseline(), PredictorKind::Popet);
    const SimBudget b = budget();
    const auto results = runSuite(cfg, b);

    std::uint64_t instrs = 0;
    double seconds = 0;
    HostProfile prof;
    std::string points_json;
    std::printf("== perf_gate: suite %s hot-path throughput ==\n",
                suiteName().c_str());
    for (const auto &r : results) {
        const HostPerf &hp = r.stats.hostPerf;
        std::printf("%-32s %8.2f MIPS (%lu instrs, %.3f s)\n",
                    r.trace.c_str(), hp.mips(),
                    static_cast<unsigned long>(hp.instrs), hp.seconds);
        instrs += hp.instrs;
        seconds += hp.seconds;
        const HostProfile &p = r.stats.profile;
        prof.enabled = prof.enabled || p.enabled;
        prof.dramSeconds += p.dramSeconds;
        prof.llcSeconds += p.llcSeconds;
        prof.l2Seconds += p.l2Seconds;
        prof.l1Seconds += p.l1Seconds;
        prof.coreSeconds += p.coreSeconds;
        prof.horizonSeconds += p.horizonSeconds;
        prof.tickedCycles += p.tickedCycles;
        prof.skippedCycles += p.skippedCycles;
        if (!points_json.empty())
            points_json += ",";
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "\n    {\"trace\":\"%s\",\"mips\":%.3f,"
                      "\"instrs\":%lu,\"seconds\":%.6f}",
                      r.trace.c_str(), hp.mips(),
                      static_cast<unsigned long>(hp.instrs), hp.seconds);
        points_json += buf;
    }
    const double mips =
        seconds > 0 ? static_cast<double>(instrs) / seconds / 1e6 : 0;
    std::printf("aggregate: %lu instrs in %.3f s = %.3f MIPS\n",
                static_cast<unsigned long>(instrs), seconds, mips);
    const std::uint64_t total_cycles =
        prof.tickedCycles + prof.skippedCycles;
    std::printf("event-horizon: %lu ticked + %lu skipped cycles "
                "(%.1f%% skipped)\n",
                static_cast<unsigned long>(prof.tickedCycles),
                static_cast<unsigned long>(prof.skippedCycles),
                total_cycles ? 100.0 *
                                   static_cast<double>(prof.skippedCycles) /
                                   static_cast<double>(total_cycles)
                             : 0.0);
    if (prof.enabled)
        std::printf("profile: dram %.3fs llc %.3fs l2 %.3fs l1 %.3fs "
                    "core %.3fs horizon %.3fs\n",
                    prof.dramSeconds, prof.llcSeconds, prof.l2Seconds,
                    prof.l1Seconds, prof.coreSeconds,
                    prof.horizonSeconds);

    char head[256];
    std::snprintf(head, sizeof(head),
                  "  \"threads\": %d,\n"
                  "  \"total_instrs\": %lu,\n  \"run_seconds\": %.6f,\n"
                  "  \"mips\": %.3f,\n  \"points\": [",
                  cli().threads, static_cast<unsigned long>(instrs),
                  seconds, mips);
    char prof_json[512];
    std::snprintf(
        prof_json, sizeof(prof_json),
        ",\n  \"profile\": {\n"
        "    \"enabled\": %s,\n"
        "    \"ticked_cycles\": %lu,\n"
        "    \"skipped_cycles\": %lu,\n"
        "    \"dram_seconds\": %.6f,\n"
        "    \"llc_seconds\": %.6f,\n"
        "    \"l2_seconds\": %.6f,\n"
        "    \"l1_seconds\": %.6f,\n"
        "    \"core_seconds\": %.6f,\n"
        "    \"horizon_seconds\": %.6f\n  }",
        prof.enabled ? "true" : "false",
        static_cast<unsigned long>(prof.tickedCycles),
        static_cast<unsigned long>(prof.skippedCycles),
        prof.dramSeconds, prof.llcSeconds, prof.l2Seconds,
        prof.l1Seconds, prof.coreSeconds, prof.horizonSeconds);
    const std::string json = "{\n  \"suite\": \"" +
                             jsonEscape(suiteName()) + "\",\n" + head +
                             points_json + "\n  ]" + prof_json + "\n}\n";
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << json;
        if (!out) {
            std::fprintf(stderr, "error: could not write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", out_path.c_str());
    }

    if (min_mips > 0 && mips < min_mips) {
        std::fprintf(stderr,
                     "perf_gate FAILED: %.3f MIPS < required %.3f\n",
                     mips, min_mips);
        return 1;
    }
    return 0;
}
