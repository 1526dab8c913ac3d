// Golden determinism / regression tests for the simulation hot path.
//
// Three layers of protection:
//  1. a fixed (config, seed) run must produce identical RunStats across
//     repeated invocations in one process;
//  2. SweepEngine must produce identical RunStats at any thread count;
//  3. a small set of golden fingerprints pinned in
//     tests/golden/fingerprints.txt must match exactly, so hot-path
//     refactors that silently change simulation results fail loudly.
//
// To refresh the goldens after an *intentional* behaviour change, run:
//   HERMES_UPDATE_GOLDEN=1 ./test_determinism
// which rewrites the golden file in the source tree.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "golden_util.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sweep/sweep.hh"
#include "trace/suite.hh"

namespace hermes
{
namespace
{

using golden::goldenBudget;
using golden::goldenPath;
using golden::loadGoldens;

/** A named golden scenario: key in the golden file + how to run it. */
struct GoldenCase
{
    std::string key;
    sweep::GridPoint point;
};

std::vector<GoldenCase>
goldenCases()
{
    const SimBudget b = goldenBudget();
    const TraceSpec mcf = findTrace("spec06.mcf_like.0");
    const TraceSpec stream = findTrace("parsec.streamcluster_like.0");

    SystemConfig base = SystemConfig::baseline(1);

    SystemConfig pythia = base;
    pythia.prefetcher = PrefetcherKind::Pythia;

    SystemConfig hermes_cfg = pythia;
    hermes_cfg.predictor = PredictorKind::Popet;
    hermes_cfg.hermesIssueEnabled = true;

    SystemConfig mix_cfg = SystemConfig::baseline(2);
    mix_cfg.prefetcher = PrefetcherKind::Pythia;
    mix_cfg.predictor = PredictorKind::Popet;
    mix_cfg.hermesIssueEnabled = true;

    // The DRAM write path: tiny caches evict dirty lines to DRAM, and an
    // 8-entry write queue makes drain mode steal read bandwidth. At the
    // golden budget this trace writes nothing, so it runs longer.
    SystemConfig writes_cfg = hermes_cfg;
    writes_cfg.l1Sets = 8;
    writes_cfg.l2Sets = 16;
    writes_cfg.llcBytesPerCore = 64 << 10;
    writes_cfg.dram.wqSize = 8;
    SimBudget writes_budget = b;
    writes_budget.simInstrs = 50'000;

    std::vector<GoldenCase> cases = {
        {"one.base.mcf", {"one.base.mcf", base, {mcf}, b}},
        {"one.pythia.stream", {"one.pythia.stream", pythia, {stream}, b}},
        {"one.hermes.mcf", {"one.hermes.mcf", hermes_cfg, {mcf}, b}},
        {"mix2.hermes", {"mix2.hermes", mix_cfg, {mcf, stream}, b}},
        {"one.writes.lbm",
         {"one.writes.lbm", writes_cfg, {findTrace("spec06.lbm_like.0")},
          writes_budget}},
    };

    // Every other prefetcher alone on the server trace, whose footprint
    // fills each model's page/region table and then evicts from it
    // (the stream trace touches too few pages to fill one), and on
    // which every one of them issues prefetches.
    const TraceSpec db = findTrace("cvp.server_db_like.0");
    for (const char *pf :
         {PrefetcherKind::Streamer, PrefetcherKind::Spp,
          PrefetcherKind::Bingo, PrefetcherKind::Sms, PrefetcherKind::Mlop}) {
        SystemConfig cfg = base;
        cfg.prefetcher = pf;
        const std::string key = std::string("one.") + pf + ".db";
        cases.push_back({key, {key, cfg, {db}, b}});
    }
    return cases;
}

RunStats
runCase(const GoldenCase &c)
{
    return simulate(c.point.config, c.point.traces, c.point.budget);
}

TEST(Determinism, RepeatedRunsProduceIdenticalStats)
{
    for (const GoldenCase &c : goldenCases()) {
        const RunStats a = runCase(c);
        const RunStats b = runCase(c);
        EXPECT_EQ(statsFingerprint(a), statsFingerprint(b)) << c.key;
        // Spot-check a few fields directly so a fingerprint bug cannot
        // mask a real divergence.
        EXPECT_EQ(a.simCycles, b.simCycles) << c.key;
        EXPECT_EQ(a.instrsRetired(), b.instrsRetired()) << c.key;
        EXPECT_EQ(a.llc.demandMisses(), b.llc.demandMisses()) << c.key;
        EXPECT_EQ(a.dram.totalReads(), b.dram.totalReads()) << c.key;
    }
}

TEST(Determinism, SweepThreadCountDoesNotChangeStats)
{
    std::vector<sweep::GridPoint> grid;
    for (const GoldenCase &c : goldenCases())
        grid.push_back(c.point);

    auto fingerprints = [&grid](int threads) {
        sweep::SweepOptions opts;
        opts.threads = threads;
        const auto results = sweep::SweepEngine(opts).run(grid);
        std::vector<std::uint64_t> fps;
        for (const auto &r : results)
            fps.push_back(statsFingerprint(r.stats));
        return fps;
    };

    const auto serial = fingerprints(1);
    EXPECT_EQ(serial, fingerprints(2));
    EXPECT_EQ(serial, fingerprints(8));
}

TEST(Determinism, GoldenFingerprintsMatch)
{
    std::map<std::string, std::uint64_t> actual;
    for (const GoldenCase &c : goldenCases())
        actual[c.key] = statsFingerprint(runCase(c));

    if (std::getenv("HERMES_UPDATE_GOLDEN") != nullptr) {
        ASSERT_TRUE(golden::writeGoldens(
            goldenPath(),
            "# Golden RunStats fingerprints (statsFingerprint).\n"
            "# Regenerate: HERMES_UPDATE_GOLDEN=1 ./test_determinism\n",
            actual))
            << "cannot write " << goldenPath();
        GTEST_LOG_(INFO) << "golden file updated: " << goldenPath();
        return;
    }

    const auto golden = loadGoldens();
    ASSERT_FALSE(golden.empty())
        << "missing/empty " << goldenPath()
        << " - regenerate with HERMES_UPDATE_GOLDEN=1";
    for (const auto &[key, fp] : actual) {
        const auto it = golden.find(key);
        ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
        EXPECT_EQ(it->second, fp)
            << key << ": simulation results changed; if intentional, "
            << "regenerate with HERMES_UPDATE_GOLDEN=1 ./test_determinism";
    }
}

} // namespace
} // namespace hermes
