// End-to-end system tests: full-stack invariants, the paper's
// qualitative orderings on small runs, multi-core operation, Hermes
// coherence (drop-without-fill) and determinism.

#include <gtest/gtest.h>

#include "sim/power.hh"
#include "sim/simulator.hh"
#include "sim/stat_registry.hh"
#include "sim/system.hh"

namespace hermes
{
namespace
{

SimBudget
smallBudget()
{
    SimBudget b;
    b.warmupInstrs = 30'000;
    b.simInstrs = 80'000;
    return b;
}

TEST(System, BaselineRunsAndProducesSaneStats)
{
    const auto spec = findTrace("spec06.lbm_like.0");
    const RunStats r =
        simulate(SystemConfig::baseline(1), {spec}, smallBudget());
    EXPECT_GE(r.core[0].instrsRetired, 80'000u);
    EXPECT_GT(r.ipc(0), 0.05);
    EXPECT_LT(r.ipc(0), 6.1);
    EXPECT_GT(r.llcMpki(), 1.0);
    // Stats consistency.
    EXPECT_LE(r.l1.loadHits, r.l1.loadLookups);
    EXPECT_LE(r.l2.loadHits, r.l2.loadLookups);
    EXPECT_LE(r.llc.loadHits, r.llc.loadLookups);
    EXPECT_LE(r.core[0].loadsOffChip, r.core[0].loadsRetired);
    EXPECT_GT(r.dram.totalReads(), 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    const auto spec = findTrace("ligra.bfs_like.0");
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = PrefetcherKind::Pythia;
    cfg.predictor = PredictorKind::Popet;
    cfg.hermesIssueEnabled = true;
    const RunStats a = simulate(cfg, {spec}, smallBudget());
    const RunStats b = simulate(cfg, {spec}, smallBudget());
    EXPECT_EQ(a.simCycles, b.simCycles);
    EXPECT_EQ(a.core[0].instrsRetired, b.core[0].instrsRetired);
    EXPECT_EQ(a.dram.totalReads(), b.dram.totalReads());
    EXPECT_EQ(a.predTotal().truePositives, b.predTotal().truePositives);
}

TEST(System, PredictionCountsMatchCompletedLoads)
{
    const auto spec = findTrace("cvp.server_db_like.0");
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.predictor = PredictorKind::Popet;
    const RunStats r = simulate(cfg, {spec}, smallBudget());
    const PredictorStats p = r.predTotal();
    // Every retired load was predicted and trained exactly once
    // (modulo loads in flight at the measurement boundary).
    EXPECT_NEAR(static_cast<double>(p.total()),
                static_cast<double>(r.core[0].loadsRetired),
                0.02 * r.core[0].loadsRetired + 512);
}

TEST(System, HermesCoherenceDropNeverFills)
{
    // With Hermes enabled, LLC fills must still equal its own demand +
    // prefetch fetches: dropped Hermes requests never install lines.
    const auto spec = findTrace("ligra.pagerank_like.0");
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.predictor = PredictorKind::Popet;
    cfg.hermesIssueEnabled = true;
    const RunStats r = simulate(cfg, {spec}, smallBudget());
    EXPECT_GT(r.dram.hermesDropped, 0u); // mispredictions exist
    // Every LLC fill corresponds to an LLC-initiated fetch, not a
    // Hermes line: fills <= demand misses + prefetch issues (+ slack
    // for boundary effects).
    EXPECT_LE(r.llc.fills,
              r.llc.demandMisses() + r.llc.prefetchIssued + 64);
}

TEST(System, HermesServesLoadsAndHelpsOnIrregular)
{
    const auto spec = findTrace("spec06.mcf_like.0");
    SystemConfig base = SystemConfig::baseline(1);
    base.prefetcher = PrefetcherKind::Pythia;
    const RunStats rb = simulate(base, {spec}, smallBudget());

    SystemConfig hermes_cfg = base;
    hermes_cfg.predictor = PredictorKind::Popet;
    hermes_cfg.hermesIssueEnabled = true;
    const RunStats rh = simulate(hermes_cfg, {spec}, smallBudget());

    EXPECT_GT(rh.hermesLoadsServed, 0u);
    EXPECT_GT(rh.ipc(0), rb.ipc(0) * 1.08); // mcf-like: clear win
}

TEST(System, IdealPredictorIsNearPerfect)
{
    const auto spec = findTrace("cvp.server_db_like.0");
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = PrefetcherKind::Pythia;
    cfg.predictor = PredictorKind::Ideal;
    cfg.hermesIssueEnabled = true;
    const RunStats r = simulate(cfg, {spec}, smallBudget());
    const PredictorStats p = r.predTotal();
    EXPECT_GT(p.accuracy(), 0.9);
    EXPECT_GT(p.coverage(), 0.97);
}

TEST(System, PopetBeatsHmpOnAccuracyAndCoverage)
{
    const auto spec = findTrace("ligra.bfs_like.0");
    auto run_pred = [&](const char *pk) {
        SystemConfig cfg = SystemConfig::baseline(1);
        cfg.prefetcher = PrefetcherKind::Pythia;
        cfg.predictor = pk;
        return simulate(cfg, {spec}, smallBudget()).predTotal();
    };
    const PredictorStats popet = run_pred(PredictorKind::Popet);
    const PredictorStats hmp = run_pred(PredictorKind::Hmp);
    EXPECT_GT(popet.coverage(), hmp.coverage());
    EXPECT_GT(popet.accuracy() + popet.coverage(),
              hmp.accuracy() + hmp.coverage());
}

TEST(System, TtpHasHighestCoverage)
{
    // The robust TTP property at any horizon: near-total coverage
    // (every line absent from its metadata is predicted off-chip).
    // Its accuracy collapse (paper Fig. 9: 16.6%) additionally needs
    // LLC capacity churn that only accumulates over long horizons; see
    // EXPERIMENTS.md for the scaling discussion.
    const auto spec = findTrace("cvp.compute_int_like.0");
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = PrefetcherKind::Pythia;
    cfg.predictor = PredictorKind::Ttp;
    const PredictorStats p =
        simulate(cfg, {spec}, smallBudget()).predTotal();
    EXPECT_GT(p.coverage(), 0.85);
    SystemConfig pcfg = cfg;
    pcfg.predictor = PredictorKind::Popet;
    const PredictorStats q =
        simulate(pcfg, {spec}, smallBudget()).predTotal();
    EXPECT_GE(p.coverage() + 0.02, q.coverage());
}

TEST(System, PrefetcherReducesOffChipLoads)
{
    const auto spec = findTrace("parsec.streamcluster_like.0");
    SystemConfig nopf = SystemConfig::baseline(1);
    const RunStats r0 = simulate(nopf, {spec}, smallBudget());
    SystemConfig pf = nopf;
    pf.prefetcher = PrefetcherKind::Spp;
    const RunStats r1 = simulate(pf, {spec}, smallBudget());
    EXPECT_LT(r1.llc.demandMisses(), r0.llc.demandMisses());
    EXPECT_GT(r1.ipc(0), r0.ipc(0));
}

TEST(System, EightCoreRunsAllCores)
{
    SystemConfig cfg = SystemConfig::baseline(8);
    cfg.prefetcher = PrefetcherKind::Pythia;
    std::vector<TraceSpec> mix(8, findTrace("spec06.lbm_like.0"));
    SimBudget b;
    b.warmupInstrs = 5'000;
    b.simInstrs = 20'000;
    const RunStats r = simulate(cfg, mix, b);
    ASSERT_EQ(r.core.size(), 8u);
    for (int c = 0; c < 8; ++c) {
        EXPECT_GE(r.core[c].instrsRetired, 20'000u) << "core " << c;
        EXPECT_GT(r.ipc(c), 0.01) << "core " << c;
    }
    EXPECT_EQ(cfg.dram.channels, 4u);
}

TEST(System, SnapshotSumsEachCoresPrivateCachesThroughTheRegistry)
{
    // Every raw l1.* and l2.* key of a 2-core snapshot is the sum over
    // cores of that core's own cache counters.
    SystemConfig cfg = SystemConfig::baseline(2);
    cfg.prefetcher = PrefetcherKind::Pythia;
    SimBudget b;
    b.warmupInstrs = 5'000;
    SimSession session(
        cfg, {findTrace("spec06.mcf_like.0"), findTrace("ligra.bfs_like.0")},
        b);
    session.build();
    session.warmup();
    System &sys = session.system();
    const RunStats snap = sys.snapshot();

    std::size_t checked = 0;
    for (const StatCodecItem &item :
         StatRegistry::instance().codecPlan()) {
        if (item.name != "l1" && item.name != "l2")
            continue;
        for (const StatDef *d : item.defs) {
            std::uint64_t sum = 0;
            for (int i = 0; i < 2; ++i) {
                RunStats own;
                own.l1 = sys.l1At(i).stats();
                own.l2 = sys.l2At(i).stats();
                sum += d->getU64(own);
            }
            EXPECT_EQ(d->getU64(snap), sum) << d->key;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 2 * sizeof(CacheStats) / sizeof(std::uint64_t));
    // Both cores' private levels saw traffic, so the sums mean something.
    for (int i = 0; i < 2; ++i) {
        EXPECT_GT(sys.l1At(i).stats().loadLookups, 0u) << i;
        EXPECT_GT(sys.l2At(i).stats().loadLookups, 0u) << i;
    }
}

TEST(System, EightCoreHermesPredictorsPerCore)
{
    SystemConfig cfg = SystemConfig::baseline(4);
    cfg.prefetcher = PrefetcherKind::Pythia;
    cfg.predictor = PredictorKind::Popet;
    cfg.hermesIssueEnabled = true;
    std::vector<TraceSpec> mix(4, findTrace("ligra.bfs_like.0"));
    SimBudget b;
    b.warmupInstrs = 5'000;
    b.simInstrs = 15'000;
    const RunStats r = simulate(cfg, mix, b);
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(r.predictor[c].total(), 0u) << "core " << c;
}

TEST(System, BandwidthSweepIsMonotoneInThroughput)
{
    const auto spec = findTrace("spec06.lbm_like.0");
    double prev_ipc = 0;
    for (unsigned mtps : {400u, 3200u, 12800u}) {
        SystemConfig cfg = SystemConfig::baseline(1);
        cfg.dram.mtps = mtps;
        const RunStats r = simulate(cfg, {spec}, smallBudget());
        EXPECT_GE(r.ipc(0), prev_ipc * 0.93) << mtps;
        prev_ipc = r.ipc(0);
    }
}

TEST(System, LargerLlcReducesMisses)
{
    const auto spec = findTrace("cvp.server_db_like.0");
    SystemConfig small = SystemConfig::baseline(1);
    SystemConfig big = small;
    big.llcBytesPerCore = 24ull << 20;
    const RunStats r_small = simulate(small, {spec}, smallBudget());
    const RunStats r_big = simulate(big, {spec}, smallBudget());
    EXPECT_LE(r_big.llc.demandMisses(), r_small.llc.demandMisses());
}

TEST(System, PowerModelTracksActivity)
{
    const auto spec = findTrace("spec06.lbm_like.0");
    SystemConfig nopf = SystemConfig::baseline(1);
    const RunStats r0 = simulate(nopf, {spec}, smallBudget());
    SystemConfig pf = nopf;
    pf.prefetcher = PrefetcherKind::Pythia;
    const RunStats r1 = simulate(pf, {spec}, smallBudget());
    const PowerBreakdown p0 = computePower(r0);
    const PowerBreakdown p1 = computePower(r1);
    EXPECT_GT(p0.total(), 0.0);
    // Prefetching increases memory traffic energy per unit time.
    EXPECT_GT(p1.bus + p1.llc, 0.0);
}

TEST(System, HermesIssueLatencyMonotonicity)
{
    const auto spec = findTrace("spec06.mcf_like.0");
    SystemConfig fast = SystemConfig::baseline(1);
    fast.predictor = PredictorKind::Popet;
    fast.hermesIssueEnabled = true;
    fast.hermesIssueLatency = 0;
    SystemConfig slow = fast;
    slow.hermesIssueLatency = 24;
    const RunStats rf = simulate(fast, {spec}, smallBudget());
    const RunStats rs = simulate(slow, {spec}, smallBudget());
    EXPECT_GE(rf.ipc(0), rs.ipc(0) * 0.99);
}

TEST(System, ThrowsOnBadWorkloadCount)
{
    // One trace replicates across the cores; two on three cores cannot.
    SystemConfig cfg = SystemConfig::baseline(3);
    std::vector<TraceSpec> two(2, findTrace("spec06.lbm_like.0"));
    EXPECT_THROW(simulate(cfg, two, smallBudget()),
                 std::invalid_argument);
}

/** Property sweep: the full stack stays consistent across traces. */
class SystemTraceTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SystemTraceTest, FullStackInvariants)
{
    const auto spec = findTrace(GetParam());
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = PrefetcherKind::Pythia;
    cfg.predictor = PredictorKind::Popet;
    cfg.hermesIssueEnabled = true;
    SimBudget b;
    b.warmupInstrs = 15'000;
    b.simInstrs = 40'000;
    const RunStats r = simulate(cfg, {spec}, b);

    EXPECT_GE(r.core[0].instrsRetired, 40'000u);
    EXPECT_GT(r.ipc(0), 0.02);
    EXPECT_LE(r.core[0].loadsOffChip, r.core[0].loadsRetired);
    EXPECT_LE(r.l1.loadHits, r.l1.loadLookups);
    EXPECT_LE(r.llc.demandHits(), r.llc.demandLookups());
    EXPECT_LE(r.core[0].offChipBlocking + r.core[0].offChipNonBlocking,
              r.core[0].loadsOffChip + 1);
    const PredictorStats p = r.predTotal();
    EXPECT_GT(p.total(), 0u);
    // Hermes bookkeeping: useful + dropped == serviced hermes reads.
    EXPECT_EQ(r.dram.hermesUseful + r.dram.hermesDropped,
              r.dram.hermesReads);
}

INSTANTIATE_TEST_SUITE_P(
    QuickSuite, SystemTraceTest,
    ::testing::Values("spec06.mcf_like.0", "spec06.lbm_like.0",
                      "spec17.fotonik_like.0", "spec17.xalancbmk_like.0",
                      "parsec.streamcluster_like.0",
                      "parsec.canneal_like.0", "ligra.bfs_like.0",
                      "ligra.pagerank_like.0", "cvp.server_db_like.0",
                      "cvp.compute_int_like.0"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '.' || c == '-')
                c = '_';
        return n;
    });

} // namespace
} // namespace hermes
