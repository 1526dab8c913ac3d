// Tests for the statistics registry: schema completeness, the
// --stats column-selection grammar, zero-input hardening of every
// derived metric, and byte-identity of the registry-driven CSV/JSON
// rows and statsFingerprint() against the pre-registry hand-rolled
// implementations (kept here, verbatim, as executable goldens).

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "sim/power.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/stat_registry.hh"

namespace hermes
{
namespace
{

// --- the pre-registry implementations, pinned ------------------------

std::string
legacyNum(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

std::string
legacyNum(std::uint64_t v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

/** Verbatim pre-refactor formatCsvRow() (aggregateFields inlined). */
std::string
legacyCsvRow(const std::string &label, const RunStats &stats)
{
    std::uint64_t loads = 0, offchip = 0;
    for (const auto &c : stats.core) {
        loads += c.loadsRetired;
        offchip += c.loadsOffChip;
    }
    const PredictorStats pred = stats.predTotal();
    const PowerBreakdown power = computePower(stats);
    const double total_ipc =
        stats.simCycles
            ? static_cast<double>(stats.instrsRetired()) /
                  static_cast<double>(stats.simCycles)
            : 0.0;
    std::string out = label;
    for (const std::string &v :
         {legacyNum(stats.simCycles), legacyNum(stats.instrsRetired()),
          legacyNum(total_ipc), legacyNum(stats.llcMpki()),
          legacyNum(loads), legacyNum(offchip),
          legacyNum(pred.accuracy()), legacyNum(pred.coverage()),
          legacyNum(stats.dram.totalReads()),
          legacyNum(stats.dram.writes),
          legacyNum(stats.dram.hermesIssued),
          legacyNum(stats.dram.hermesUseful),
          legacyNum(stats.dram.hermesDropped),
          legacyNum(stats.llc.prefetchIssued),
          legacyNum(stats.llc.usefulPrefetches),
          legacyNum(power.total())})
        out += "," + v;
    return out;
}

void
legacyCacheHash(Fnv64 &h, const CacheStats &c)
{
    h.add(c.loadLookups);
    h.add(c.loadHits);
    h.add(c.rfoLookups);
    h.add(c.rfoHits);
    h.add(c.writebackLookups);
    h.add(c.writebackHits);
    h.add(c.prefetchLookups);
    h.add(c.prefetchDropped);
    h.add(c.prefetchIssued);
    h.add(c.mshrMerges);
    h.add(c.mshrLatePrefetchHits);
    h.add(c.fills);
    h.add(c.prefetchFills);
    h.add(c.evictions);
    h.add(c.dirtyEvictions);
    h.add(c.usefulPrefetches);
    h.add(c.uselessPrefetches);
    h.add(c.rqRejects);
}

/** Verbatim pre-refactor statsFingerprint(). */
std::uint64_t
legacyFingerprint(const RunStats &stats)
{
    Fnv64 h;
    h.add(stats.simCycles);
    h.add(stats.core.size());
    for (const CoreStats &c : stats.core) {
        h.add(c.cycles);
        h.add(c.instrsRetired);
        h.add(c.loadsRetired);
        h.add(c.storesRetired);
        h.add(c.branchesRetired);
        h.add(c.branchMispredicts);
        h.add(c.loadsOffChip);
        h.add(c.offChipBlocking);
        h.add(c.offChipNonBlocking);
        h.add(c.loadsServedByHermes);
        h.add(c.stallCyclesOffChip);
        h.add(c.stallCyclesOtherLoad);
        h.add(c.stallCyclesOther);
        h.add(c.stallCyclesEliminable);
    }
    for (const BranchStats &b : stats.branch) {
        h.add(b.lookups);
        h.add(b.mispredicts);
    }
    for (const PredictorStats &p : stats.predictor) {
        h.add(p.truePositives);
        h.add(p.falsePositives);
        h.add(p.falseNegatives);
        h.add(p.trueNegatives);
    }
    for (const std::uint64_t c : stats.coreFinishCycle)
        h.add(c);
    legacyCacheHash(h, stats.l1);
    legacyCacheHash(h, stats.l2);
    legacyCacheHash(h, stats.llc);
    const DramStats &d = stats.dram;
    h.add(d.demandReads);
    h.add(d.prefetchReads);
    h.add(d.hermesReads);
    h.add(d.writes);
    h.add(d.rowHits);
    h.add(d.rowMisses);
    h.add(d.rowConflicts);
    h.add(d.readMerges);
    h.add(d.wqForwards);
    h.add(d.hermesIssued);
    h.add(d.hermesMergedIntoExisting);
    h.add(d.hermesDropped);
    h.add(d.hermesUseful);
    h.add(d.hermesRejected);
    // The prefetcher's counts, which are the LLC's prefetch counters.
    h.add(stats.llc.prefetchIssued);
    h.add(stats.llc.usefulPrefetches);
    h.add(stats.llc.uselessPrefetches);
    h.add(stats.hermesRequestsScheduled);
    h.add(stats.hermesLoadsServed);
    return h.value();
}

// --- fixtures --------------------------------------------------------

SimBudget
tinyBudget()
{
    SimBudget b;
    b.warmupInstrs = 4'000;
    b.simInstrs = 12'000;
    return b;
}

/**
 * Every raw counter set to a distinct value via registry setters: the
 * values @p first, @p first + @p step, ... in codec-plan order.
 */
RunStats
syntheticStats(std::size_t cores, std::uint64_t first = 1,
               std::uint64_t step = 1)
{
    RunStats s;
    std::uint64_t v = first;
    for (const StatCodecItem &item :
         StatRegistry::instance().codecPlan()) {
        switch (item.kind) {
        case StatCodecItem::Kind::Scalar:
            item.defs[0]->setU64(s, v);
            v += step;
            break;
        case StatCodecItem::Kind::Group:
            item.resize(s, cores);
            for (std::size_t i = 0; i < cores; ++i)
                for (const StatDef *d : item.defs) {
                    d->setAtU64(s, i, v);
                    v += step;
                }
            break;
        case StatCodecItem::Kind::Section:
            for (const StatDef *d : item.defs) {
                d->setU64(s, v);
                v += step;
            }
            break;
        }
    }
    return s;
}

TEST(StatRegistry, EnumeratesTheWholeSchema)
{
    const auto &reg = StatRegistry::instance();
    EXPECT_GE(reg.stats().size(), 30u);

    std::set<std::string> keys;
    for (const StatDef &d : reg.stats()) {
        EXPECT_TRUE(keys.insert(d.key).second) << d.key;
        EXPECT_FALSE(d.doc.empty()) << d.key;
        // Every statistic must be readable one way or another.
        EXPECT_TRUE(d.getU64 || d.getF64) << d.key;
        EXPECT_EQ(reg.find(d.key), &d);
        // The --list-stats table names every key.
        EXPECT_NE(reg.describe().find(d.key), std::string::npos)
            << d.key;
    }
}

TEST(StatRegistry, FingerprintMatchesLegacyOnSimulatedRuns)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = PrefetcherKind::Pythia;
    cfg.predictor = PredictorKind::Popet;
    cfg.hermesIssueEnabled = true;
    const RunStats one =
        simulate(cfg, {findTrace("spec06.mcf_like.0")}, tinyBudget());
    EXPECT_EQ(statsFingerprint(one), legacyFingerprint(one));

    SystemConfig multi = SystemConfig::baseline(2);
    multi.predictor = PredictorKind::Popet;
    multi.hermesIssueEnabled = true;
    const RunStats mix = simulate(
        multi,
        {findTrace("spec06.mcf_like.0"), findTrace("ligra.bfs_like.0")},
        tinyBudget());
    EXPECT_EQ(statsFingerprint(mix), legacyFingerprint(mix));
}

TEST(StatRegistry, FingerprintMatchesLegacyOnSyntheticStats)
{
    // Distinct values in every counter: any ordering or coverage drift
    // between the registry plan and the legacy hash shows up here.
    for (const std::size_t cores : {std::size_t{1}, std::size_t{4}}) {
        const RunStats s = syntheticStats(cores);
        EXPECT_EQ(statsFingerprint(s), legacyFingerprint(s)) << cores;
    }
}

TEST(StatRegistry, FingerprintIgnoresHostPerfAndConfigEchoes)
{
    RunStats s = syntheticStats(2);
    const std::uint64_t base = statsFingerprint(s);
    s.hostPerf.seconds = 123.0;
    s.hostPerf.instrs = 456;
    s.dramChannels += 7;
    s.dramBusCyclesPerLine += 9;
    EXPECT_EQ(statsFingerprint(s), base);
}

TEST(StatRegistry, WindowIsEndMinusStartForEveryRawCounter)
{
    // Every raw key set through the registry setters, with a distinct
    // difference per key: a counter registered later is windowed too,
    // and a key windowed twice or not at all shows up here.
    const RunStats start = syntheticStats(2, 1, 1);
    RunStats end = syntheticStats(2, 1000, 3);
    end.hostPerf.seconds = 2.5;
    end.hostPerf.instrs = 4321;
    const RunStats w = windowStats(end, start);

    for (const StatCodecItem &item :
         StatRegistry::instance().codecPlan()) {
        if (item.kind == StatCodecItem::Kind::Group) {
            ASSERT_EQ(item.count(w), 2u) << item.name;
            for (std::size_t i = 0; i < 2; ++i)
                for (const StatDef *d : item.defs)
                    EXPECT_EQ(d->getAtU64(w, i),
                              d->getAtU64(end, i) - d->getAtU64(start, i))
                        << d->key << "[" << i << "]";
            continue;
        }
        for (const StatDef *d : item.defs) {
            if (d->agg == StatAgg::Config)
                EXPECT_EQ(d->getU64(w), d->getU64(end)) << d->key;
            else
                EXPECT_EQ(d->getU64(w), d->getU64(end) - d->getU64(start))
                    << d->key;
        }
    }
    EXPECT_NE(end.dramChannels, start.dramChannels); // echoes differ
    EXPECT_EQ(w.hostPerf.seconds, 2.5);
    EXPECT_EQ(w.hostPerf.instrs, 4321u);

    // A window from nothing is the snapshot itself.
    EXPECT_EQ(statsFingerprint(windowStats(end, RunStats{})),
              statsFingerprint(end));
}

TEST(StatRegistry, SumIsAPlusBForEveryRawCounter)
{
    // The twin of the window walk: every raw key added through the
    // registry bindings, so a counter registered later is summed too.
    const RunStats a = syntheticStats(2, 1000, 3);
    RunStats b = syntheticStats(2, 1, 1);
    b.hostPerf.seconds = 2.5;
    const RunStats sum = sumStats(a, b);

    for (const StatCodecItem &item :
         StatRegistry::instance().codecPlan()) {
        if (item.kind == StatCodecItem::Kind::Group) {
            ASSERT_EQ(item.count(sum), 2u) << item.name;
            for (std::size_t i = 0; i < 2; ++i)
                for (const StatDef *d : item.defs)
                    EXPECT_EQ(d->getAtU64(sum, i),
                              d->getAtU64(a, i) + d->getAtU64(b, i))
                        << d->key << "[" << i << "]";
            continue;
        }
        for (const StatDef *d : item.defs) {
            if (d->agg == StatAgg::Config)
                EXPECT_EQ(d->getU64(sum), d->getU64(a)) << d->key;
            else
                EXPECT_EQ(d->getU64(sum), d->getU64(a) + d->getU64(b))
                    << d->key;
        }
    }
    EXPECT_EQ(sum.hostPerf.seconds, a.hostPerf.seconds);

    // Adding nothing changes nothing.
    EXPECT_EQ(statsFingerprint(sumStats(a, RunStats{})),
              statsFingerprint(a));
}

TEST(StatRegistry, CsvAndJsonRowsMatchLegacyAcrossQuickSuite)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = PrefetcherKind::Pythia;
    cfg.predictor = PredictorKind::Popet;
    cfg.hermesIssueEnabled = true;
    for (const TraceSpec &t : quickSuite()) {
        const RunStats s = simulate(cfg, {t}, tinyBudget());
        EXPECT_EQ(formatCsvRow(t.name(), s, defaultStatColumns()),
                  legacyCsvRow(t.name(), s))
            << t.name();
    }
    // The pinned pre-refactor header, byte for byte.
    EXPECT_EQ(csvHeader(defaultStatColumns()),
              "label,cycles,instrs,ipc,llc_mpki,loads,offchip_loads,"
              "pred_accuracy,pred_coverage,dram_reads,dram_writes,"
              "hermes_issued,hermes_useful,hermes_dropped,pf_issued,"
              "pf_useful,power_mw");
    EXPECT_EQ(csvHeader(defaultStatColumns(true)),
              csvHeader(defaultStatColumns()) +
                  std::string(",sim_mips,host_seconds"));
}

TEST(StatRegistry, DerivedMetricsAreZeroOnEmptyInputs)
{
    // Placeholder rows (e.g. grid points another shard owns) must
    // render every derived metric as 0 — never NaN or inf.
    const RunStats empty;
    for (const StatDef &d : StatRegistry::instance().stats()) {
        if (d.getF64) {
            const double v = d.getF64(empty);
            EXPECT_TRUE(std::isfinite(v)) << d.key;
            EXPECT_EQ(v, 0.0) << d.key;
        }
        if (d.getAtF64) {
            for (const std::size_t i : {std::size_t{0}, std::size_t{9}}) {
                const double v = d.getAtF64(empty, i);
                EXPECT_TRUE(std::isfinite(v)) << d.key << "[" << i << "]";
                EXPECT_EQ(v, 0.0) << d.key << "[" << i << "]";
            }
        }
        if (d.getAtU64) {
            EXPECT_EQ(d.getAtU64(empty, 5), 0u) << d.key;
        }
    }

    // A window with cycles but nothing retired is equally safe.
    RunStats idle;
    idle.simCycles = 1000;
    idle.core.resize(2);
    idle.dramChannels = 1;
    idle.dramBusCyclesPerLine = 10;
    for (const StatDef &d : StatRegistry::instance().stats()) {
        if (d.getF64) {
            EXPECT_TRUE(std::isfinite(d.getF64(idle))) << d.key;
        }
    }
}

TEST(StatRegistry, DerivedMetricsComputeTheDocumentedRatios)
{
    RunStats s;
    s.simCycles = 1000;
    s.core.resize(2);
    s.core[0].instrsRetired = 3000;
    s.core[1].instrsRetired = 1000;
    s.core[0].loadsOffChip = 80;
    s.core[1].loadsOffChip = 20;
    s.hermesLoadsServed = 25;
    s.hermesRequestsScheduled = 50;
    s.dram.hermesIssued = 40;
    s.dram.demandReads = 60;
    s.dram.prefetchReads = 30;
    s.dram.hermesReads = 10;
    s.dram.writes = 100;
    s.dramChannels = 2;
    s.dramBusCyclesPerLine = 4;
    s.llc.loadLookups = 200;
    s.llc.loadHits = 150;

    EXPECT_DOUBLE_EQ(statF64(s, "core.ipc"), 4.0);
    EXPECT_DOUBLE_EQ(statF64(s, "llc.mpki"),
                     1000.0 * 50.0 / 4000.0);
    EXPECT_DOUBLE_EQ(statF64(s, "llc.hit_rate"), 0.75);
    EXPECT_DOUBLE_EQ(statF64(s, "hermes.issue_rate"), 0.8);
    EXPECT_DOUBLE_EQ(statF64(s, "hermes.served_rate"), 0.25);
    // (60+30+10+100) lines * 4 bus cycles / (1000 cycles * 2 channels)
    EXPECT_DOUBLE_EQ(statF64(s, "dram.bw_util"), 0.4);
    EXPECT_DOUBLE_EQ(statF64(s, "dram.reads"), 100.0);
    EXPECT_EQ(statU64(s, "core.instrs"), 4000u);
}

TEST(StatRegistry, ColumnSelectionGrammar)
{
    // Exact keys, per-core indexed forms and globs, in spec order.
    const auto cols =
        selectStatColumns(" core.ipc, core.0.ipc,pred.t?,dram.row_*");
    ASSERT_EQ(cols.size(), 7u);
    EXPECT_EQ(cols[0].name, "core_ipc");
    EXPECT_EQ(cols[0].coreIndex, -1);
    EXPECT_EQ(cols[1].name, "core_0_ipc");
    EXPECT_EQ(cols[1].coreIndex, 0);
    EXPECT_EQ(cols[2].name, "pred_tp");
    EXPECT_EQ(cols[3].name, "pred_tn");
    EXPECT_EQ(cols[4].name, "dram_row_hits");
    EXPECT_EQ(cols[5].name, "dram_row_misses");
    EXPECT_EQ(cols[6].name, "dram_row_conflicts");

    RunStats s;
    s.simCycles = 100;
    s.core.resize(1);
    s.core[0].instrsRetired = 250;
    s.coreFinishCycle = {100};
    EXPECT_EQ(statColumnValue(cols[0], s), "2.5");
    EXPECT_EQ(statColumnValue(cols[1], s), "2.5");
    // Out-of-range per-core reads render as 0 (shard placeholders).
    const auto far = selectStatColumns("core.7.instrs");
    EXPECT_EQ(statColumnValue(far[0], s), "0");

    EXPECT_THROW(selectStatColumns(""), std::invalid_argument);
    EXPECT_THROW(selectStatColumns("core.ipc,,cycles"),
                 std::invalid_argument);
    EXPECT_THROW(selectStatColumns("no.such.glob*"),
                 std::invalid_argument);
    EXPECT_THROW(selectStatColumns("cycles.0"), std::invalid_argument);
    // An overflowing index must fail as a bad spec, not escape as
    // std::out_of_range past the CLIs' invalid_argument handlers.
    EXPECT_THROW(
        selectStatColumns("core.99999999999999999999.ipc"),
        std::invalid_argument);
    // Indexing a non-per-core statistic is an error.
    EXPECT_THROW(selectStatColumns("llc.0.load_lookups"),
                 std::invalid_argument);
    try {
        selectStatColumns("core.ipcc");
        FAIL() << "unknown key must be rejected";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("core.ipc"),
                  std::string::npos)
            << e.what();
    }
}

TEST(StatRegistry, HostPerfColumnsAppendWithoutDuplicating)
{
    // --mips keeps its sim_mips/host_seconds dump columns when a
    // --stats selection is active, without doubling an explicit pick.
    auto cols = selectStatColumns("core.ipc");
    appendHostPerfColumns(cols);
    ASSERT_EQ(cols.size(), 3u);
    EXPECT_EQ(cols[1].name, "sim_mips");
    EXPECT_EQ(cols[2].name, "host_seconds");

    auto picked = selectStatColumns("host.seconds,core.ipc");
    appendHostPerfColumns(picked);
    ASSERT_EQ(picked.size(), 3u); // only sim_mips was missing
    EXPECT_EQ(picked[2].name, "sim_mips");
}

TEST(StatRegistry, SelectedColumnsRenderTheSameValuesAsDefaults)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = PrefetcherKind::Pythia;
    const RunStats s =
        simulate(cfg, {findTrace("ligra.bfs_like.0")}, tinyBudget());
    // A selection naming the default columns' keys produces the same
    // values (only the header names differ: keys vs legacy aliases).
    const auto sel = selectStatColumns("cycles,core.instrs,core.ipc");
    const std::string row = formatCsvRow("x", s, sel);
    const std::string def = formatCsvRow("x", s, defaultStatColumns());
    EXPECT_EQ(row, def.substr(0, row.size()));
    EXPECT_EQ(csvHeader(sel), "label,cycles,core_instrs,core_ipc");

    // JSON and CSV render identical value strings per column.
    const std::string json = formatJsonRow("x", s, sel);
    for (const StatColumn &c : sel)
        EXPECT_NE(json.find("\"" + c.name +
                            "\":" + statColumnValue(c, s)),
                  std::string::npos)
            << c.name;
}

} // namespace
} // namespace hermes
