// Tests for the statistics renderers (text lines, CSV and JSON rows)
// and the power model.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "sim/power.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

namespace hermes
{
namespace
{

RunStats
sampleRun()
{
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = PrefetcherKind::Pythia;
    cfg.predictor = PredictorKind::Popet;
    cfg.hermesIssueEnabled = true;
    SimBudget b;
    b.warmupInstrs = 10'000;
    b.simInstrs = 30'000;
    return simulate(cfg, {findTrace("spec06.mcf_like.0")}, b);
}

TEST(Report, ReportLinesHoldEveryKeyOnceAndEachCoresForms)
{
    // --report's columns: every registered key once and, on a 2-core
    // run, core.0. and core.1. forms of each per-core key, one
    // "key value" line each.
    SystemConfig cfg = SystemConfig::baseline(2);
    cfg.predictor = PredictorKind::Popet;
    SimBudget b;
    b.warmupInstrs = 2'000;
    b.simInstrs = 6'000;
    const RunStats r = simulate(
        cfg, {findTrace("spec06.mcf_like.0"), findTrace("ligra.bfs_like.0")},
        b);
    ASSERT_EQ(r.core.size(), 2u);

    std::multiset<std::string> want;
    for (const StatDef &d : StatRegistry::instance().stats()) {
        want.insert(d.key);
        if (!d.perCore())
            continue;
        const std::size_t dot = d.key.find('.');
        for (const char *core : {".0", ".1"})
            want.insert(d.key.substr(0, dot) + core + d.key.substr(dot));
    }

    std::multiset<std::string> got;
    std::istringstream lines(
        formatTextLines(r, allStatColumns(r.core.size())));
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string key, value, extra;
        ASSERT_TRUE(fields >> key >> value) << line;
        EXPECT_FALSE(fields >> extra) << line;
        got.insert(key);
    }
    EXPECT_EQ(got, want);
    EXPECT_NE(want.count("core.1.ipc"), 0u);
}

TEST(Report, CsvRowMatchesHeaderArity)
{
    const RunStats r = sampleRun();
    const std::string header = csvHeader(defaultStatColumns());
    const std::string row = formatCsvRow("label", r, defaultStatColumns());
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
    EXPECT_EQ(row.rfind("label,", 0), 0u);
}

TEST(Report, JsonRowCarriesEveryCsvColumn)
{
    const RunStats r = sampleRun();
    const std::string json =
        formatJsonRow("a \"label\"", r, defaultStatColumns());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"label\":\"a \\\"label\\\"\""),
              std::string::npos);

    // Every csvHeader() column name appears as a JSON key.
    std::istringstream header(csvHeader(defaultStatColumns()));
    std::string col;
    while (std::getline(header, col, ','))
        EXPECT_NE(json.find("\"" + col + "\":"), std::string::npos)
            << col;
}

TEST(Power, ZeroCyclesIsZeroPower)
{
    RunStats empty;
    const PowerBreakdown p = computePower(empty);
    EXPECT_DOUBLE_EQ(p.total(), 0.0);
}

TEST(Power, ComponentsArePositiveAfterRun)
{
    const PowerBreakdown p = computePower(sampleRun());
    EXPECT_GT(p.l1, 0.0);
    EXPECT_GT(p.l2, 0.0);
    EXPECT_GT(p.llc, 0.0);
    EXPECT_GT(p.bus, 0.0);
    EXPECT_GT(p.total(), p.bus);
}

TEST(Power, ScalesWithAccessEnergy)
{
    const RunStats r = sampleRun();
    PowerParams cheap;
    PowerParams costly = cheap;
    costly.dramAccessPj *= 2;
    EXPECT_GT(computePower(r, costly).bus, computePower(r, cheap).bus);
}

} // namespace
} // namespace hermes
