// Tests for the statistics report formatting and the power model.

#include <gtest/gtest.h>

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

TEST(Report, ContainsAllSections)
{
    const RunStats r = sampleRun();
    const std::string report = formatReport(r);
    for (const char *needle :
         {"simulation report", "core 0", "off-chip predictor", "L1D",
          "LLC MPKI", "dram:", "hermes:", "dynamic power"})
        EXPECT_NE(report.find(needle), std::string::npos) << needle;
}

TEST(Report, CsvRowMatchesHeaderArity)
{
    const RunStats r = sampleRun();
    const std::string header = csvHeader();
    const std::string row = formatCsvRow("label", r);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
    EXPECT_EQ(row.rfind("label,", 0), 0u);
}

TEST(Report, JsonRowCarriesEveryCsvColumn)
{
    const RunStats r = sampleRun();
    const std::string json = formatJsonRow("a \"label\"", r);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"label\":\"a \\\"label\\\"\""),
              std::string::npos);

    // Every csvHeader() column name appears as a JSON key.
    std::istringstream header(csvHeader());
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

TEST(Budget, EnvScalingParsesFloats)
{
    setenv("HERMES_SIM_SCALE", "2.0", 1);
    const SimBudget b = SimBudget::fromEnv(100, 200);
    EXPECT_EQ(b.warmupInstrs, 200u);
    EXPECT_EQ(b.simInstrs, 400u);
    setenv("HERMES_SIM_SCALE", "bogus", 1);
    const SimBudget c = SimBudget::fromEnv(100, 200);
    EXPECT_EQ(c.simInstrs, 200u);
    unsetenv("HERMES_SIM_SCALE");
    const SimBudget d = SimBudget::fromEnv(100, 200);
    EXPECT_EQ(d.simInstrs, 200u);
}

} // namespace
} // namespace hermes
