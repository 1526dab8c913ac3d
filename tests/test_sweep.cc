// Tests for the work-stealing sweep engine: determinism at any thread
// count, edge cases and the CSV/JSON dumps.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "sim/report.hh"
#include "sweep/sweep.hh"

namespace hermes
{
namespace
{

SimBudget
tinyBudget()
{
    SimBudget b;
    b.warmupInstrs = 2'000;
    b.simInstrs = 8'000;
    return b;
}

/** A (2 configs x 3 traces) grid, small enough for unit tests. */
std::vector<sweep::GridPoint>
smallGrid()
{
    const SimBudget b = tinyBudget();
    SystemConfig nopf = SystemConfig::baseline(1);
    SystemConfig pythia = nopf;
    pythia.prefetcher = PrefetcherKind::Pythia;

    const auto traces = quickSuite();
    std::vector<sweep::GridPoint> grid;
    for (int c = 0; c < 2; ++c) {
        const SystemConfig &cfg = c == 0 ? nopf : pythia;
        for (int t = 0; t < 3; ++t)
            grid.push_back({"cfg" + std::to_string(c) + "." +
                                traces[t].name(),
                            cfg,
                            {traces[t]},
                            b});
    }
    return grid;
}

std::string
csvAt(int threads)
{
    sweep::SweepOptions opts;
    opts.threads = threads;
    return sweep::toCsv(sweep::SweepEngine(opts).run(smallGrid()),
                        defaultStatColumns());
}

TEST(Sweep, EmptyGridReturnsEmpty)
{
    sweep::SweepOptions opts;
    opts.threads = 4;
    const auto results = sweep::SweepEngine(opts).run({});
    EXPECT_TRUE(results.empty());
}

TEST(Sweep, SinglePointWithManyThreads)
{
    sweep::SweepOptions opts;
    opts.threads = 8;
    std::vector<sweep::GridPoint> grid = {
        {"solo", SystemConfig::baseline(1), {quickSuite()[0]},
         tinyBudget()}};
    const auto results = sweep::SweepEngine(opts).run(grid);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].index, 0u);
    EXPECT_EQ(results[0].label, "solo");
    EXPECT_GT(results[0].stats.instrsRetired(), 0u);
    EXPECT_GE(results[0].wallSeconds, 0.0);
}

TEST(Sweep, ResultsIdenticalAtAnyThreadCount)
{
    const std::string serial = csvAt(1);
    EXPECT_EQ(serial, csvAt(2));
    EXPECT_EQ(serial, csvAt(5));
    EXPECT_EQ(serial, csvAt(16));
}

TEST(Sweep, RepeatedRunsAreDeterministic)
{
    EXPECT_EQ(csvAt(3), csvAt(3));
}

TEST(Sweep, ProgressReportsEveryPoint)
{
    std::atomic<std::size_t> calls{0};
    std::size_t last_done = 0, last_total = 0;
    sweep::SweepOptions opts;
    opts.threads = 3;
    opts.onProgress = [&](std::size_t done, std::size_t total,
                          const sweep::PointResult &r) {
        ++calls;
        last_done = done;
        last_total = total;
        EXPECT_FALSE(r.label.empty());
    };
    const auto grid = smallGrid();
    sweep::SweepEngine(opts).run(grid);
    EXPECT_EQ(calls.load(), grid.size());
    EXPECT_EQ(last_done, grid.size());
    EXPECT_EQ(last_total, grid.size());
}

TEST(Sweep, SkipMaskRunsOnlySelectedPoints)
{
    const auto grid = smallGrid();
    const auto full = sweep::SweepEngine().run(grid);

    std::vector<bool> skip(grid.size(), false);
    skip[1] = skip[4] = true;
    const auto partial = sweep::SweepEngine().run(grid, skip);
    ASSERT_EQ(partial.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        // Identity is filled either way; skipped slots stay empty.
        EXPECT_EQ(partial[i].index, i);
        EXPECT_EQ(partial[i].label, grid[i].label);
        if (skip[i]) {
            EXPECT_EQ(partial[i].stats.instrsRetired(), 0u);
        } else {
            // Seeds are keyed by grid index, so a point simulates
            // identically with or without its neighbours.
            EXPECT_EQ(statsFingerprint(partial[i].stats),
                      statsFingerprint(full[i].stats));
        }
    }
    EXPECT_THROW(
        sweep::SweepEngine().run(grid, std::vector<bool>(2, false)),
        std::invalid_argument);
}

TEST(Sweep, SkipAllRunsNothing)
{
    const auto grid = smallGrid();
    std::size_t progress_calls = 0;
    sweep::SweepOptions opts;
    opts.onProgress = [&](std::size_t, std::size_t,
                          const sweep::PointResult &) {
        ++progress_calls;
    };
    const auto results = sweep::SweepEngine(opts).run(
        grid, std::vector<bool>(grid.size(), true));
    EXPECT_EQ(results.size(), grid.size());
    EXPECT_EQ(progress_calls, 0u);
}

TEST(Sweep, ThreadsZeroMeansHardwareConcurrency)
{
    // The documented contract for --threads 0 (and the default).
    sweep::SweepOptions opts;
    opts.threads = 0;
    const sweep::SweepEngine eng(opts);
    const unsigned hw = std::thread::hardware_concurrency();
    const int expected = hw ? static_cast<int>(hw) : 1;
    EXPECT_EQ(eng.effectiveThreads(100000), expected);
    // Never more threads than points.
    EXPECT_EQ(eng.effectiveThreads(1), 1);
    EXPECT_EQ(eng.effectiveThreads(0), 1);
}

TEST(Sweep, SweepFingerprintKeyedOnResults)
{
    const auto results = sweep::SweepEngine().run(smallGrid());
    const std::uint64_t base = sweep::sweepFingerprint(results);
    EXPECT_EQ(base, sweep::sweepFingerprint(results));
    auto tweaked = results;
    tweaked[0].stats.simCycles += 1;
    EXPECT_NE(sweep::sweepFingerprint(tweaked), base);
    EXPECT_NE(sweep::sweepFingerprint({}), base);
}

TEST(Sweep, ProgressMeterReportsRateAndEta)
{
    const sweep::ProgressMeter meter;
    const std::string start = meter.line(0, 10, "warm");
    EXPECT_NE(start.find("[0/10]"), std::string::npos);
    EXPECT_EQ(start.find("pts/s"), std::string::npos);
    const std::string mid = meter.line(5, 10, "half");
    EXPECT_NE(mid.find("[5/10]"), std::string::npos);
    EXPECT_NE(mid.find("pts/s"), std::string::npos);
    EXPECT_NE(mid.find("eta"), std::string::npos);
}

TEST(Sweep, MultiCoreMixPointRuns)
{
    SystemConfig cfg = SystemConfig::baseline(2);
    const auto traces = quickSuite();
    sweep::GridPoint p{
        "mix", cfg, {traces[0], traces[1]}, tinyBudget()};
    const auto results = sweep::SweepEngine().run({p});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].stats.core.size(), 2u);
}

TEST(Sweep, PointExceptionPropagatesToCaller)
{
    // 2-core config with a single trace: a grid point must list one
    // trace per core.
    SystemConfig cfg = SystemConfig::baseline(2);
    sweep::GridPoint bad{"bad", cfg, {quickSuite()[0]}, tinyBudget()};
    sweep::SweepOptions opts;
    opts.threads = 2;
    EXPECT_THROW(sweep::SweepEngine(opts).run({bad, bad}),
                 std::invalid_argument);
}

TEST(Sweep, ErrorStopsDispatchOfQueuedPoints)
{
    // After a point fails, the run is doomed to rethrow — queued
    // points must be abandoned, not simulated and discarded. Serial
    // execution makes the assertion deterministic.
    SystemConfig bad_cfg = SystemConfig::baseline(2);
    sweep::GridPoint bad{"bad", bad_cfg, {quickSuite()[0]},
                         tinyBudget()};
    std::vector<sweep::GridPoint> grid = smallGrid();
    grid.insert(grid.begin(), bad);

    std::size_t progress_calls = 0;
    sweep::SweepOptions opts;
    opts.threads = 1;
    opts.onProgress = [&](std::size_t, std::size_t,
                          const sweep::PointResult &) {
        ++progress_calls;
    };
    EXPECT_THROW(sweep::SweepEngine(opts).run(grid),
                 std::invalid_argument);
    EXPECT_EQ(progress_calls, 1u);
}

TEST(SweepOutput, CsvHasHeaderAndOneRowPerPoint)
{
    const auto results = sweep::SweepEngine().run(smallGrid());
    const std::string csv = sweep::toCsv(results, defaultStatColumns());
    const auto lines = std::count(csv.begin(), csv.end(), '\n');
    EXPECT_EQ(static_cast<std::size_t>(lines), results.size() + 1);
    EXPECT_EQ(csv.rfind("label,", 0), 0u);
}

TEST(SweepOutput, JsonShape)
{
    EXPECT_EQ(sweep::toJson({}, defaultStatColumns()), "[]");
    const auto results = sweep::SweepEngine().run(smallGrid());
    const std::string json = sweep::toJson(results, defaultStatColumns());
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    std::size_t labels = 0, pos = 0;
    while ((pos = json.find("\"label\":", pos)) != std::string::npos) {
        ++labels;
        pos += 1;
    }
    EXPECT_EQ(labels, results.size());
}

} // namespace
} // namespace hermes
