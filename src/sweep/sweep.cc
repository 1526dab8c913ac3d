#include "sweep/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/config.hh"
#include "sim/report.hh"
#include "sim/warmup_cache.hh"

namespace hermes::sweep
{

namespace
{

/**
 * A mutex-guarded deque of grid indices per worker. Owners pop from the
 * back (LIFO keeps the hot point's memory warm); thieves steal from the
 * front (FIFO steals the largest remaining chunk of the round-robin
 * distribution first).
 */
class StealQueue
{
  public:
    void
    push(std::size_t v)
    {
        std::lock_guard<std::mutex> g(m_);
        q_.push_back(v);
    }

    bool
    popBack(std::size_t &out)
    {
        std::lock_guard<std::mutex> g(m_);
        if (q_.empty())
            return false;
        out = q_.back();
        q_.pop_back();
        return true;
    }

    bool
    stealFront(std::size_t &out)
    {
        std::lock_guard<std::mutex> g(m_);
        if (q_.empty())
            return false;
        out = q_.front();
        q_.pop_front();
        return true;
    }

  private:
    std::mutex m_;
    std::deque<std::size_t> q_;
};

RunStats
simulatePoint(const GridPoint &p, WarmupCache *warmup_cache)
{
    // Grid builders emit fully-specified trace lists, so unlike
    // simulate() (which replicates a lone trace across cores) a count
    // mismatch here is a caller bug and must propagate.
    if (p.traces.size() != static_cast<std::size_t>(p.config.numCores) &&
        !(p.traces.size() == 1 && p.config.numCores == 1))
        throw std::invalid_argument("need one trace per core");
    // The warmup store only short-circuits the warmup window.
    SimSession session(p.config, p.traces, p.budget);
    return runSession(session, warmup_cache);
}

} // namespace

ShardSpec
parseShardSpec(const std::string &spec)
{
    const auto slash = spec.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= spec.size())
        throw std::invalid_argument(
            "shard spec must look like i/N (e.g. 2/4); got '" + spec +
            "'");
    const auto idx = parseInt64(spec.substr(0, slash));
    const auto count = parseInt64(spec.substr(slash + 1));
    if (!idx || !count)
        throw std::invalid_argument(
            "shard spec must be two integers i/N; got '" + spec + "'");
    if (*count < 1)
        throw std::invalid_argument(
            "shard count must be at least 1; got '" + spec + "'");
    // Bound before the int narrowing: a count past INT_MAX would wrap
    // into a nonsense (possibly negative) partition.
    if (*count > std::numeric_limits<int>::max())
        throw std::invalid_argument(
            "shard count is out of range; got '" + spec + "'");
    if (*idx < 1 || *idx > *count)
        throw std::invalid_argument(
            "shard index must be in 1..N; got '" + spec + "'");
    return ShardSpec{static_cast<int>(*idx), static_cast<int>(*count)};
}

SweepEngine::SweepEngine(SweepOptions opts) : opts_(std::move(opts)) {}

bool
SweepEngine::inShard(std::size_t index, const ShardSpec &shard)
{
    // parseShardSpec() can't produce a degenerate spec, but a
    // hand-built one could: count < 1 would silently mean "the whole
    // grid" N times over, and an out-of-range index would make the
    // shard own nothing — both quietly corrupt a partition, so they
    // are hard errors here.
    if (shard.count < 1 || shard.index < 1 ||
        shard.index > shard.count)
        throw std::invalid_argument(
            "shard spec out of range: " + std::to_string(shard.index) +
            "/" + std::to_string(shard.count));
    if (shard.count == 1)
        return true;
    return index % static_cast<std::size_t>(shard.count) ==
           static_cast<std::size_t>(shard.index - 1);
}

int
SweepEngine::effectiveThreads(std::size_t points) const
{
    int t = opts_.threads;
    if (t <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        t = hw ? static_cast<int>(hw) : 1;
    }
    if (static_cast<std::size_t>(t) > points)
        t = static_cast<int>(points ? points : 1);
    return t;
}

std::vector<PointResult>
SweepEngine::run(const std::vector<GridPoint> &grid) const
{
    return run(grid, {});
}

std::vector<PointResult>
SweepEngine::run(const std::vector<GridPoint> &grid,
                 const std::vector<bool> &skip) const
{
    const std::size_t n = grid.size();
    if (!skip.empty() && skip.size() != n)
        throw std::invalid_argument(
            "skip mask size does not match the grid");

    std::vector<PointResult> results(n);
    std::vector<std::size_t> selected;
    selected.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Skipped slots still carry their identity so callers can
        // label and re-plan them without consulting the grid again.
        results[i].index = i;
        results[i].label = grid[i].label;
        if (skip.empty() || !skip[i])
            selected.push_back(i);
    }
    const std::size_t todo = selected.size();
    if (todo == 0)
        return results;

    const int threads = effectiveThreads(todo);

    std::size_t done = 0; ///< Guarded by progress_mutex.
    std::mutex progress_mutex;
    std::mutex error_mutex;
    std::exception_ptr first_error;
    // Once any point (or its journaling) fails the whole run is going
    // to rethrow, so don't burn hours simulating results that will be
    // discarded: in-flight points finish, queued ones are abandoned.
    std::atomic<bool> stop{false};

    auto record_error = [&] {
        std::lock_guard<std::mutex> g(error_mutex);
        if (!first_error)
            first_error = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
    };

    auto run_one = [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        PointResult r;
        r.index = i;
        r.label = grid[i].label;
        try {
            r.stats = simulatePoint(grid[i], opts_.warmupCache);
        } catch (...) {
            r.ok = false;
            record_error();
        }
        r.wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        results[i] = std::move(r);
        if (opts_.onProgress) {
            // Count and report under one lock so the done counter is
            // monotonic in callback order (the final done==total call
            // really is the last one). A throwing callback (e.g. a
            // journal append hitting a full disk) must not escape a
            // worker thread; it surfaces as the run's exception.
            std::lock_guard<std::mutex> g(progress_mutex);
            try {
                opts_.onProgress(++done, todo, results[i]);
            } catch (...) {
                record_error();
            }
        }
    };

    if (threads == 1) {
        for (std::size_t i : selected) {
            if (stop.load(std::memory_order_relaxed))
                break;
            run_one(i);
        }
    } else {
        // Round-robin initial distribution, then work stealing.
        std::vector<StealQueue> queues(threads);
        for (std::size_t k = 0; k < todo; ++k)
            queues[k % threads].push(selected[k]);

        auto worker = [&](int id) {
            std::size_t i;
            for (;;) {
                if (stop.load(std::memory_order_relaxed))
                    return;
                if (queues[id].popBack(i)) {
                    run_one(i);
                    continue;
                }
                bool stole = false;
                for (int v = 1; v < threads && !stole; ++v)
                    stole = queues[(id + v) % threads].stealFront(i);
                if (!stole)
                    return;
                run_one(i);
            }
        };

        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (int t = 0; t < threads; ++t)
            pool.emplace_back(worker, t);
        for (auto &t : pool)
            t.join();
    }

    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

std::string
toCsv(const std::vector<PointResult> &results,
      const std::vector<StatColumn> &columns)
{
    std::string out = csvHeader(columns) + "\n";
    for (const auto &r : results)
        out += formatCsvRow(r.label, r.stats, columns) + "\n";
    return out;
}

std::string
toJson(const std::vector<PointResult> &results,
       const std::vector<StatColumn> &columns)
{
    std::string out = "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i)
            out += ",";
        out += "\n  " + formatJsonRow(results[i].label, results[i].stats,
                                      columns);
    }
    out += results.empty() ? "]" : "\n]";
    return out;
}

std::uint64_t
sweepFingerprint(const std::vector<PointResult> &results)
{
    Fnv64 h;
    for (const PointResult &r : results) {
        h.add(r.index);
        h.add(statsFingerprint(r.stats));
    }
    return h.value();
}

ProgressMeter::ProgressMeter() : start_(std::chrono::steady_clock::now())
{
}

std::string
ProgressMeter::line(std::size_t done, std::size_t total,
                    const std::string &label) const
{
    char buf[160];
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    if (done == 0 || elapsed <= 0) {
        std::snprintf(buf, sizeof(buf), "[%zu/%zu] %-40.40s", done,
                      total, label.c_str());
        return buf;
    }
    const double rate = static_cast<double>(done) / elapsed;
    const double eta_s =
        rate > 0 ? static_cast<double>(total - done) / rate : 0;
    const long eta = static_cast<long>(eta_s + 0.5);
    std::snprintf(buf, sizeof(buf),
                  "[%zu/%zu] %-40.40s %6.1f pts/s  eta %ld:%02ld", done,
                  total, label.c_str(), rate, eta / 60, eta % 60);
    return buf;
}

} // namespace hermes::sweep
