#include "sim/warmup_cache.hh"

#include "trace/trace_io.hh"

namespace hermes
{

namespace
{

constexpr const char *kExt = "ckpt";

} // namespace

WarmupCache::WarmupCache(StoreConfig cfg)
    : store_(std::move(cfg), kExt, kWhat)
{
}

std::string
WarmupCache::entryName(std::uint64_t fp)
{
    return ContentStore::entryName(fp, kExt);
}

std::unique_lock<std::mutex>
WarmupCache::lockFingerprint(std::uint64_t fp)
{
    std::mutex *m = nullptr;
    {
        std::lock_guard<std::mutex> g(fpLocksMutex_);
        auto &slot = fpLocks_[fp];
        if (slot == nullptr)
            slot = std::make_unique<std::mutex>();
        m = slot.get();
    }
    return std::unique_lock<std::mutex>(*m);
}

bool
WarmupCache::load(SimSession &session)
{
    return store_.load(session.warmupFingerprint(),
                       [&session](const std::string &path) {
                           auto source = openByteSource(path);
                           return session.restore(*source);
                       });
}

void
WarmupCache::store(SimSession &session)
{
    store_.publish(session.warmupFingerprint(),
                   [&session](ByteSink &sink) { session.snapshot(sink); });
}

RunStats
runSession(SimSession &session, WarmupCache *cache)
{
    session.build();
    if (cache != nullptr && session.checkpointable()) {
        // Per-fingerprint serialization: of N threads racing to the
        // same warmed state, one warms and stores, the rest restore.
        auto guard = cache->lockFingerprint(session.warmupFingerprint());
        if (!cache->load(session)) {
            session.warmup();
            cache->store(session);
        }
    } else {
        session.warmup();
    }
    session.measure();
    return session.collect();
}

} // namespace hermes
