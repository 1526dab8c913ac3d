#include "prefetch/streamer.hh"

#include "sim/model_registry.hh"

namespace hermes
{

Streamer::Streamer(StreamerParams params)
    : params_(params), table_(params.entries)
{
}

void
Streamer::onAccess(Addr addr, Addr pc, bool hit,
                   std::vector<Addr> &out_lines)
{
    (void)pc;
    (void)hit;
    const Addr page = pageNumber(addr);
    const int offset = static_cast<int>(lineOffsetInPage(addr));
    ++clock_;

    Entry *e = table_.touch(page, clock_);
    if (e == nullptr) {
        table_.insert(page, clock_).lastOffset = offset;
        return;
    }
    const int delta = offset - e->lastOffset;
    e->lastOffset = offset;
    if (delta == 0)
        return;
    const int dir = delta > 0 ? 1 : -1;
    if (dir == e->direction) {
        if (e->confidence < 7)
            ++e->confidence;
    } else {
        e->direction = dir;
        e->confidence = 1;
    }
    if (e->confidence < params_.confidenceThreshold)
        return;
    const Addr base_line = lineAddr(addr);
    for (unsigned d = 1; d <= params_.degree; ++d) {
        const std::int64_t off = offset + dir * static_cast<int>(d);
        if (off < 0 || off >= static_cast<int>(kBlocksPerPage))
            break;
        out_lines.push_back(base_line + dir * static_cast<std::int64_t>(d));
    }
}

std::uint64_t
Streamer::storageBits() const
{
    // page tag (36) + offset (6) + direction (2) + confidence (3)
    return static_cast<std::uint64_t>(table_.size()) * 47;
}

namespace
{

ModelDef
streamerModelDef()
{
    ModelDef d;
    d.name = "streamer";
    d.kind = ModelKind::Prefetcher;
    d.doc = "per-page stream prefetcher with direction confidence "
            "(sanity baseline)";
    d.counters = prefetcherCounterKeys();
    d.makePrefetcher = [](const ModelContext &/*ctx*/) {
        return std::make_unique<Streamer>();
    };
    return d;
}

const ModelRegistrar streamerModelDefRegistrar(streamerModelDef());

} // namespace

} // namespace hermes
