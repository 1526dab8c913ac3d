#include "prefetch/mlop.hh"

#include <algorithm>

#include "sim/model_registry.hh"

namespace hermes
{

Mlop::Mlop(MlopParams params) : params_(params), zones_(params.mapEntries)
{
    for (int o = -params_.maxOffset; o <= params_.maxOffset; ++o)
        if (o != 0)
            candidateOffsets_.push_back(o);
    scores_.assign(candidateOffsets_.size(), 0);
}

bool
Mlop::wasAccessed(Addr line) const
{
    const std::uint32_t slot = zones_.find(line / kBlocksPerPage);
    return slot != LruTable<std::uint64_t>::kNotFound &&
           ((zones_[slot] >> (line % kBlocksPerPage)) & 1);
}

void
Mlop::finishRound()
{
    // Pick the top `levels` offsets whose score passes the threshold;
    // these act as the per-lookahead-level best offsets.
    std::vector<std::size_t> order(candidateOffsets_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [this](auto a, auto b) {
        if (scores_[a] != scores_[b])
            return scores_[a] > scores_[b];
        // Tie-break toward the smallest magnitude: shorter offsets
        // cover the earliest lookahead level.
        return std::abs(candidateOffsets_[a]) <
               std::abs(candidateOffsets_[b]);
    });
    active_.clear();
    for (std::size_t i = 0; i < order.size() && active_.size() <
                                                    params_.levels;
         ++i) {
        if (scores_[order[i]] >= params_.scoreThreshold)
            active_.push_back(candidateOffsets_[order[i]]);
    }
    std::fill(scores_.begin(), scores_.end(), 0);
    // Age the access maps: each round scores against recent history
    // only, like MLOP's per-generation access maps.
    zones_.clear();
    accessesThisRound_ = 0;
}

void
Mlop::onAccess(Addr addr, Addr pc, bool hit, std::vector<Addr> &out_lines)
{
    (void)pc;
    (void)hit;
    const Addr line = lineAddr(addr);
    ++clock_;

    // Score candidates: offset o earns a point when line - o was
    // recently accessed, i.e. prefetching (X + o) on access X would
    // have covered the current access.
    for (std::size_t i = 0; i < candidateOffsets_.size(); ++i) {
        const std::int64_t prev =
            static_cast<std::int64_t>(line) - candidateOffsets_[i];
        if (prev >= 0 && wasAccessed(static_cast<Addr>(prev)))
            ++scores_[i];
    }

    const Addr zone = line / kBlocksPerPage;
    std::uint64_t *bitmap = zones_.touch(zone, clock_);
    if (bitmap == nullptr)
        bitmap = &zones_.insert(zone, clock_);
    *bitmap |= 1ull << (line % kBlocksPerPage);

    if (++accessesThisRound_ >= params_.roundLength)
        finishRound();

    for (int o : active_) {
        const std::int64_t target = static_cast<std::int64_t>(line) + o;
        if (target < 0)
            continue;
        // Stay within the 4KB zone like the original (page-local).
        if (static_cast<Addr>(target) / kBlocksPerPage !=
            line / kBlocksPerPage)
            continue;
        out_lines.push_back(static_cast<Addr>(target));
    }
}

std::uint64_t
Mlop::storageBits() const
{
    // Zone maps: tag (36) + bitmap (64). Scores: 16b per candidate.
    return static_cast<std::uint64_t>(zones_.size()) * 100 +
           static_cast<std::uint64_t>(scores_.size()) * 16;
}

namespace
{

ModelDef
mlopModelDef()
{
    ModelDef d;
    d.name = "mlop";
    d.kind = ModelKind::Prefetcher;
    d.doc = "multi-lookahead offset prefetcher (Table 6)";
    d.counters = prefetcherCounterKeys();
    d.makePrefetcher = [](const ModelContext &/*ctx*/) {
        return std::make_unique<Mlop>();
    };
    return d;
}

const ModelRegistrar mlopModelDefRegistrar(mlopModelDef());

} // namespace

} // namespace hermes
