#include "prefetch/bingo.hh"

#include "sim/model_registry.hh"

namespace hermes
{

namespace
{

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
}

} // namespace

Bingo::Bingo(BingoParams params)
    : params_(params), accum_(params.accumEntries),
      history_(static_cast<std::size_t>(params.historySets) *
               params.historyWays)
{
}

unsigned
Bingo::offsetInRegion(Addr addr) const
{
    return static_cast<unsigned>((addr / kBlockSize) %
                                 linesPerRegion());
}

std::uint64_t
Bingo::keyAddr(Addr pc, Addr region, unsigned offset) const
{
    return mix64((pc << 22) ^ (region << 5) ^ offset);
}

std::uint32_t
Bingo::keyOffset(Addr pc, unsigned offset) const
{
    return static_cast<std::uint32_t>(
        mix64((pc << 6) ^ offset) & 0xFFFFFFFFu);
}

void
Bingo::commitToHistory(Addr region, const AccumEntry &e)
{
    // Only remember regions with at least two accessed lines; a single
    // touch carries no spatial pattern.
    if (__builtin_popcountll(e.footprint) < 2)
        return;
    const std::uint64_t ka = keyAddr(e.triggerPc, region, e.triggerOffset);
    // Index by the PC+Offset key so the precise (PC+Address) and
    // fallback (PC+Offset) lookups probe the same set.
    const std::uint32_t set = keyOffset(e.triggerPc, e.triggerOffset) &
                              (params_.historySets - 1);
    const std::size_t base =
        static_cast<std::size_t>(set) * params_.historyWays;
    HistEntry *victim = &history_[base];
    for (unsigned w = 0; w < params_.historyWays; ++w) {
        HistEntry &h = history_[base + w];
        if (h.valid && h.keyAddr == ka) {
            h.footprint = e.footprint;
            h.lastUse = ++clock_;
            return;
        }
        if (!h.valid || h.lastUse < victim->lastUse)
            victim = &h;
    }
    victim->valid = true;
    victim->keyAddr = ka;
    victim->keyOffset = keyOffset(e.triggerPc, e.triggerOffset);
    victim->footprint = e.footprint;
    victim->lastUse = ++clock_;
}

std::uint64_t
Bingo::lookupHistory(Addr pc, Addr region, unsigned offset)
{
    const std::uint64_t ka = keyAddr(pc, region, offset);
    const std::uint32_t ko = keyOffset(pc, offset);
    const std::uint32_t set = ko & (params_.historySets - 1);
    const std::size_t base =
        static_cast<std::size_t>(set) * params_.historyWays;

    // Precise PC+Address match first.
    for (unsigned w = 0; w < params_.historyWays; ++w) {
        HistEntry &h = history_[base + w];
        if (h.valid && h.keyAddr == ka) {
            h.lastUse = ++clock_;
            return h.footprint;
        }
    }
    // Fallback: PC+Offset match (generalises across regions).
    for (unsigned w = 0; w < params_.historyWays; ++w) {
        HistEntry &h = history_[base + w];
        if (h.valid && h.keyOffset == ko) {
            h.lastUse = ++clock_;
            return h.footprint;
        }
    }
    return 0;
}

void
Bingo::onAccess(Addr addr, Addr pc, bool hit, std::vector<Addr> &out_lines)
{
    (void)hit;
    const Addr region = regionOf(addr);
    const unsigned offset = offsetInRegion(addr);
    ++clock_;

    if (AccumEntry *e = accum_.touch(region, clock_)) {
        e->footprint |= 1ull << offset;
        return; // Region already being tracked: just accumulate.
    }

    // New region generation: commit the evicted one, predict for this
    // trigger access and start accumulating.
    const std::uint32_t victim = accum_.victim();
    if (accum_.valid(victim))
        commitToHistory(accum_.tag(victim), accum_[victim]);
    AccumEntry &e = accum_.insert(region, clock_);
    e.triggerPc = pc;
    e.triggerOffset = offset;
    e.footprint = 1ull << offset;

    const std::uint64_t predicted = lookupHistory(pc, region, offset);
    if (predicted == 0)
        return;
    const Addr region_line = region * (params_.regionBytes / kBlockSize);
    unsigned emitted = 0;
    for (unsigned o = 0;
         o < linesPerRegion() && emitted < params_.maxPrefetchPerTrigger;
         ++o) {
        if (o == offset || !(predicted & (1ull << o)))
            continue;
        out_lines.push_back(region_line + o);
        ++emitted;
    }
}

std::uint64_t
Bingo::storageBits() const
{
    // Accumulation: region tag (37) + trigger pc hash (16) + offset (5)
    // + footprint (32 for 2KB regions).
    const std::uint64_t accum_bits =
        static_cast<std::uint64_t>(accum_.size()) * (37 + 16 + 5 + 32);
    // History: two keys (48 + 32) + footprint (32).
    const std::uint64_t hist_bits =
        static_cast<std::uint64_t>(history_.size()) * (48 + 32 + 32);
    return accum_bits + hist_bits;
}

namespace
{

ModelDef
bingoModelDef()
{
    ModelDef d;
    d.name = "bingo";
    d.kind = ModelKind::Prefetcher;
    d.doc = "Bingo spatial footprint prefetcher (Table 6)";
    d.counters = prefetcherCounterKeys();
    d.makePrefetcher = [](const ModelContext &/*ctx*/) {
        return std::make_unique<Bingo>();
    };
    return d;
}

const ModelRegistrar bingoModelDefRegistrar(bingoModelDef());

} // namespace

} // namespace hermes
