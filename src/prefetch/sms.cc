#include "prefetch/sms.hh"

#include "sim/model_registry.hh"

namespace hermes
{

namespace
{

std::uint32_t
mix32(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 29;
    return static_cast<std::uint32_t>(x);
}

} // namespace

Sms::Sms(SmsParams params)
    : params_(params), agt_(params.agtEntries),
      pht_(static_cast<std::size_t>(params.phtSets) * params.phtWays)
{
}

std::uint32_t
Sms::signature(Addr pc, unsigned offset) const
{
    return mix32((pc << 6) ^ offset);
}

void
Sms::commit(const AgtEntry &e)
{
    if (__builtin_popcountll(e.footprint) < 2)
        return;
    const std::uint32_t set = e.signature & (params_.phtSets - 1);
    const std::size_t base =
        static_cast<std::size_t>(set) * params_.phtWays;
    PhtEntry *victim = &pht_[base];
    for (unsigned w = 0; w < params_.phtWays; ++w) {
        PhtEntry &p = pht_[base + w];
        if (p.valid && p.signature == e.signature) {
            p.footprint = e.footprint;
            p.lastUse = ++clock_;
            return;
        }
        if (!p.valid || p.lastUse < victim->lastUse)
            victim = &p;
    }
    victim->valid = true;
    victim->signature = e.signature;
    victim->footprint = e.footprint;
    victim->lastUse = ++clock_;
}

void
Sms::onAccess(Addr addr, Addr pc, bool hit, std::vector<Addr> &out_lines)
{
    (void)hit;
    const Addr region = addr / params_.regionBytes;
    const unsigned offset = static_cast<unsigned>(
        (addr / kBlockSize) % linesPerRegion());
    ++clock_;

    if (AgtEntry *e = agt_.touch(region, clock_)) {
        e->footprint |= 1ull << offset;
        return;
    }

    // Generation start: end the evicted generation, predict, accumulate.
    const std::uint32_t victim = agt_.victim();
    if (agt_.valid(victim))
        commit(agt_[victim]);
    const std::uint32_t sig = signature(pc, offset);
    AgtEntry &e = agt_.insert(region, clock_);
    e.signature = sig;
    e.footprint = 1ull << offset;

    const std::uint32_t set = sig & (params_.phtSets - 1);
    const std::size_t base =
        static_cast<std::size_t>(set) * params_.phtWays;
    for (unsigned w = 0; w < params_.phtWays; ++w) {
        PhtEntry &p = pht_[base + w];
        if (!p.valid || p.signature != sig)
            continue;
        p.lastUse = clock_;
        const Addr region_line = region * linesPerRegion();
        unsigned emitted = 0;
        for (unsigned o = 0; o < linesPerRegion() &&
                             emitted < params_.maxPrefetchPerTrigger;
             ++o) {
            if (o == offset || !(p.footprint & (1ull << o)))
                continue;
            out_lines.push_back(region_line + o);
            ++emitted;
        }
        return;
    }
}

std::uint64_t
Sms::storageBits() const
{
    // AGT: region tag (37) + signature (32) + footprint (32).
    // PHT: signature (32) + footprint (32).
    return static_cast<std::uint64_t>(agt_.size()) * (37 + 32 + 32) +
           static_cast<std::uint64_t>(pht_.size()) * (32 + 32);
}

namespace
{

ModelDef
smsModelDef()
{
    ModelDef d;
    d.name = "sms";
    d.kind = ModelKind::Prefetcher;
    d.doc = "spatial memory streaming prefetcher (Table 6)";
    d.counters = prefetcherCounterKeys();
    d.makePrefetcher = [](const ModelContext &/*ctx*/) {
        return std::make_unique<Sms>();
    };
    return d;
}

const ModelRegistrar smsModelDefRegistrar(smsModelDef());

} // namespace

} // namespace hermes
