#include "prefetch/spp.hh"

#include <algorithm>

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

constexpr int kPpfWeightMax = 31;
constexpr int kPpfWeightMin = -32;

} // namespace

Spp::Spp(SppParams params)
    : params_(params), st_(params.stEntries), pt_(params.ptEntries)
{
    for (auto &t : ppf_)
        t.assign(params_.ppfTableSize, 0);
}

std::uint16_t
Spp::advanceSignature(std::uint16_t sig, int delta)
{
    const unsigned d = static_cast<unsigned>(delta & 0x3F);
    return static_cast<std::uint16_t>(((sig << 3) ^ d) & 0xFFF);
}

void
Spp::trainPt(std::uint16_t sig, int delta)
{
    PtEntry &e = pt_[sig % params_.ptEntries];
    if (e.sigCount < 15)
        ++e.sigCount;
    for (auto &slot : e.slots) {
        if (slot.confidence > 0 && slot.delta == delta) {
            if (slot.confidence < 15)
                ++slot.confidence;
            return;
        }
    }
    // Allocate the weakest slot for the new delta.
    auto *victim = &e.slots[0];
    for (auto &slot : e.slots)
        if (slot.confidence < victim->confidence)
            victim = &slot;
    victim->delta = static_cast<std::int8_t>(delta);
    victim->confidence = 1;
}

int
Spp::ppfSum(Addr pc, std::uint16_t sig, int delta, PpfRecord &rec) const
{
    rec.idx[0] = mix32(pc) & (params_.ppfTableSize - 1);
    rec.idx[1] = mix32(sig * 0x9E3779B9ull) & (params_.ppfTableSize - 1);
    rec.idx[2] = mix32((pc << 6) ^ static_cast<std::uint64_t>(delta + 64)) &
                 (params_.ppfTableSize - 1);
    return ppf_[0][rec.idx[0]] + ppf_[1][rec.idx[1]] + ppf_[2][rec.idx[2]];
}

void
Spp::onAccess(Addr addr, Addr pc, bool hit, std::vector<Addr> &out_lines)
{
    (void)hit;
    ++clock_;
    const Addr page = pageNumber(addr);
    const int offset = static_cast<int>(lineOffsetInPage(addr));

    std::uint16_t sig = 0;
    StEntry *st = st_.touch(page, clock_);
    if (st != nullptr) {
        const int delta = offset - st->lastOffset;
        if (delta != 0) {
            trainPt(st->signature, delta);
            sig = advanceSignature(st->signature, delta);
        } else {
            sig = st->signature;
        }
    } else {
        st = &st_.insert(page, clock_);
    }
    st->lastOffset = offset;
    st->signature = sig;

    // Lookahead down the highest-confidence delta path.
    double path_conf = 1.0;
    std::uint16_t cur_sig = sig;
    int cur_offset = offset;
    for (unsigned depth = 0; depth < params_.maxLookahead; ++depth) {
        const PtEntry &e = pt_[cur_sig % params_.ptEntries];
        if (e.sigCount == 0)
            break;
        const PtSlot *best = nullptr;
        for (const auto &slot : e.slots)
            if (slot.confidence > 0 &&
                (best == nullptr || slot.confidence > best->confidence))
                best = &slot;
        if (best == nullptr)
            break;
        path_conf *= static_cast<double>(best->confidence) /
                     static_cast<double>(e.sigCount);
        if (path_conf < params_.lookaheadThreshold)
            break;
        cur_offset += best->delta;
        if (cur_offset < 0 ||
            cur_offset >= static_cast<int>(kBlocksPerPage))
            break;
        const Addr line = (page << (kLogPageSize - kLogBlockSize)) +
                          static_cast<Addr>(cur_offset);

        PpfRecord rec{};
        const int sum = ppfSum(pc, cur_sig, best->delta, rec);
        if (sum < params_.ppfThreshold) {
            cur_sig = advanceSignature(cur_sig, best->delta);
            continue; // filtered out; keep walking the path
        }
        if (inflight_.size() < 4096)
            inflight_.emplace(line, rec);
        out_lines.push_back(line);
        cur_sig = advanceSignature(cur_sig, best->delta);
    }
}

void
Spp::onPrefetchUseful(Addr line, Addr pc)
{
    (void)pc;
    auto it = inflight_.find(line);
    if (it == inflight_.end())
        return;
    for (unsigned t = 0; t < 3; ++t) {
        std::int8_t &w = ppf_[t][it->second.idx[t]];
        w = static_cast<std::int8_t>(std::min<int>(w + 1, kPpfWeightMax));
    }
    inflight_.erase(it);
}

void
Spp::onPrefetchUseless(Addr line)
{
    auto it = inflight_.find(line);
    if (it == inflight_.end())
        return;
    for (unsigned t = 0; t < 3; ++t) {
        std::int8_t &w = ppf_[t][it->second.idx[t]];
        w = static_cast<std::int8_t>(std::max<int>(w - 1, kPpfWeightMin));
    }
    inflight_.erase(it);
}

std::uint64_t
Spp::storageBits() const
{
    std::uint64_t bits = 0;
    // ST: page tag (36) + offset (6) + signature (12)
    bits += static_cast<std::uint64_t>(st_.size()) * 54;
    // PT: 4 x (delta 7 + confidence 4) + sig count 4
    bits += static_cast<std::uint64_t>(pt_.size()) * (4 * 11 + 4);
    // PPF tables (6-bit weights) + in-flight tracking budget
    bits += 3ull * params_.ppfTableSize * 6;
    bits += 4096ull * 30;
    return bits;
}

namespace
{

ModelDef
sppModelDef()
{
    ModelDef d;
    d.name = "spp";
    d.kind = ModelKind::Prefetcher;
    d.doc = "signature path prefetcher with perceptron filter "
            "(SPP+PPF, Table 6)";
    d.counters = prefetcherCounterKeys();
    d.makePrefetcher = [](const ModelContext &/*ctx*/) {
        return std::make_unique<Spp>();
    };
    return d;
}

const ModelRegistrar sppModelDefRegistrar(sppModelDef());

} // namespace

} // namespace hermes
