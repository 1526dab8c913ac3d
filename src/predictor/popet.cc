#include "predictor/popet.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "sim/model_registry.hh"

namespace hermes
{

namespace
{

/** Cheap 64->32 bit mixer used to hash feature values into tables. */
std::uint32_t
hashFeature(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return static_cast<std::uint32_t>(x);
}

int
scaleThreshold(int threshold, unsigned active, unsigned total)
{
    if (active == total)
        return threshold;
    const double scaled = static_cast<double>(threshold) *
                          static_cast<double>(active) /
                          static_cast<double>(total);
    return static_cast<int>(std::lround(scaled));
}

/** Running-sum base offset of each feature's table in the arena
 * (kBases[kPopetFeatureCount] is the total arena size). */
constexpr std::array<std::uint32_t, kPopetFeatureCount + 1>
tableBases()
{
    std::array<std::uint32_t, kPopetFeatureCount + 1> bases{};
    for (unsigned f = 0; f < kPopetFeatureCount; ++f)
        bases[f + 1] = bases[f] + Popet::kTableSizes[f];
    return bases;
}

constexpr auto kBases = tableBases();

} // namespace

Popet::Popet(PopetParams params)
    : params_(params), pageBuffer_(params.pageBufferEntries),
      pageIndex_(params.pageBufferEntries),
      pageInvalidLeft_(params.pageBufferEntries)
{
    assert(params_.weightBits >= 2 && params_.weightBits <= 8);
    arena_.assign(kBases[kPopetFeatureCount], 0);
    for (unsigned f = 0; f < kPopetFeatureCount; ++f)
        featActive_[f] = (params_.featureMask >> f) & 1u;
    lruPrev_.assign(pageBuffer_.size(), kLruNil);
    lruNext_.assign(pageBuffer_.size(), kLruNil);
    const unsigned active = activeFeatureCount();
    assert(active > 0 && "POPET needs at least one feature");
    tauActScaled_ = scaleThreshold(params_.activationThreshold, active,
                                   kPopetFeatureCount);
    tnScaled_ = scaleThreshold(params_.trainingThresholdNeg, active,
                               kPopetFeatureCount);
    tpScaled_ = scaleThreshold(params_.trainingThresholdPos, active,
                               kPopetFeatureCount);
}

unsigned
Popet::activeFeatureCount() const
{
    unsigned n = 0;
    for (unsigned f = 0; f < kPopetFeatureCount; ++f)
        if (params_.featureMask & (1u << f))
            ++n;
    return n;
}

void
Popet::lruDetach(std::uint32_t slot)
{
    const std::uint32_t prev = lruPrev_[slot];
    const std::uint32_t next = lruNext_[slot];
    if (prev != kLruNil)
        lruNext_[prev] = next;
    else
        lruHead_ = next;
    if (next != kLruNil)
        lruPrev_[next] = prev;
    else
        lruTail_ = prev;
}

void
Popet::lruAppend(std::uint32_t slot)
{
    lruPrev_[slot] = lruTail_;
    lruNext_[slot] = kLruNil;
    if (lruTail_ != kLruNil)
        lruNext_[lruTail_] = slot;
    else
        lruHead_ = slot;
    lruTail_ = slot;
}

bool
Popet::firstAccessHint(Addr vaddr)
{
    const Addr page = pageNumber(vaddr);
    const std::uint64_t bit = 1ull << lineOffsetInPage(vaddr);
    ++pageBufferClock_;

    // O(1) hit path through the page index (this runs per prediction).
    const std::uint32_t slot = pageIndex_.find(page);
    if (slot != AddrIndex::kNotFound) {
        PageBufferEntry &e = pageBuffer_[slot];
        e.lastUse = pageBufferClock_;
        lruDetach(slot);
        lruAppend(slot);
        const bool first = (e.bitmap & bit) == 0;
        e.bitmap |= bit;
        return first;
    }

    // Miss: fill invalid slots in ascending order first, else evict
    // the least recently used entry — the recency-list head, which is
    // exactly the min-lastUse slot the old O(n) scan found (clock
    // values are unique). The line has not been seen in the tracked
    // window -> first access.
    std::uint32_t victim;
    if (pageInvalidLeft_ > 0) {
        victim = static_cast<std::uint32_t>(pageBuffer_.size()) -
                 pageInvalidLeft_;
        --pageInvalidLeft_;
    } else {
        victim = lruHead_;
        lruDetach(victim);
        pageIndex_.erase(pageBuffer_[victim].pageTag);
    }
    PageBufferEntry &e = pageBuffer_[victim];
    e.pageTag = page;
    e.bitmap = bit;
    e.lastUse = pageBufferClock_;
    lruAppend(victim);
    pageIndex_.insert(page, victim);
    return true;
}

std::uint32_t
Popet::featureIndex(unsigned feature, Addr pc, Addr vaddr,
                    bool first_access) const
{
    std::uint64_t raw = 0;
    switch (feature) {
      case kFeatPcXorLineOffset:
        raw = pc ^ (static_cast<std::uint64_t>(lineOffsetInPage(vaddr))
                    << 1);
        break;
      case kFeatPcXorByteOffset:
        raw = pc ^ (static_cast<std::uint64_t>(byteOffsetInLine(vaddr))
                    << 1) ^ 0xABCDull;
        break;
      case kFeatPcFirstAccess:
        raw = (pc << 1) | static_cast<std::uint64_t>(first_access);
        break;
      case kFeatOffsetFirstAccess:
        raw = (static_cast<std::uint64_t>(lineOffsetInPage(vaddr)) << 1) |
              static_cast<std::uint64_t>(first_access);
        break;
      case kFeatLast4LoadPcs: {
        raw = (lastLoadPcs_[0] << 3) ^ (lastLoadPcs_[1] << 2) ^
              (lastLoadPcs_[2] << 1) ^ lastLoadPcs_[3];
        break;
      }
      default:
        assert(false && "bad feature id");
    }
    return hashFeature(raw + feature * 0x9E3779B9ull) &
           (kTableSizes[feature] - 1);
}

bool
Popet::predict(Addr pc, Addr vaddr, PredMeta &meta)
{
    const bool first_access = firstAccessHint(vaddr);

    // Hot path: all five raw feature values and hashed indices are
    // computed up front in straight-line code (no per-feature
    // dispatch), then the dot product gathers from the contiguous
    // arena with the feature mask applied multiplicatively. Masked-out
    // features contribute 0 to the sum and write 0 to the slot the
    // next active feature overwrites, so the resulting PredMeta is
    // byte-identical to the branching loop's (index[] beyond
    // indexCount stays zero from the PredMeta{} reset).
    const std::uint64_t line_off = lineOffsetInPage(vaddr);
    const std::uint64_t byte_off = byteOffsetInLine(vaddr);
    const std::uint64_t first = first_access ? 1 : 0;
    const std::array<std::uint64_t, kPopetFeatureCount> raws = {
        pc ^ (line_off << 1),
        pc ^ (byte_off << 1) ^ 0xABCDull,
        (pc << 1) | first,
        (line_off << 1) | first,
        (lastLoadPcs_[0] << 3) ^ (lastLoadPcs_[1] << 2) ^
            (lastLoadPcs_[2] << 1) ^ lastLoadPcs_[3],
    };
    std::array<std::uint32_t, kPopetFeatureCount> idx;
    for (unsigned f = 0; f < kPopetFeatureCount; ++f)
        idx[f] = hashFeature(raws[f] + f * 0x9E3779B9ull) &
                 (kTableSizes[f] - 1);

    int sum = 0;
    meta = PredMeta{};
    unsigned cnt = 0;
    for (unsigned f = 0; f < kPopetFeatureCount; ++f) {
        const std::int32_t active = featActive_[f];
        sum += active * arena_[kBases[f] + idx[f]];
        // Pack the feature id with the index so training can address
        // the right table without recomputing hashes.
        meta.index[cnt] =
            static_cast<std::uint32_t>(active) * ((f << 16) | idx[f]);
        cnt += static_cast<unsigned>(active);
    }
    meta.indexCount = static_cast<std::uint8_t>(cnt);
    meta.sum = static_cast<std::int16_t>(sum);
    meta.predictedOffChip = sum >= tauActScaled_;
    meta.valid = true;

    // Shift the load-PC history (most recent first).
    lastLoadPcs_[3] = lastLoadPcs_[2];
    lastLoadPcs_[2] = lastLoadPcs_[1];
    lastLoadPcs_[1] = lastLoadPcs_[0];
    lastLoadPcs_[0] = pc;

    return meta.predictedOffChip;
}

void
Popet::train(Addr pc, Addr vaddr, const PredMeta &meta, bool went_off_chip)
{
    (void)pc;
    (void)vaddr;
    if (!meta.valid)
        return;
    // Saturation check (paper §6.1.2): only adjust weights when the sum
    // was within [T_N, T_P]; optionally also on a misprediction.
    const bool within =
        meta.sum >= tnScaled_ && meta.sum <= tpScaled_;
    const bool mispredict = meta.predictedOffChip != went_off_chip;
    if (!within && !(params_.trainOnMispredict && mispredict))
        return;

    // Distinct features address disjoint arena slices, so the updates
    // are independent and the loop auto-vectorizes over the gathered
    // slots (clamp expressed as min/max on both sides, which is
    // equivalent for a +-1 step).
    const int wmax = (1 << (params_.weightBits - 1)) - 1;
    const int wmin = -(1 << (params_.weightBits - 1));
    const int delta = went_off_chip ? 1 : -1;
    for (unsigned i = 0; i < meta.indexCount; ++i) {
        const unsigned f = meta.index[i] >> 16;
        const std::uint32_t idx = meta.index[i] & 0xFFFFu;
        std::int8_t &w = arena_[kBases[f] + idx];
        w = static_cast<std::int8_t>(
            std::min(std::max(w + delta, wmin), wmax));
    }
}

int
Popet::weightAt(unsigned feature, std::uint32_t index) const
{
    if (index >= kTableSizes.at(feature))
        throw std::out_of_range("popet weight index out of range");
    return arena_.at(kBases[feature] + index);
}

void
Popet::saveState(StateWriter &w) const
{
    w.section("POPT");
    for (unsigned f = 0; f < kPopetFeatureCount; ++f) {
        w.u64(kTableSizes[f]);
        for (std::uint32_t i = 0; i < kTableSizes[f]; ++i)
            w.i8(arena_[kBases[f] + i]);
    }
    w.u64(pageBuffer_.size());
    for (const PageBufferEntry &e : pageBuffer_) {
        w.u64(e.pageTag);
        w.u64(e.bitmap);
        w.u64(e.lastUse);
    }
    w.u32(pageInvalidLeft_);
    w.u64(pageBufferClock_);
    for (Addr pc : lastLoadPcs_)
        w.u64(pc);
}

void
Popet::loadState(StateReader &r)
{
    r.section("POPT");
    for (unsigned f = 0; f < kPopetFeatureCount; ++f) {
        if (r.u64() != kTableSizes[f])
            throw StateError("popet weight table size mismatch");
        for (std::uint32_t i = 0; i < kTableSizes[f]; ++i)
            arena_[kBases[f] + i] = r.i8();
    }
    if (r.u64() != pageBuffer_.size())
        throw StateError("popet page buffer size mismatch");
    for (PageBufferEntry &e : pageBuffer_) {
        e.pageTag = r.u64();
        e.bitmap = r.u64();
        e.lastUse = r.u64();
    }
    pageInvalidLeft_ = r.u32();
    pageBufferClock_ = r.u64();
    for (Addr &pc : lastLoadPcs_)
        pc = r.u64();
    // Valid slots fill in ascending index order (see the
    // pageInvalidLeft_ comment in the header), so the occupied prefix
    // is exactly the content to rebuild the page index from; the
    // recency list is rebuilt by linking those slots in lastUse order
    // (unique strictly-increasing clock values).
    pageIndex_.clear();
    const std::size_t used =
        pageBuffer_.size() - static_cast<std::size_t>(pageInvalidLeft_);
    for (std::size_t i = 0; i < used; ++i)
        pageIndex_.insert(pageBuffer_[i].pageTag,
                          static_cast<std::uint32_t>(i));
    lruHead_ = lruTail_ = kLruNil;
    lruPrev_.assign(pageBuffer_.size(), kLruNil);
    lruNext_.assign(pageBuffer_.size(), kLruNil);
    std::vector<std::uint32_t> order(used);
    for (std::size_t i = 0; i < used; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return pageBuffer_[a].lastUse < pageBuffer_[b].lastUse;
              });
    for (std::uint32_t slot : order)
        lruAppend(slot);
}

std::uint64_t
Popet::storageBits() const
{
    std::uint64_t bits = 0;
    for (unsigned f = 0; f < kPopetFeatureCount; ++f)
        if (params_.featureMask & (1u << f))
            bits += static_cast<std::uint64_t>(kTableSizes[f]) *
                    params_.weightBits;
    // Page buffer: 64 entries x (page tag + 64-bit bitmap) = 64 x 80b
    // using the paper's 16-bit page tags.
    bits += static_cast<std::uint64_t>(pageBuffer_.size()) * 80;
    return bits;
}

namespace
{

ModelDef
popetModelDef()
{
    const PopetParams p;
    ModelDef d;
    d.name = "popet";
    d.kind = ModelKind::Predictor;
    d.doc = "multi-feature hashed-perceptron off-chip predictor "
            "(the paper's POPET, §6.1)";
    d.knobs = {
        {"act_threshold", ModelKnob::Type::Int,
         std::to_string(p.activationThreshold), -1024, 1024, false,
         "POPET activation threshold tau_act (Fig. 17e)"},
        {"train_threshold_neg", ModelKnob::Type::Int,
         std::to_string(p.trainingThresholdNeg), -1024, 1024, false,
         "POPET negative training threshold T_N"},
        {"train_threshold_pos", ModelKnob::Type::Int,
         std::to_string(p.trainingThresholdPos), -1024, 1024, false,
         "POPET positive training threshold T_P"},
        {"train_on_mispredict", ModelKnob::Type::Bool,
         p.trainOnMispredict ? "true" : "false", 0, 0, false,
         "also train on mispredictions outside [T_N, T_P]"},
        {"weight_bits", ModelKnob::Type::Int, std::to_string(p.weightBits),
         2, 8, false, "POPET perceptron weight width (bits)"},
        {"feature_mask", ModelKnob::Type::Int,
         std::to_string(p.featureMask), 1, 31, false,
         "bitmask of enabled POPET features (Fig. 10/11 ablations)"},
        {"page_buffer_entries", ModelKnob::Type::Int,
         std::to_string(p.pageBufferEntries), 1, 65536, false,
         "POPET first-access page buffer entries"},
    };
    d.counters = predictorCounterKeys();
    d.makePredictor = [](const ModelContext &ctx) {
        PopetParams params;
        params.activationThreshold =
            static_cast<int>(ctx.knobInt("act_threshold"));
        params.trainingThresholdNeg =
            static_cast<int>(ctx.knobInt("train_threshold_neg"));
        params.trainingThresholdPos =
            static_cast<int>(ctx.knobInt("train_threshold_pos"));
        params.trainOnMispredict = ctx.knobBool("train_on_mispredict");
        params.weightBits =
            static_cast<unsigned>(ctx.knobInt("weight_bits"));
        params.featureMask =
            static_cast<unsigned>(ctx.knobInt("feature_mask"));
        params.pageBufferEntries =
            static_cast<unsigned>(ctx.knobInt("page_buffer_entries"));
        return std::make_unique<Popet>(params);
    };
    return d;
}

const ModelRegistrar popetRegistrar(popetModelDef());

} // namespace

} // namespace hermes
