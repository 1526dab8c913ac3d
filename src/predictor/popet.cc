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
    : params_(params), pageBuffer_(params.pageBufferEntries)
{
    assert(params_.weightBits >= 2 && params_.weightBits <= 8);
    arena_.assign(kBases[kPopetFeatureCount], 0);
    for (unsigned f = 0; f < kPopetFeatureCount; ++f)
        featActive_[f] = (params_.featureMask >> f) & 1u;
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

bool
Popet::firstAccessHint(Addr vaddr)
{
    const Addr page = pageNumber(vaddr);
    const std::uint64_t bit = 1ull << lineOffsetInPage(vaddr);
    ++pageBufferClock_;
    if (std::uint64_t *bitmap = pageBuffer_.touch(page, pageBufferClock_)) {
        const bool first = (*bitmap & bit) == 0;
        *bitmap |= bit;
        return first;
    }
    // The page has not been seen in the tracked window -> first access.
    pageBuffer_.insert(page, pageBufferClock_) = bit;
    return true;
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
    // Slots go out last to first: the pinned format lists the valid
    // entries first, in the order they were filled.
    const std::uint32_t n = pageBuffer_.size();
    w.u64(n);
    for (std::uint32_t i = n; i-- > 0;) {
        w.u64(pageBuffer_.tag(i));
        w.u64(pageBuffer_[i]);
        w.u64(pageBuffer_.stamp(i));
    }
    w.u32(pageBuffer_.invalidSlots());
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
    const std::uint32_t n = pageBuffer_.size();
    if (r.u64() != n)
        throw StateError("popet page buffer size mismatch");
    std::vector<LruSlotState> pages(n);
    for (std::uint32_t i = n; i-- > 0;) {
        pages[i].tag = r.u64();
        pageBuffer_[i] = r.u64();
        pages[i].stamp = r.u64();
    }
    const std::uint32_t invalid = r.u32();
    if (invalid > n)
        throw StateError("popet page buffer fill count out of range");
    for (std::uint32_t i = invalid; i < n; ++i)
        pages[i].valid = true;
    pageBufferClock_ = r.u64();
    for (Addr &pc : lastLoadPcs_)
        pc = r.u64();
    pageBuffer_.restore(pages, pageBufferClock_, "popet page buffer");
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
