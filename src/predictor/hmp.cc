#include "predictor/hmp.hh"

#include <cassert>

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

Hmp::Hmp(HmpParams params)
    : params_(params),
      counterMax_(static_cast<std::uint8_t>((1u << params.counterBits) - 1)),
      localHistory_(params.localHistories, 0),
      localPattern_(params.localCounters, 0),
      gshare_(params.gshareCounters, 0)
{
    for (auto &bank : gskew_)
        bank.assign(params_.gskewCounters, 0);
}

bool
Hmp::counterTaken(std::uint8_t c) const
{
    return c > counterMax_ / 2;
}

void
Hmp::bump(std::uint8_t &c, bool up)
{
    if (up) {
        if (c < counterMax_)
            ++c;
    } else if (c > 0) {
        --c;
    }
}

std::uint32_t
Hmp::localIndex(Addr pc) const
{
    return mix32(pc) & (params_.localHistories - 1);
}

std::uint32_t
Hmp::localPatternIndex(Addr pc) const
{
    const std::uint16_t hist = localHistory_[localIndex(pc)];
    return (mix32(pc >> 2) ^ hist) & (params_.localCounters - 1);
}

std::uint32_t
Hmp::gshareIndex(Addr pc) const
{
    return (mix32(pc) ^ globalHistory_) & (params_.gshareCounters - 1);
}

std::uint32_t
Hmp::gskewIndex(unsigned bank, Addr pc) const
{
    // Different skewing function per bank, as in the e-gskew scheme.
    const std::uint64_t h = pc ^ (static_cast<std::uint64_t>(globalHistory_)
                                  << (3 + bank));
    return mix32(h * (2 * bank + 3)) & (params_.gskewCounters - 1);
}

bool
Hmp::predict(Addr pc, Addr vaddr, PredMeta &meta)
{
    (void)vaddr;
    meta = PredMeta{};

    const std::uint32_t li = localPatternIndex(pc);
    const std::uint32_t gi = gshareIndex(pc);
    const std::uint32_t s0 = gskewIndex(0, pc);
    const std::uint32_t s1 = gskewIndex(1, pc);
    const std::uint32_t s2 = gskewIndex(2, pc);

    const bool local_pred = counterTaken(localPattern_[li]);
    const bool gshare_pred = counterTaken(gshare_[gi]);
    const int skew_votes = static_cast<int>(counterTaken(gskew_[0][s0])) +
                           static_cast<int>(counterTaken(gskew_[1][s1])) +
                           static_cast<int>(counterTaken(gskew_[2][s2]));
    const bool gskew_pred = skew_votes >= 2;

    const int votes = static_cast<int>(local_pred) +
                      static_cast<int>(gshare_pred) +
                      static_cast<int>(gskew_pred);

    // Stash indices so training addresses the same entries even after
    // the histories advance.
    meta.index[0] = li;
    meta.index[1] = gi;
    meta.index[2] = s0;
    meta.index[3] = s1;
    meta.index[4] = s2;
    meta.index[5] = localIndex(pc);
    meta.indexCount = 6;
    meta.predictedOffChip = votes >= 2;
    meta.valid = true;
    return meta.predictedOffChip;
}

void
Hmp::train(Addr pc, Addr vaddr, const PredMeta &meta, bool went_off_chip)
{
    (void)pc;
    (void)vaddr;
    if (!meta.valid)
        return;

    bump(localPattern_[meta.index[0]], went_off_chip);
    bump(gshare_[meta.index[1]], went_off_chip);
    for (unsigned b = 0; b < 3; ++b)
        bump(gskew_[b][meta.index[2 + b]], went_off_chip);

    // Advance histories with the true outcome.
    std::uint16_t &lh = localHistory_[meta.index[5]];
    lh = static_cast<std::uint16_t>(
        ((lh << 1) | static_cast<std::uint16_t>(went_off_chip)) &
        ((1u << params_.localHistoryBits) - 1));
    globalHistory_ =
        ((globalHistory_ << 1) | static_cast<std::uint32_t>(went_off_chip)) &
        ((1u << params_.globalHistoryBits) - 1);
}

std::uint64_t
Hmp::storageBits() const
{
    std::uint64_t bits = 0;
    bits += static_cast<std::uint64_t>(params_.localHistories) *
            params_.localHistoryBits;
    bits += static_cast<std::uint64_t>(params_.localCounters) *
            params_.counterBits;
    bits += static_cast<std::uint64_t>(params_.gshareCounters) *
            params_.counterBits;
    bits += 3ull * params_.gskewCounters * params_.counterBits;
    return bits;
}

namespace
{

ModelDef
hmpModelDef()
{
    const HmpParams p;
    ModelDef d;
    d.name = "hmp";
    d.kind = ModelKind::Predictor;
    d.doc = "hybrid local/gshare/gskew hit-miss predictor (Yoaz et "
            "al., the paper's HMP baseline, §7.2)";
    d.knobs = {
        {"local_histories", ModelKnob::Type::Int,
         std::to_string(p.localHistories), 1, 1 << 20, true,
         "HMP per-PC history registers"},
        {"local_history_bits", ModelKnob::Type::Int,
         std::to_string(p.localHistoryBits), 1, 16, false,
         "HMP local history length (bits)"},
        {"local_counters", ModelKnob::Type::Int,
         std::to_string(p.localCounters), 1, 1 << 24, true,
         "HMP local pattern table counters"},
        {"gshare_counters", ModelKnob::Type::Int,
         std::to_string(p.gshareCounters), 1, 1 << 24, true,
         "HMP gshare table counters"},
        {"global_history_bits", ModelKnob::Type::Int,
         std::to_string(p.globalHistoryBits), 1, 31, false,
         "HMP global history length (bits)"},
        {"gskew_counters", ModelKnob::Type::Int,
         std::to_string(p.gskewCounters), 1, 1 << 24, true,
         "HMP gskew counters per skewed bank"},
        {"counter_bits", ModelKnob::Type::Int,
         std::to_string(p.counterBits), 1, 8, false,
         "HMP saturating counter width (bits)"},
    };
    d.counters = predictorCounterKeys();
    d.makePredictor = [](const ModelContext &ctx) {
        auto u32 = [&ctx](const char *knob) {
            return static_cast<std::uint32_t>(ctx.knobInt(knob));
        };
        HmpParams params;
        params.localHistories = u32("local_histories");
        params.localHistoryBits = u32("local_history_bits");
        params.localCounters = u32("local_counters");
        params.gshareCounters = u32("gshare_counters");
        params.globalHistoryBits = u32("global_history_bits");
        params.gskewCounters = u32("gskew_counters");
        params.counterBits = u32("counter_bits");
        return std::make_unique<Hmp>(params);
    };
    return d;
}

const ModelRegistrar hmpRegistrar(hmpModelDef());

} // namespace

} // namespace hermes
