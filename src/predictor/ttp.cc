#include "predictor/ttp.hh"

#include <cassert>

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

Ttp::Ttp(TtpParams params)
    : params_(params),
      table_(static_cast<std::size_t>(params.sets) * params.ways)
{
    assert((params_.sets & (params_.sets - 1)) == 0);
}

std::uint32_t
Ttp::setOf(Addr line) const
{
    return static_cast<std::uint32_t>(line & (params_.sets - 1));
}

std::uint16_t
Ttp::tagOf(Addr line) const
{
    return static_cast<std::uint16_t>(
        mix64(line >> 0) >> 17 & ((1u << params_.tagBits) - 1));
}

bool
Ttp::tracked(Addr line) const
{
    const std::uint32_t set = setOf(line);
    const std::uint16_t tag = tagOf(line);
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;
    for (std::uint32_t w = 0; w < params_.ways; ++w)
        if (table_[base + w].valid && table_[base + w].tag == tag)
            return true;
    return false;
}

bool
Ttp::predict(Addr pc, Addr vaddr, PredMeta &meta)
{
    (void)pc;
    meta = PredMeta{};
    meta.predictedOffChip = !tracked(lineAddr(vaddr));
    meta.valid = true;
    return meta.predictedOffChip;
}

void
Ttp::train(Addr pc, Addr vaddr, const PredMeta &meta, bool went_off_chip)
{
    // TTP learns only from hierarchy fill/eviction events.
    (void)pc;
    (void)vaddr;
    (void)meta;
    (void)went_off_chip;
}

void
Ttp::onFillFromDram(Addr line)
{
    const std::uint32_t set = setOf(line);
    const std::uint16_t tag = tagOf(line);
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;
    ++clock_;

    Entry *victim = &table_[base];
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Entry &e = table_[base + w];
        if (e.valid && e.tag == tag) {
            e.lastUse = clock_;
            return;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = clock_;
}

void
Ttp::onLlcEviction(Addr line)
{
    const std::uint32_t set = setOf(line);
    const std::uint16_t tag = tagOf(line);
    const std::size_t base = static_cast<std::size_t>(set) * params_.ways;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Entry &e = table_[base + w];
        if (e.valid && e.tag == tag) {
            e.valid = false;
            return;
        }
    }
}

std::uint64_t
Ttp::storageBits() const
{
    return static_cast<std::uint64_t>(table_.size()) *
           (params_.tagBits + 1);
}

namespace
{

ModelDef
ttpModelDef()
{
    const TtpParams p;
    ModelDef d;
    d.name = "ttp";
    d.kind = ModelKind::Predictor;
    d.doc = "address tag-tracking off-chip predictor (the paper's TTP "
            "comparison point, §4)";
    d.knobs = {
        {"sets", ModelKnob::Type::Int, std::to_string(p.sets), 1, 1 << 24,
         true, "TTP tag-table sets"},
        {"ways", ModelKnob::Type::Int, std::to_string(p.ways), 1, 64,
         false, "TTP tag-table associativity"},
        {"tag_bits", ModelKnob::Type::Int, std::to_string(p.tagBits), 1,
         16, false, "TTP partial tag width (bits)"},
    };
    d.counters = predictorCounterKeys();
    d.makePredictor = [](const ModelContext &ctx) {
        TtpParams params;
        params.sets = static_cast<std::uint32_t>(ctx.knobInt("sets"));
        params.ways = static_cast<std::uint32_t>(ctx.knobInt("ways"));
        params.tagBits = static_cast<unsigned>(ctx.knobInt("tag_bits"));
        return std::make_unique<Ttp>(params);
    };
    return d;
}

const ModelRegistrar ttpRegistrar(ttpModelDef());

} // namespace

} // namespace hermes
