#include "cache/replacement.hh"

#include <memory>

#include "sim/model_registry.hh"

namespace hermes
{

namespace
{

ModelDef
replDef(const char *name, const char *doc,
        std::unique_ptr<ReplacementPolicy> (*make)(std::uint32_t,
                                                   std::uint32_t))
{
    ModelDef d;
    d.name = name;
    d.kind = ModelKind::Replacement;
    d.doc = doc;
    d.counters = replacementCounterKeys();
    d.makeReplacement = [make](const ModelContext &ctx) {
        return make(ctx.sets, ctx.ways);
    };
    return d;
}

const ModelRegistrar lruRegistrar(replDef(
    "lru", "least-recently-used (L1/L2 default)",
    [](std::uint32_t sets,
       std::uint32_t ways) -> std::unique_ptr<ReplacementPolicy> {
        return std::make_unique<LruPolicy>(sets, ways);
    }));

const ModelRegistrar srripRegistrar(replDef(
    "srrip", "static re-reference interval prediction (2-bit RRPV)",
    [](std::uint32_t sets,
       std::uint32_t ways) -> std::unique_ptr<ReplacementPolicy> {
        return std::make_unique<SrripPolicy>(sets, ways);
    }));

const ModelRegistrar shipRegistrar(replDef(
    "ship", "signature-based hit prediction (the paper's LLC policy, "
            "Table 4)",
    [](std::uint32_t sets,
       std::uint32_t ways) -> std::unique_ptr<ReplacementPolicy> {
        return std::make_unique<ShipPolicy>(sets, ways);
    }));

} // namespace

} // namespace hermes
