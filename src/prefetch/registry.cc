#include "prefetch/prefetcher.hh"
#include "sim/model_registry.hh"

namespace hermes
{

// The "no prefetcher" baseline registers here so every value of the
// "prefetcher" parameter resolves through the model registry.
namespace
{

ModelDef
nonePrefetcherDef()
{
    ModelDef d;
    d.name = "none";
    d.kind = ModelKind::Prefetcher;
    d.doc = "no LLC hardware prefetcher (baseline)";
    d.makePrefetcher = [](const ModelContext &) {
        return std::unique_ptr<Prefetcher>();
    };
    return d;
}

const ModelRegistrar noneRegistrar(nonePrefetcherDef());

} // namespace

} // namespace hermes
