#include "predictor/offchip_pred.hh"
#include "sim/model_registry.hh"

namespace hermes
{

// The "no predictor" baseline registers here so every value of the
// "predictor" parameter resolves through the model registry.
namespace
{

ModelDef
nonePredictorDef()
{
    ModelDef d;
    d.name = "none";
    d.kind = ModelKind::Predictor;
    d.doc = "no off-chip load predictor (baseline)";
    d.makePredictor = [](const ModelContext &) {
        return std::unique_ptr<OffChipPredictor>();
    };
    return d;
}

const ModelRegistrar noneRegistrar(nonePredictorDef());

} // namespace

} // namespace hermes
