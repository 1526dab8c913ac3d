/**
 * @file
 * A drop-in off-chip predictor, end to end: this single translation
 * unit defines a model, registers it under the name "example_bias",
 * and the rest of the simulator picks it up with **zero changes** — no
 * enum, no SystemConfig field, no System wiring. The scenario below
 * selects it purely through strings (`predictor = example_bias`) and
 * tunes it through the automatically exposed
 * `example_bias.*` parameter keys, exactly as `hermes_run` overrides
 * would. The walkthrough lives in docs/extending-models.md.
 *
 * The model itself is deliberately simple: a PC-indexed table of
 * saturating counters that learns, per load PC, how often that PC's
 * loads go off-chip, and predicts off-chip once the counter crosses a
 * threshold.
 *
 * It exits 1 unless the model made predictions, Hermes scheduled
 * requests on them, the knobs survived toConfig() and a second run of
 * the same scenario has the same statistics fingerprint.
 *
 * Usage: custom_predictor [trace=<name>]
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "predictor/offchip_pred.hh"
#include "sim/model_registry.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "trace/suite.hh"

using namespace hermes;

namespace
{

/** Per-PC off-chip bias: an array of n-bit saturating counters. */
class ExampleBias final : public OffChipPredictor
{
  public:
    explicit ExampleBias(const ModelContext &ctx)
        : threshold_(static_cast<int>(ctx.knobInt("threshold"))),
          counterMax_((1 << ctx.knobInt("counter_bits")) - 1),
          counterBits_(
              static_cast<unsigned>(ctx.knobInt("counter_bits"))),
          mask_((1u << ctx.knobInt("table_bits")) - 1),
          counters_(1u << ctx.knobInt("table_bits"), 0)
    {
    }

    const char *name() const override { return "example_bias"; }

    bool
    predict(Addr pc, Addr vaddr, PredMeta &meta) override
    {
        (void)vaddr;
        const std::uint32_t idx = index(pc);
        meta = PredMeta{};
        meta.index[meta.indexCount++] = idx;
        meta.sum = static_cast<std::int16_t>(counters_[idx]);
        meta.predictedOffChip = counters_[idx] >= threshold_;
        meta.valid = true;
        return meta.predictedOffChip;
    }

    void
    train(Addr pc, Addr vaddr, const PredMeta &meta,
          bool went_off_chip) override
    {
        (void)pc;
        (void)vaddr;
        if (!meta.valid)
            return;
        int &c = counters_[meta.index[0]];
        if (went_off_chip)
            c = c < counterMax_ ? c + 1 : c;
        else
            c = c > 0 ? c - 1 : 0;
    }

    std::uint64_t
    storageBits() const override
    {
        return static_cast<std::uint64_t>(counters_.size()) *
               counterBits_;
    }

  private:
    std::uint32_t
    index(Addr pc) const
    {
        return static_cast<std::uint32_t>((pc >> 2) ^ (pc >> 13)) &
               mask_;
    }

    int threshold_;
    int counterMax_;
    unsigned counterBits_;
    std::uint32_t mask_;
    std::vector<int> counters_;
};

ModelDef
exampleBiasDef()
{
    ModelDef d;
    d.name = "example_bias";
    d.kind = ModelKind::Predictor;
    d.doc = "per-PC saturating-counter off-chip bias (example model)";
    d.knobs = {
        {"table_bits", ModelKnob::Type::Int, "12", 4, 24, false,
         "log2 of the counter-table entries"},
        {"counter_bits", ModelKnob::Type::Int, "3", 1, 8, false,
         "saturating counter width (bits)"},
        {"threshold", ModelKnob::Type::Int, "4", 1, 255, false,
         "counter value at which loads predict off-chip"},
    };
    d.counters = predictorCounterKeys();
    d.makePredictor = [](const ModelContext &ctx) {
        return std::make_unique<ExampleBias>(ctx);
    };
    return d;
}

// Registration happens at static-initialisation time, before main();
// from here on "example_bias" is a first-class predictor everywhere a
// model name is accepted.
const ModelRegistrar exampleBiasRegistrar(exampleBiasDef());

} // namespace

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);
    const std::string trace =
        cli.get("trace", std::string("spec06.mcf_like.0"));

    // Select and tune the model purely through strings — the same path
    // hermes_run key=value overrides and .ini scenario files use.
    Config scenario;
    scenario.parse("predictor = example_bias\n"
                   "hermes.enabled = true\n"
                   "example_bias.table_bits = 13\n"
                   "example_bias.threshold = 3\n");
    const SystemConfig cfg = SystemConfig::fromConfig(scenario);

    SimBudget budget;
    budget.warmupInstrs = 20'000;
    budget.simInstrs = 80'000;
    const RunStats stats =
        simulate(cfg, {findTrace(trace)}, budget);

    const PredictorStats pred = stats.predTotal();
    std::printf("example_bias on %s: accuracy %.3f coverage %.3f "
                "hermes_scheduled %llu ipc %.4f\n",
                trace.c_str(), pred.accuracy(), pred.coverage(),
                static_cast<unsigned long long>(
                    stats.hermesRequestsScheduled),
                stats.ipc(0));

    // Round-trip proof: the registry knobs travel through toConfig()
    // like any other parameter, so journaled sweeps and fingerprints
    // see them.
    const bool knob_kept =
        cfg.toConfig().contains("example_bias.table_bits");
    std::printf("knobs survive toConfig() round-trip: %s\n",
                knob_kept ? "yes" : "NO");
    const bool repeatable =
        statsFingerprint(simulate(cfg, {findTrace(trace)}, budget)) ==
        statsFingerprint(stats);
    std::printf("second run has the same fingerprint: %s\n",
                repeatable ? "yes" : "NO");
    const bool ok = pred.total() > 0 &&
                    stats.hermesRequestsScheduled > 0 && knob_kept &&
                    repeatable;
    return ok ? 0 : 1;
}
