/**
 * @file
 * Fig. 10: POPET accuracy/coverage with each program feature used
 * individually and with features stacked incrementally.
 *
 * Paper shape: individual features range widely (53-71% accuracy,
 * 14-48% coverage); the stacked five-feature POPET beats every
 * individual feature on both metrics.
 */
// figmap: Fig. 10 | popet.feature_mask: individual and stacked features

#include <cstdio>
#include <string>

#include "harness/harness.hh"
#include "predictor/popet.hh"
#include "sim/param_registry.hh"

using namespace hermes;
using namespace hermes::bench;

namespace
{

PredictorStats
runMask(unsigned mask, const SimBudget &b)
{
    SystemConfig cfg = withPredictorOnly(cfgBaseline(),
                                         PredictorKind::Popet);
    applyOverride(cfg, "popet.feature_mask=" + std::to_string(mask));
    PredictorStats all;
    for (const auto &r : runSuite(cfg, b))
        all += r.stats.predTotal();
    return all;
}

} // namespace

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(100'000, 250'000);
    static const char *feature_names[] = {
        "PC^cl_offset", "PC^byte_offset", "PC+first_access",
        "cl_offset+first_access", "last4_load_PCs",
    };

    Table t({"features", "accuracy", "coverage"});
    for (unsigned f = 0; f < kPopetFeatureCount; ++f) {
        const PredictorStats p = runMask(1u << f, b);
        t.addRow({feature_names[f], Table::pct(p.accuracy()),
                  Table::pct(p.coverage())});
    }
    // Stacked combinations in the paper's order: 1, 1+2, 1+2+3, ...
    // using (PC^cl_offset, last4, PC^byte, PC+fa, cl_offset+fa).
    const unsigned order[] = {kFeatPcXorLineOffset, kFeatLast4LoadPcs,
                              kFeatPcXorByteOffset, kFeatPcFirstAccess,
                              kFeatOffsetFirstAccess};
    unsigned mask = 0;
    std::string label;
    for (unsigned i = 0; i < 5; ++i) {
        mask |= 1u << order[i];
        label += (i ? "+" : "") + std::to_string(order[i] + 1);
        const PredictorStats p = runMask(mask, b);
        t.addRow({(i + 1 == 5 ? "All (POPET)" : label),
                  Table::pct(p.accuracy()), Table::pct(p.coverage())});
    }
    t.print("Fig. 10: POPET feature ablation (accuracy / coverage)");
    return 0;
}
