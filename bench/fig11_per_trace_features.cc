/**
 * @file
 * Fig. 11: per-trace accuracy and coverage of POPET using each program
 * feature individually.
 *
 * Paper shape: no single feature wins everywhere — the best feature
 * changes from trace to trace, which is the argument for multi-feature
 * learning.
 */
// figmap: Fig. 11 | popet.feature_mask: per-trace single-feature runs

#include <cstdio>
#include <string>

#include "harness/harness.hh"
#include "predictor/popet.hh"
#include "sim/param_registry.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(100'000, 250'000);
    static const char *feature_names[] = {
        "PC^cl_off", "PC^byte_off", "PC+fa", "cl_off+fa", "last4PC",
    };

    // results[f][trace] = (accuracy, coverage)
    std::vector<std::vector<std::pair<double, double>>> results(
        kPopetFeatureCount);
    std::vector<std::string> names;
    for (unsigned f = 0; f < kPopetFeatureCount; ++f) {
        SystemConfig cfg = withPredictorOnly(cfgBaseline(),
                                             PredictorKind::Popet);
        applyOverride(cfg,
                      "popet.feature_mask=" + std::to_string(1u << f));
        for (const auto &r : runSuite(cfg, b)) {
            if (f == 0)
                names.push_back(r.trace);
            const PredictorStats p = r.stats.predTotal();
            results[f].push_back({p.accuracy(), p.coverage()});
        }
    }

    Table t({"trace", "best-acc feature", feature_names[0],
             feature_names[1], feature_names[2], feature_names[3],
             feature_names[4]});
    std::vector<unsigned> wins(kPopetFeatureCount, 0);
    for (std::size_t i = 0; i < names.size(); ++i) {
        unsigned best = 0;
        std::vector<std::string> row = {names[i], ""};
        for (unsigned f = 0; f < kPopetFeatureCount; ++f) {
            if (results[f][i].first > results[best][i].first)
                best = f;
            row.push_back(Table::pct(results[f][i].first) + "/" +
                          Table::pct(results[f][i].second));
        }
        row[1] = feature_names[best];
        ++wins[best];
        t.addRow(row);
    }
    t.print("Fig. 11: per-trace accuracy/coverage per individual feature");

    std::printf("\nbest-accuracy wins per feature:");
    for (unsigned f = 0; f < kPopetFeatureCount; ++f)
        std::printf(" %s=%u", feature_names[f], wins[f]);
    std::printf("\n(paper: wins split 9/20/47/29/5 across features — no "
                "single feature dominates)\n");
    return 0;
}
