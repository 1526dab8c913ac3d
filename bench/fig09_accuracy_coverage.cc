/**
 * @file
 * Fig. 9: off-chip prediction accuracy and coverage of POPET vs HMP vs
 * TTP on the Pythia baseline (predictor-only mode: predictions are
 * observed and trained but no Hermes requests are issued).
 *
 * Paper shape: POPET 77.1% accuracy / 74.3% coverage; HMP 47% / 22.3%;
 * TTP 16.6% / 94.8% (highest coverage, lowest accuracy).
 */
// figmap: Fig. 9 | predictor-only accuracy/coverage: POPET vs HMP vs TTP

#include <cstdio>

#include "harness/harness.hh"
#include "sim/stat_registry.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(120'000, 300'000);

    Table t({"predictor", "category", "accuracy", "coverage"});
    for (auto pk : {PredictorKind::Hmp, PredictorKind::Ttp,
                    PredictorKind::Popet}) {
        const auto rs =
            runSuite(withPredictorOnly(cfgBaseline(), pk), b);
        std::map<std::string, PredictorStats> agg;
        PredictorStats all;
        for (const auto &r : rs) {
            // Confusion-matrix counters through their registry keys
            // (the same pred.* columns --stats exposes in the dumps).
            auto &a = agg[r.category];
            for (auto [key, field] :
                 {std::pair{"pred.tp", &PredictorStats::truePositives},
                  {"pred.fp", &PredictorStats::falsePositives},
                  {"pred.fn", &PredictorStats::falseNegatives},
                  {"pred.tn", &PredictorStats::trueNegatives}}) {
                const std::uint64_t v = statU64(r.stats, key);
                a.*field += v;
                all.*field += v;
            }
        }
        for (const auto &[cat, p] : agg)
            t.addRow({pk, cat, Table::pct(p.accuracy()),
                      Table::pct(p.coverage())});
        t.addRow({pk, "AVG", Table::pct(all.accuracy()),
                  Table::pct(all.coverage())});
    }
    t.print("Fig. 9: accuracy and coverage of HMP / TTP / POPET");
    std::printf("\npaper: POPET 77.1/74.3, HMP 47.0/22.3, TTP 16.6/94.8\n");
    return 0;
}
