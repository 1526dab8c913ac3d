/**
 * @file
 * Design-choice ablations for POPET (paper §6.1) beyond the paper's
 * figures: page-buffer reach, weight width, training thresholds and
 * the mispredict-training rule. Each sweep reports accuracy/coverage
 * (predictor-only) and Hermes speedup on the Pythia baseline,
 * quantifying how much each design decision buys.
 */
// figmap: (ablation) | POPET buffer/weights/thresholds knobs

#include <cstdio>
#include <string>
#include <vector>

#include "harness/harness.hh"
#include "predictor/popet.hh"
#include "sim/param_registry.hh"

using namespace hermes;
using namespace hermes::bench;

namespace
{

struct Outcome
{
    double accuracy;
    double coverage;
    double speedup;
};

/** Hermes-O with POPET tuned by @p popet ("popet.<knob>=value"). */
Outcome
evaluate(const std::vector<std::string> &popet, const SimBudget &b,
         const std::vector<TraceResult> &nopf)
{
    const SystemConfig cfg = configWith(
        withHermes(cfgBaseline(), PredictorKind::Popet, 6), popet);
    const auto rs = runSuite(cfg, b);
    PredictorStats all;
    for (const auto &r : rs)
        all += r.stats.predTotal();
    return {all.accuracy(), all.coverage(), geomeanSpeedup(rs, nopf)};
}

} // namespace

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(80'000, 200'000);
    const auto nopf = runSuite(cfgNoPrefetch(), b);

    {
        Table t({"page buffer entries", "accuracy", "coverage",
                 "speedup"});
        for (unsigned entries : {16u, 32u, 64u, 128u, 256u}) {
            const Outcome o = evaluate(
                {"popet.page_buffer_entries=" + std::to_string(entries)}, b,
                nopf);
            t.addRow({std::to_string(entries), Table::pct(o.accuracy),
                      Table::pct(o.coverage), Table::fmt(o.speedup)});
        }
        t.print("Ablation: page-buffer reach (paper: 64 entries)");
    }

    {
        Table t({"weight bits", "accuracy", "coverage", "speedup"});
        for (unsigned bits : {3u, 4u, 5u, 6u, 8u}) {
            // Keep thresholds proportional to the weight range so the
            // operating point stays comparable.
            const double scale = static_cast<double>((1 << (bits - 1))) /
                                 16.0;
            auto scaled = [scale](int threshold) {
                return std::to_string(static_cast<int>(threshold * scale));
            };
            const PopetParams paper;
            const Outcome o = evaluate(
                {"popet.weight_bits=" + std::to_string(bits),
                 "popet.act_threshold=" + scaled(paper.activationThreshold),
                 "popet.train_threshold_neg=" +
                     scaled(paper.trainingThresholdNeg),
                 "popet.train_threshold_pos=" +
                     scaled(paper.trainingThresholdPos)},
                b, nopf);
            t.addRow({std::to_string(bits), Table::pct(o.accuracy),
                      Table::pct(o.coverage), Table::fmt(o.speedup)});
        }
        t.print("Ablation: weight width (paper: 5-bit weights)");
    }

    {
        Table t({"T_N/T_P", "accuracy", "coverage", "speedup"});
        const struct
        {
            int tn, tp;
        } pairs[] = {{-80, 75}, {-50, 55}, {-35, 40}, {-20, 25},
                     {-10, 12}};
        for (const auto &pr : pairs) {
            const Outcome o = evaluate(
                {"popet.train_threshold_neg=" + std::to_string(pr.tn),
                 "popet.train_threshold_pos=" + std::to_string(pr.tp)},
                b, nopf);
            t.addRow({std::to_string(pr.tn) + "/" + std::to_string(pr.tp),
                      Table::pct(o.accuracy), Table::pct(o.coverage),
                      Table::fmt(o.speedup)});
        }
        t.print("Ablation: training thresholds (paper: -35/40)");
    }

    {
        Table t({"train on mispredict", "accuracy", "coverage",
                 "speedup"});
        for (bool train : {false, true}) {
            const Outcome o = evaluate(
                {std::string("popet.train_on_mispredict=") +
                 (train ? "true" : "false")},
                b, nopf);
            t.addRow({train ? "yes" : "no", Table::pct(o.accuracy),
                      Table::pct(o.coverage), Table::fmt(o.speedup)});
        }
        t.print("Ablation: always-train-on-mispredict rule");
    }
    return 0;
}
