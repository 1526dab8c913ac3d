/**
 * @file
 * Fig. 14: Hermes on top of Pythia with each off-chip predictor the
 * paper compares: HMP, TTP, POPET and the oracle (Ideal Hermes), in
 * the paper's order.
 *
 * Paper shape (geomean over no-pf): Pythia 1.203, +Hermes-HMP 1.211,
 * +Hermes-TTP 1.220, +Hermes-POPET 1.257, +Ideal 1.286 — POPET
 * captures ~90% of the oracle's benefit.
 */
// figmap: Fig. 14 | HMP, TTP, POPET and Ideal Hermes on the Pythia baseline

#include <cstdio>
#include <string>

#include "harness/harness.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(120'000, 300'000);
    const auto nopf = runSuite(cfgNoPrefetch(), b);
    const auto pyth = runSuite(cfgBaseline(), b);

    Table t({"config", "geomean speedup vs no-pf", "vs Pythia"});
    const double base = geomeanSpeedup(pyth, nopf);
    t.addRow({"Pythia (baseline)", Table::fmt(base), "-"});
    double popet_gain = 0, ideal_gain = 0;
    for (const std::string name : {PredictorKind::Hmp, PredictorKind::Ttp,
                                   PredictorKind::Popet,
                                   PredictorKind::Ideal}) {
        const auto rs = runSuite(withHermes(cfgBaseline(), name, 6), b);
        const double s = geomeanSpeedup(rs, nopf);
        t.addRow({"Pythia+Hermes-" + name, Table::fmt(s),
                  Table::pct(s / base - 1.0)});
        if (name == PredictorKind::Popet)
            popet_gain = s / base - 1.0;
        if (name == PredictorKind::Ideal)
            ideal_gain = s / base - 1.0;
    }
    t.print("Fig. 14: effect of the off-chip prediction mechanism");
    if (ideal_gain > 0)
        std::printf("\nPOPET captures %.0f%% of the Ideal Hermes benefit "
                    "(paper: ~90%%)\n",
                    100.0 * popet_gain / ideal_gain);
    return 0;
}
