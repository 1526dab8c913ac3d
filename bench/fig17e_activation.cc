/**
 * @file
 * Fig. 17 (activation threshold): POPET accuracy/coverage and Hermes
 * speedup as tau_act sweeps from -38 to 2.
 *
 * Paper shape: accuracy rises and coverage falls with tau_act; the
 * speedup peaks slightly below the chosen operating point (-18), which
 * balances accuracy (bandwidth) against coverage.
 */
// figmap: Fig. 17e | popet.act_threshold -38..2

#include <cstdio>
#include <string>

#include "harness/harness.hh"
#include "sim/param_registry.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(100'000, 250'000);
    const auto nopf = runSuite(cfgNoPrefetch(), b);

    Table t({"tau_act", "accuracy", "coverage", "speedup vs no-pf"});
    for (int tau = -38; tau <= 2; tau += 4) {
        SystemConfig cfg = withHermes(cfgBaseline(), PredictorKind::Popet,
                                      6);
        applyOverride(cfg, "popet.act_threshold=" + std::to_string(tau));
        const auto rs = runSuite(cfg, b);
        PredictorStats all;
        for (const auto &r : rs)
            all += r.stats.predTotal();
        t.addRow({std::to_string(tau), Table::pct(all.accuracy()),
                  Table::pct(all.coverage()),
                  Table::fmt(geomeanSpeedup(rs, nopf))});
    }
    t.print("Fig. 17e: activation threshold sweep");
    return 0;
}
