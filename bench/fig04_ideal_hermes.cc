/**
 * @file
 * Fig. 4: potential of Ideal Hermes (oracle off-chip prediction).
 * (a) Ideal Hermes alone, Pythia, Pythia + Ideal Hermes, normalised to
 *     the no-prefetching system.
 * (b) Ideal Hermes on top of Bingo, SPP, MLOP and SMS.
 *
 * Paper shape: Pythia + Ideal Hermes beats Pythia by ~8.3%; Ideal
 * Hermes alone captures a large fraction of Pythia's gain; every
 * prefetcher gains 8-13% from Ideal Hermes.
 */
// figmap: Fig. 4 | Ideal Hermes alone and on top of each prefetcher

#include <cstdio>

#include "harness/harness.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(120'000, 300'000);
    const auto nopf = runSuite(cfgNoPrefetch(), b);

    Table a({"config", "geomean speedup vs no-pf"});
    const auto ideal_alone =
        runSuite(withHermes(cfgNoPrefetch(), PredictorKind::Ideal), b);
    const auto pyth = runSuite(cfgBaseline(), b);
    const auto pyth_ideal =
        runSuite(withHermes(cfgBaseline(), PredictorKind::Ideal), b);
    a.addRow({"Ideal Hermes", Table::fmt(geomeanSpeedup(ideal_alone,
                                                        nopf))});
    a.addRow({"Pythia (baseline)", Table::fmt(geomeanSpeedup(pyth,
                                                             nopf))});
    a.addRow({"Pythia + Ideal Hermes",
              Table::fmt(geomeanSpeedup(pyth_ideal, nopf))});
    a.print("Fig. 4a: Ideal Hermes potential (single-core)");
    std::printf("Pythia+IdealHermes over Pythia: %+.1f%% (paper: +8.3%%)\n",
                100.0 * (geomeanSpeedup(pyth_ideal, nopf) /
                             geomeanSpeedup(pyth, nopf) -
                         1.0));

    Table t({"prefetcher", "pf-only", "pf + Ideal Hermes", "gain"});
    for (const char *pf : kPaperPrefetchers) {
        const auto base = runSuite(cfgPrefetcher(pf), b);
        const auto with =
            runSuite(withHermes(cfgPrefetcher(pf), PredictorKind::Ideal),
                     b);
        const double sb = geomeanSpeedup(base, nopf);
        const double sw = geomeanSpeedup(with, nopf);
        t.addRow(
            {pf, Table::fmt(sb), Table::fmt(sw), Table::pct(sw / sb - 1.0)});
    }
    t.print("Fig. 4b: Ideal Hermes with different prefetchers");
    return 0;
}
