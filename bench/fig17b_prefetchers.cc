/**
 * @file
 * Fig. 17b: Hermes-P/O combined with each baseline prefetcher (Pythia,
 * Bingo, SPP, MLOP, SMS).
 *
 * Paper shape: Hermes improves every baseline prefetcher (by 5.1-7.7%
 * for Hermes-O).
 */
// figmap: Fig. 17b | Hermes-P/O on each baseline prefetcher

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

    Table t({"prefetcher", "pf-only", "pf+Hermes-P", "pf+Hermes-O",
             "Hermes-O gain"});
    for (const char *pf : kPaperPrefetchers) {
        const auto base = runSuite(cfgPrefetcher(pf), b);
        const auto hp = runSuite(
            withHermes(cfgPrefetcher(pf), PredictorKind::Popet, 18), b);
        const auto ho = runSuite(
            withHermes(cfgPrefetcher(pf), PredictorKind::Popet, 6), b);
        const double sb = geomeanSpeedup(base, nopf);
        const double sho = geomeanSpeedup(ho, nopf);
        t.addRow({pf, Table::fmt(sb), Table::fmt(geomeanSpeedup(hp, nopf)),
                  Table::fmt(sho), Table::pct(sho / sb - 1.0)});
    }
    t.print("Fig. 17b: Hermes with different baseline prefetchers");
    return 0;
}
