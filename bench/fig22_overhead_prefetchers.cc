/**
 * @file
 * Fig. 22 (Appendix B.4): main-memory request overhead of each
 * prefetcher alone and with Hermes added, vs the no-prefetching system.
 *
 * Paper shape: adding Hermes costs only 5.8-15.6% extra requests on
 * top of each prefetcher.
 */
// figmap: Fig. 22 | main-memory request overhead of prefetchers +/- Hermes

#include <cstdio>

#include "harness/harness.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(120'000, 300'000);

    auto reads = [](const std::vector<TraceResult> &rs) {
        double total = 0;
        for (const auto &r : rs)
            total += static_cast<double>(r.stats.dram.totalReads());
        return total;
    };
    const double base_reads = reads(runSuite(cfgNoPrefetch(), b));

    Table t({"prefetcher", "pf vs no-pf", "pf+Hermes vs no-pf",
             "Hermes adds"});
    for (const char *pf : kPaperPrefetchers) {
        const double r0 = reads(runSuite(cfgPrefetcher(pf), b));
        const double r1 = reads(runSuite(
            withHermes(cfgPrefetcher(pf), PredictorKind::Popet, 6), b));
        t.addRow({pf, Table::pct(r0 / base_reads - 1.0),
                  Table::pct(r1 / base_reads - 1.0),
                  Table::pct((r1 - r0) / r0)});
    }
    t.print("Fig. 22: main-memory request overhead per prefetcher");
    return 0;
}
