/**
 * @file
 * Fig. 21 (Appendix B.3): POPET accuracy/coverage when Hermes runs with
 * each of the paper's five baseline prefetchers and with no prefetcher
 * at all.
 *
 * Paper shape: accuracy/coverage vary with the prefetcher (73-80% /
 * 66-85%); without any prefetcher POPET is clearly best (88.9% / 93.6%)
 * because prefetch traffic perturbs off-chip behaviour.
 */
// figmap: Fig. 21 | POPET accuracy/coverage per baseline prefetcher and none

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "harness/harness.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(120'000, 300'000);

    // "none" last: the paper's panels put the prefetcher-free system
    // at the end as the reference point.
    std::vector<std::string> pfs(std::begin(kPaperPrefetchers),
                                 std::end(kPaperPrefetchers));
    pfs.push_back(PrefetcherKind::None);

    Table t({"config", "accuracy", "coverage"});
    for (const std::string &pf : pfs) {
        const std::string label =
            pf == PrefetcherKind::None ? "Hermes alone" : pf + "+Hermes";
        const auto rs = runSuite(
            withHermes(cfgPrefetcher(pf), PredictorKind::Popet, 6), b);
        PredictorStats all;
        for (const auto &r : rs)
            all += r.stats.predTotal();
        t.addRow({label, Table::pct(all.accuracy()),
                  Table::pct(all.coverage())});
    }
    t.print("Fig. 21: POPET accuracy/coverage vs baseline prefetcher");
    std::printf("\npaper: highest accuracy/coverage with no prefetcher "
                "(88.9%%/93.6%%)\n");
    return 0;
}
