/**
 * @file
 * Table 6: storage overhead of every evaluated mechanism.
 * Paper: HMP 11KB, TTP 1536KB, Pythia 25.5KB, Bingo 46KB, SPP+PPF
 * 39.3KB, MLOP 8KB, SMS 20KB, Hermes+POPET 4KB.
 */
// figmap: Table 6 | storage overhead of every evaluated mechanism

#include <cstdio>

#include "harness/harness.hh"
#include "predictor/hmp.hh"
#include "predictor/popet.hh"
#include "predictor/ttp.hh"
#include "sim/model_registry.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    Table t({"mechanism", "modelled (KB)", "paper (KB)"});

    Hmp hmp;
    t.addRow({"HMP (local+gshare+gskew)",
              Table::fmt(hmp.storageBits() / 8192.0, 1), "11"});
    Ttp ttp;
    t.addRow({"TTP (metadata ~ L2 budget)",
              Table::fmt(ttp.storageBits() / 8192.0, 1), "1536"});

    const struct
    {
        const char *name;
        const char *paper;
    } pf[] = {
        {PrefetcherKind::Pythia, "25.5"}, {PrefetcherKind::Bingo, "46"},
        {PrefetcherKind::Spp, "39.3"},    {PrefetcherKind::Mlop, "8"},
        {PrefetcherKind::Sms, "20"},
    };
    for (const auto &p : pf) {
        const auto pref =
            ModelRegistry::instance().makePrefetcher(p.name, {});
        t.addRow({p.name,
                  Table::fmt(pref->storageBits() / 8192.0, 1), p.paper});
    }

    Popet popet;
    const double lq_kb = 128.0 * 49 / 8192.0;
    t.addRow({"Hermes with POPET",
              Table::fmt(popet.storageBits() / 8192.0 + lq_kb, 1), "4"});
    t.print("Table 6: storage overhead of all evaluated mechanisms");
    return 0;
}
