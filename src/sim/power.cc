#include "sim/power.hh"

namespace hermes
{

PowerBreakdown
computePower(const RunStats &stats, const PowerParams &params)
{
    PowerBreakdown p;
    if (stats.simCycles == 0)
        return p;

    const double seconds =
        static_cast<double>(stats.simCycles) /
        (params.coreFreqGhz * 1e9);
    const double pj_to_mw = 1e-12 / seconds * 1e3;

    const auto cache_energy = [&](const CacheStats &c, double per_access) {
        const double accesses =
            static_cast<double>(c.loadLookups + c.rfoLookups +
                                c.writebackLookups + c.prefetchLookups +
                                c.fills);
        return accesses * per_access;
    };

    p.l1 = cache_energy(stats.l1, params.l1AccessPj) * pj_to_mw;
    p.l2 = cache_energy(stats.l2, params.l2AccessPj) * pj_to_mw;
    p.llc = cache_energy(stats.llc, params.llcAccessPj) * pj_to_mw;

    const double dram_requests =
        static_cast<double>(stats.dram.totalReads() + stats.dram.writes);
    p.bus = dram_requests *
            (params.dramAccessPj + params.busPerRequestPj) * pj_to_mw;

    double other_pj = 0;
    const PredictorStats pred = stats.predTotal();
    other_pj += static_cast<double>(pred.total()) *
                params.predictorAccessPj;
    other_pj += static_cast<double>(stats.llc.demandLookups()) *
                params.prefetcherAccessPj *
                (stats.llc.prefetchIssued > 0 ? 1.0 : 0.0);
    p.other = other_pj * pj_to_mw;
    return p;
}

} // namespace hermes
