#include "sim/report.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "sim/power.hh"
#include "sim/stat_registry.hh"

namespace hermes
{

namespace
{

void
cacheSection(std::ostringstream &os, const char *name, const CacheStats &c)
{
    const double hit_rate =
        c.demandLookups()
            ? 100.0 * static_cast<double>(c.demandHits()) /
                  static_cast<double>(c.demandLookups())
            : 0.0;
    os << "  " << name << ": demand " << c.demandLookups() << " (hit "
       << hit_rate << "%), wb " << c.writebackLookups << ", pf issued "
       << c.prefetchIssued << " useful " << c.usefulPrefetches
       << " useless " << c.uselessPrefetches << ", evict " << c.evictions
       << " (dirty " << c.dirtyEvictions << ")\n";
}

} // namespace

std::string
formatReport(const RunStats &stats)
{
    std::ostringstream os;
    os << "=== simulation report ===\n";
    os << "cycles: " << stats.simCycles << "\n";
    for (std::size_t i = 0; i < stats.core.size(); ++i) {
        const auto &c = stats.core[i];
        os << "core " << i << ": " << c.instrsRetired << " instrs, IPC "
           << stats.ipc(static_cast<int>(i)) << "\n";
        os << "  loads " << c.loadsRetired << " (off-chip "
           << c.loadsOffChip << ", blocking " << c.offChipBlocking
           << "), stores " << c.storesRetired << ", branches "
           << c.branchesRetired << " (mispred " << c.branchMispredicts
           << ")\n";
        os << "  stall cycles: off-chip " << c.stallCyclesOffChip
           << " (eliminable " << c.stallCyclesEliminable
           << "), other-load " << c.stallCyclesOtherLoad << ", other "
           << c.stallCyclesOther << "\n";
        if (i < stats.predictor.size() &&
            stats.predictor[i].total() > 0) {
            const auto &p = stats.predictor[i];
            os << "  off-chip predictor: acc "
               << 100.0 * p.accuracy() << "% cov "
               << 100.0 * p.coverage() << "% (tp " << p.truePositives
               << " fp " << p.falsePositives << " fn "
               << p.falseNegatives << " tn " << p.trueNegatives << ")\n";
        }
    }

    os << "memory hierarchy:\n";
    cacheSection(os, "L1D", stats.l1);
    cacheSection(os, "L2 ", stats.l2);
    cacheSection(os, "LLC", stats.llc);
    os << "  LLC MPKI: " << stats.llcMpki() << "\n";

    const auto &d = stats.dram;
    os << "dram: reads " << d.totalReads() << " (demand "
       << d.demandReads << ", prefetch " << d.prefetchReads
       << ", hermes " << d.hermesReads << "), writes " << d.writes
       << "\n";
    os << "  row hits " << d.rowHits << " misses " << d.rowMisses
       << " conflicts " << d.rowConflicts << ", wq-forwards "
       << d.wqForwards << "\n";
    if (stats.hermesRequestsScheduled > 0) {
        os << "hermes: scheduled " << stats.hermesRequestsScheduled
           << ", issued " << d.hermesIssued << ", merged-existing "
           << d.hermesMergedIntoExisting << ", useful " << d.hermesUseful
           << ", dropped " << d.hermesDropped << ", rejected "
           << d.hermesRejected << ", loads served "
           << stats.hermesLoadsServed << "\n";
    }
    if (stats.llc.prefetchIssued > 0) {
        os << "prefetcher: issued " << stats.llc.prefetchIssued
           << ", useful " << stats.llc.usefulPrefetches << ", useless "
           << stats.llc.uselessPrefetches << "\n";
    }

    const PowerBreakdown p = computePower(stats);
    os << "dynamic power (mW): L1 " << p.l1 << ", L2 " << p.l2
       << ", LLC " << p.llc << ", bus+DRAM " << p.bus << ", other "
       << p.other << ", total " << p.total() << "\n";
    return os.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
fingerprintHex(std::uint64_t fp)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fp));
    return buf;
}

std::string
csvHeader(const std::vector<StatColumn> &columns)
{
    std::string header = "label";
    for (const StatColumn &c : columns)
        header += "," + c.name;
    return header;
}

std::string
csvHeader(bool with_host_perf)
{
    return csvHeader(defaultStatColumns(with_host_perf));
}

std::string
formatCsvRow(const std::string &label, const RunStats &stats,
             const std::vector<StatColumn> &columns)
{
    std::string out = label;
    for (const StatColumn &c : columns)
        out += "," + statColumnValue(c, stats);
    return out;
}

std::string
formatCsvRow(const std::string &label, const RunStats &stats,
             bool with_host_perf)
{
    return formatCsvRow(label, stats, defaultStatColumns(with_host_perf));
}

std::string
formatJsonRow(const std::string &label, const RunStats &stats,
              const std::vector<StatColumn> &columns)
{
    std::string out = "{\"label\":\"" + jsonEscape(label) + "\"";
    for (const StatColumn &c : columns)
        out += ",\"" + c.name + "\":" + statColumnValue(c, stats);
    out += "}";
    return out;
}

std::string
formatJsonRow(const std::string &label, const RunStats &stats,
              bool with_host_perf)
{
    return formatJsonRow(label, stats,
                         defaultStatColumns(with_host_perf));
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    if (path == "-") {
        const std::size_t n =
            std::fwrite(text.data(), 1, text.size(), stdout);
        if (n != text.size() || std::fflush(stdout) != 0) {
            std::fprintf(stderr,
                         "error: could not write dump to stdout\n");
            return false;
        }
        return true;
    }
    std::ofstream out(path);
    out << text;
    out.flush();
    if (!out) {
        std::fprintf(stderr, "error: could not write %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace hermes
