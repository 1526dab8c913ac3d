/**
 * @file
 * hermes_trace: the trace-ecosystem Swiss-army tool. Captures corpus
 * or suite workloads to on-disk traces, converts between HRMTRACE and
 * ChampSim (compressed or not) as a stream, and inspects or summarizes
 * existing trace files — all through the same bounded-memory reader
 * the simulator replays with, so anything this tool accepts, a
 * simulation accepts too.
 *
 * Examples:
 *   hermes_trace synthesize --trace corpus.chase:footprint_mb=256 \
 *                --out chase.hrm.xz --count 2000000
 *   hermes_trace convert mcf.champsimtrace.xz mcf.hrm
 *   hermes_trace inspect chase.hrm.xz --head 8
 *   hermes_trace stats mcf.champsimtrace.xz
 *   hermes_trace corpus
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/config.hh"
#include "trace/corpus.hh"
#include "trace/resolve.hh"
#include "trace/trace_file.hh"
#include "trace/trace_reader.hh"

namespace
{

using namespace hermes;

void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        stderr,
        "usage: %s <command> [args]\n"
        "Create, convert and inspect on-disk traces.\n"
        "\n"
        "commands:\n"
        "  synthesize --trace SPEC --out FILE [--count N]\n"
        "             [--seed-offset K]\n"
        "      capture a workload (suite trace name or\n"
        "      corpus.<generator>[:knob=value...]) to FILE; format and\n"
        "      compression follow the file name (.hrm vs .champsim/\n"
        "      .champsimtrace/.trace, plus .gz/.xz; default count\n"
        "      1000000). --seed-offset captures the workload replica a\n"
        "      multi-core mix would hand to core K.\n"
        "  convert IN OUT\n"
        "      re-encode IN (HRMTRACE or ChampSim, compression\n"
        "      detected by magic) as OUT (format/compression from the\n"
        "      file name); streams with bounded memory, reports any\n"
        "      dependences the output format cannot represent\n"
        "  inspect FILE [--head N]\n"
        "      print header metadata (and the first N instructions)\n"
        "  stats FILE\n"
        "      stream the whole trace once: instruction mix, branch\n"
        "      taken rate, load-dependence profile, 64B-line and\n"
        "      4KB-page footprint\n"
        "  corpus\n"
        "      list the corpus generators and their knobs\n"
        "  -h, --help\n"
        "      this message\n",
        argv0);
    std::exit(exit_code);
}

/** The value of a count flag (--count, --seed-offset, --head); a
 * sign, a leading space or trailing garbage is a usage error. */
std::uint64_t
countFlag(const char *argv0, const char *flag, const std::string &value)
{
    const std::optional<std::uint64_t> n = parseCount(value);
    if (!n) {
        std::fprintf(stderr,
                     "error: %s wants a non-negative integer, got '%s'\n",
                     flag, value.c_str());
        usage(argv0, 2);
    }
    return *n;
}

const char *
kindName(InstrKind k)
{
    switch (k) {
      case InstrKind::Alu:
        return "alu";
      case InstrKind::Load:
        return "load";
      case InstrKind::Store:
        return "store";
      case InstrKind::Branch:
        return "branch";
    }
    return "?";
}

/** Open a reader and (for headerless ChampSim) fall back to the file
 * name for identity, mirroring FileWorkload. */
struct OpenedTrace
{
    std::unique_ptr<TraceReader> reader;
    std::string name;
    std::string category;
};

OpenedTrace
openTrace(const std::string &path)
{
    OpenedTrace t;
    t.reader = std::make_unique<TraceReader>(openByteSource(path),
                                             formatForPath(path));
    const TraceMeta &meta = t.reader->meta();
    t.name = meta.name.empty()
                 ? path.substr(path.find_last_of('/') + 1)
                 : meta.name;
    t.category = meta.category.empty() ? "CHAMPSIM" : meta.category;
    return t;
}

int
cmdSynthesize(const std::vector<std::string> &args, const char *argv0)
{
    std::string spec;
    std::string out;
    std::uint64_t count = 1'000'000;
    std::uint64_t seed_offset = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
        auto value = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                usage(argv0, 2);
            return args[++i];
        };
        if (args[i] == "--trace")
            spec = value();
        else if (args[i] == "--out")
            out = value();
        else if (args[i] == "--count")
            count = countFlag(argv0, "--count", value());
        else if (args[i] == "--seed-offset")
            seed_offset = countFlag(argv0, "--seed-offset", value());
        else
            usage(argv0, 2);
    }
    if (spec.empty() || out.empty() || count == 0)
        usage(argv0, 2);

    const TraceSpec trace = resolveTrace(spec);
    std::unique_ptr<Workload> workload = trace.make();
    if (seed_offset > 0)
        workload = workload->clone(seed_offset);
    const std::uint64_t dropped =
        writeTraceFile(out, *workload, count, trace.name(),
                       trace.category());
    std::printf("wrote %" PRIu64 " instructions of %s to %s (%s, %s)\n",
                count, trace.name().c_str(), out.c_str(),
                traceFormatName(formatForPath(out)),
                compressionName(compressionForPath(out)));
    if (dropped > 0)
        std::fprintf(stderr,
                     "note: %" PRIu64 " dependences/operands not "
                     "representable in this format were dropped\n",
                     dropped);
    return 0;
}

int
cmdConvert(const std::vector<std::string> &args, const char *argv0)
{
    if (args.size() != 2)
        usage(argv0, 2);
    const std::string &in = args[0];
    const std::string &out = args[1];

    OpenedTrace t = openTrace(in);
    // HRMTRACE headers promise the record count up front; headerless
    // ChampSim needs a validating prescan (records expand 1:N).
    std::uint64_t count = t.reader->meta().recordCount;
    if (count == 0) {
        TraceInstr instr;
        while (t.reader->next(instr))
            ++count;
        if (count == 0)
            throw std::runtime_error("empty champsim trace: " + in);
        t.reader->rewind();
    }

    auto writer =
        openTraceWriter(out, formatForPath(out), compressionForPath(out),
                        count, t.name, t.category);
    TraceInstr instr;
    std::uint64_t written = 0;
    while (t.reader->next(instr)) {
        writer->append(instr);
        ++written;
    }
    if (written != count)
        throw std::runtime_error("trace shrank mid-convert: " + in);
    writer->finish();
    std::printf("converted %" PRIu64 " instructions: %s -> %s (%s, %s)\n",
                count, in.c_str(), out.c_str(),
                traceFormatName(formatForPath(out)),
                compressionName(compressionForPath(out)));
    if (writer->droppedDeps() > 0)
        std::fprintf(stderr,
                     "note: %" PRIu64 " dependences/operands not "
                     "representable in this format were dropped\n",
                     writer->droppedDeps());
    return 0;
}

int
cmdInspect(const std::vector<std::string> &args, const char *argv0)
{
    std::string path;
    std::uint64_t head = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--head") {
            if (i + 1 >= args.size())
                usage(argv0, 2);
            head = countFlag(argv0, "--head", args[++i]);
        } else if (path.empty()) {
            path = args[i];
        } else {
            usage(argv0, 2);
        }
    }
    if (path.empty())
        usage(argv0, 2);

    OpenedTrace t = openTrace(path);
    const TraceMeta &meta = t.reader->meta();
    std::printf("path:        %s\n", path.c_str());
    std::printf("format:      %s\n", traceFormatName(meta.format));
    std::printf("compression: %s\n", compressionName(meta.compression));
    std::printf("name:        %s\n", t.name.c_str());
    std::printf("category:    %s\n", t.category.c_str());
    if (meta.recordCount > 0)
        std::printf("records:     %" PRIu64 "\n", meta.recordCount);
    else
        std::printf("records:     unknown until scanned (champsim; see "
                    "'stats')\n");

    if (head > 0) {
        std::printf("%8s  %-6s  %-18s  %-18s  %5s  %s\n", "#", "kind",
                    "pc", "vaddr", "dep", "taken");
        TraceInstr instr;
        for (std::uint64_t i = 0; i < head && t.reader->next(instr);
             ++i)
            std::printf("%8" PRIu64 "  %-6s  0x%016" PRIx64
                        "  0x%016" PRIx64 "  %5u  %s\n",
                        i, kindName(instr.kind),
                        static_cast<std::uint64_t>(instr.pc),
                        static_cast<std::uint64_t>(instr.vaddr),
                        instr.depDistance,
                        instr.kind == InstrKind::Branch
                            ? (instr.branchTaken ? "yes" : "no")
                            : "-");
    }
    return 0;
}

int
cmdStats(const std::vector<std::string> &args, const char *argv0)
{
    if (args.size() != 1)
        usage(argv0, 2);
    const std::string &path = args[0];

    OpenedTrace t = openTrace(path);
    std::uint64_t total = 0;
    std::uint64_t kinds[4] = {0, 0, 0, 0};
    std::uint64_t taken = 0;
    std::uint64_t dep_loads = 0;
    std::uint64_t dep_sum = 0;
    std::uint32_t dep_max = 0;
    std::unordered_set<std::uint64_t> lines;
    std::unordered_set<std::uint64_t> pages;

    TraceInstr instr;
    while (t.reader->next(instr)) {
        ++total;
        ++kinds[static_cast<unsigned>(instr.kind)];
        if (instr.kind == InstrKind::Branch && instr.branchTaken)
            ++taken;
        if (instr.kind == InstrKind::Load && instr.depDistance > 0) {
            ++dep_loads;
            dep_sum += instr.depDistance;
            dep_max = std::max(dep_max, instr.depDistance);
        }
        if (instr.kind == InstrKind::Load ||
            instr.kind == InstrKind::Store) {
            lines.insert(static_cast<std::uint64_t>(instr.vaddr) >> 6);
            pages.insert(static_cast<std::uint64_t>(instr.vaddr) >> 12);
        }
    }
    if (total == 0)
        throw std::runtime_error("empty trace: " + path);

    const std::uint64_t branches =
        kinds[static_cast<unsigned>(InstrKind::Branch)];
    const std::uint64_t loads =
        kinds[static_cast<unsigned>(InstrKind::Load)];
    auto pct = [&](std::uint64_t n) {
        return 100.0 * static_cast<double>(n) /
               static_cast<double>(total);
    };
    std::printf("trace:         %s (%s)\n", t.name.c_str(),
                t.category.c_str());
    std::printf("instructions:  %" PRIu64 "\n", total);
    std::printf("  alu:         %" PRIu64 " (%.1f%%)\n",
                kinds[static_cast<unsigned>(InstrKind::Alu)],
                pct(kinds[static_cast<unsigned>(InstrKind::Alu)]));
    std::printf("  load:        %" PRIu64 " (%.1f%%)\n", loads,
                pct(loads));
    std::printf("  store:       %" PRIu64 " (%.1f%%)\n",
                kinds[static_cast<unsigned>(InstrKind::Store)],
                pct(kinds[static_cast<unsigned>(InstrKind::Store)]));
    std::printf("  branch:      %" PRIu64 " (%.1f%%)\n", branches,
                pct(branches));
    if (branches > 0)
        std::printf("branch taken:  %.1f%%\n",
                    100.0 * static_cast<double>(taken) /
                        static_cast<double>(branches));
    if (loads > 0)
        std::printf("dep loads:     %" PRIu64 " (%.1f%% of loads), "
                    "mean dist %.1f, max %u\n",
                    dep_loads,
                    100.0 * static_cast<double>(dep_loads) /
                        static_cast<double>(loads),
                    dep_loads > 0 ? static_cast<double>(dep_sum) /
                                        static_cast<double>(dep_loads)
                                  : 0.0,
                    dep_max);
    std::printf("footprint:     %zu 64B lines (%.1f MB), %zu 4KB pages "
                "(%.1f MB)\n",
                lines.size(),
                static_cast<double>(lines.size()) * 64.0 / (1 << 20),
                pages.size(),
                static_cast<double>(pages.size()) * 4096.0 / (1 << 20));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0], 2);
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    try {
        if (cmd == "synthesize")
            return cmdSynthesize(args, argv[0]);
        if (cmd == "convert")
            return cmdConvert(args, argv[0]);
        if (cmd == "inspect")
            return cmdInspect(args, argv[0]);
        if (cmd == "stats")
            return cmdStats(args, argv[0]);
        if (cmd == "corpus") {
            std::printf("%s", describeCorpus().c_str());
            return 0;
        }
        if (cmd == "-h" || cmd == "--help")
            usage(argv[0], 0);
        usage(argv[0], 2);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
