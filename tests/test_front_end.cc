// Unit tests for src/sweep/front_end: the one flag table behind
// hermes_run, hermes_sweep and the figure drivers. Each front end's
// declared subset must parse "--name value" and "--name=value" alike,
// its generated help must list exactly that subset, every table row
// must belong to some front end, and every malformed command line must
// be a UsageError (exit 2 in the binaries), never a crash or a silent
// fallback.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sweep/front_end.hh"

namespace hermes::sweep
{
namespace
{

/** RAII helper: set (or unset) an environment variable for one test. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv() { unsetenv(name_); }

  private:
    const char *name_;
};

const std::vector<std::pair<const char *, const FrontEnd *>> kFrontEnds = {
    {"hermes_run", &kRunFrontEnd},
    {"hermes_sweep", &kSweepFrontEnd},
    {"figure driver", &kFigureFrontEnd},
};

CliOptions
parse(const FrontEnd &fe, const std::vector<std::string> &args)
{
    std::vector<const char *> argv{"prog"};
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    return parseCli(fe, static_cast<int>(argv.size()), argv.data());
}

/** Every field, so two parses can be compared whole. */
std::string
render(const CliOptions &o)
{
    std::ostringstream s;
    s << static_cast<int>(o.action) << '|';
    for (const std::string &k : o.overrides.keys())
        s << k << '=' << o.overrides.get(k, std::string()) << ',';
    s << '|';
    for (const WorkloadArg &w : o.workloads)
        s << w.spec << (w.mix ? "(mix)," : ",");
    s << '|' << o.suiteName << '|';
    for (const std::string &a : o.axisSpecs)
        s << a << ',';
    s << '|' << o.warmup << '|' << o.instrs << '|' << o.scale << '|'
      << o.shard.index << '/' << o.shard.count << '|' << o.journalPath
      << '|';
    for (const std::string &r : o.resumePaths)
        s << r << ',';
    s << '|' << o.merge << '|' << o.threads << '|' << o.progress << '|'
      << o.cacheSpec << '|' << o.noCache << '|' << o.warmupCacheSpec << '|'
      << o.noWarmupCache << '|' << o.label << '|' << o.report << '|'
      << o.csvPath << '|' << o.jsonPath << '|' << o.statsSpec << '|'
      << o.fingerprint << '|' << o.mips << '|' << o.profile << '|'
      << o.listGrid;
    return s.str();
}

/** A valid value for each value-taking flag. */
std::string
sampleValue(const std::string &flag)
{
    static const std::map<std::string, std::string> values = {
        {"--axis", "llc.ways=8,16"},
        {"--suite", "quick"},
        {"--trace", "spec06.mcf_like.0"},
        {"--mix", "spec06.mcf_like.0,ligra.bfs_like.0"},
        {"--warmup", "7"},
        {"--instrs", "9"},
        {"--scale", "0.5"},
        {"--shard", "2/3"},
        {"--journal", "j.jsonl"},
        {"--resume", "r.jsonl"},
        {"--threads", "3"},
        {"--cache", "results"},
        {"--warmup-cache", "warmups"},
        {"--label", "L"},
        {"--csv", "x.csv"},
        {"--json", "x.json"},
        {"--stats", "core.ipc,dram.*"},
    };
    if (flag == "--config") {
        const std::string path = ::testing::TempDir() + "front_end.ini";
        std::ofstream(path) << "# scenario\nllc.ways = 8\n";
        return path;
    }
    const auto it = values.find(flag);
    return it == values.end() ? "" : it->second;
}

const Flag *
row(const std::string &name)
{
    for (const Flag &f : flagTable())
        if (name == f.name)
            return &f;
    return nullptr;
}

class FrontEndTest : public ::testing::Test
{
    // An ambient HERMES_THREADS must not leak into the parses.
    ScopedEnv threads_{"HERMES_THREADS", nullptr};
};

TEST_F(FrontEndTest, EveryDeclaredFlagIsOneTableRow)
{
    std::set<std::string> names;
    for (const Flag &f : flagTable()) {
        EXPECT_TRUE(names.insert(f.name).second) << f.name;
        EXPECT_NE(f.help, nullptr);
        EXPECT_NE(f.apply, nullptr);
        // A row no front end accepts is dead code.
        bool accepted = false;
        for (const auto &entry : kFrontEnds)
            accepted = accepted || entry.second->accepts(f.name);
        EXPECT_TRUE(accepted) << f.name << " is in no front end";
    }
    for (const auto &[what, fe] : kFrontEnds) {
        std::set<std::string> declared;
        for (const std::string &flag : fe->flags) {
            EXPECT_NE(row(flag), nullptr) << what << " " << flag;
            EXPECT_TRUE(declared.insert(flag).second) << what << " " << flag;
        }
        EXPECT_TRUE(fe->accepts("--help")) << what;
    }
}

TEST_F(FrontEndTest, BothValueSpellingsParseAlike)
{
    for (const auto &[what, fe] : kFrontEnds) {
        const std::string defaults = render(parse(*fe, {}));
        for (const std::string &flag : fe->flags) {
            if (row(flag)->metavar == nullptr)
                continue;
            const std::string v = sampleValue(flag);
            ASSERT_FALSE(v.empty()) << "no sample value for " << flag;
            const std::string split = render(parse(*fe, {flag, v}));
            const std::string joined = render(parse(*fe, {flag + "=" + v}));
            EXPECT_EQ(split, joined) << what << " " << flag;
            EXPECT_NE(split, defaults)
                << what << " " << flag << " stored nothing";
        }
    }
}

TEST_F(FrontEndTest, SwitchesTakeNoValue)
{
    for (const auto &[what, fe] : kFrontEnds) {
        const std::string defaults = render(parse(*fe, {}));
        for (const std::string &flag : fe->flags) {
            if (row(flag)->metavar != nullptr)
                continue;
            std::vector<std::string> args{flag};
            if (flag == "--merge")
                args = {"--merge", "--resume", "r.jsonl"};
            // The meter's default follows the terminal.
            if (flag == "--progress" || flag == "--no-progress")
                EXPECT_EQ(parse(*fe, args).progress, flag == "--progress");
            else
                EXPECT_NE(render(parse(*fe, args)), defaults)
                    << what << " " << flag << " changed nothing";
            EXPECT_THROW(parse(*fe, {flag + "=1"}), UsageError)
                << what << " " << flag;
        }
    }
}

TEST_F(FrontEndTest, HelpListsExactlyTheDeclaredFlags)
{
    for (const auto &[what, fe] : kFrontEnds) {
        const std::string text = usage(*fe, "prog");
        EXPECT_EQ(text.rfind("usage: prog ", 0), 0u) << what;
        std::set<std::string> listed;
        bool overrides = false;
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);) {
            if (line.rfind("  key=value", 0) == 0)
                overrides = true;
            if (line.rfind("  --", 0) != 0)
                continue;
            const std::string name = line.substr(2, line.find(' ', 2) - 2);
            EXPECT_TRUE(listed.insert(name).second)
                << what << " lists " << name << " twice";
        }
        EXPECT_EQ(listed,
                  std::set<std::string>(fe->flags.begin(), fe->flags.end()))
            << what;
        EXPECT_EQ(overrides, fe->overrides) << what;
        EXPECT_EQ(text.find("--warmup N") != std::string::npos,
                  fe->accepts("--warmup"))
            << what;
    }
}

TEST_F(FrontEndTest, MalformedCommandLinesAreUsageErrors)
{
    // Spellings rejected by every front end that declares the flags
    // involved (the first entry names the flag that must be declared).
    const std::vector<std::vector<std::string>> bad = {
        {"--bogus"},
        {"bogus"},
        {"--scale", "2x"},
        {"--scale", "0"},
        {"--scale", "-1"},
        {"--scale", "nan"},
        {"--scale=inf"},
        {"--scale"},
        {"--warmup", "abc"},
        {"--warmup", "-1"},
        {"--warmup", ""},
        {"--warmup", "010"}, // base 0 would read octal 8
        {"--warmup", " 2"},  // strtoll would skip the space
        {"--warmup", "+2"},
        {"--instrs", "\t5"},
        {"--instrs", "1x"},
        {"--instrs=1.5"},
        {"--instrs", "00"},
        {"--threads", "-3"},
        {"--threads", "4294967297"},
        {"--threads", "abc"},
        {"--threads", "04"},
        {"--axis", "llc.ways=08,16"},
        {"--axis", "no.such.key=1,2"},
        {"--shard", "0/0"},
        {"--shard", "5/4"},
        {"--shard", "x"},
        {"--shard=1/"},
        {"--cache", "d", "--no-cache"},
        {"--no-cache", "--cache=d"},
        {"--warmup-cache", "d", "--no-warmup-cache"},
        {"--no-warmup-cache", "--warmup-cache", "d"},
        {"--fingerprint", "--csv", "-"},
        {"--fingerprint", "--json=-"},
        {"--fingerprint", "--csv", "-", "--json", "-"},
        {"--mix", ""},
        {"--mix", "a,,b"},
        {"--stats", "no.such.stat"},
        {"--suite", "no_such_suite"},
        {"--suite", "quick", "--trace", "spec06.mcf_like.0"},
        {"--suite", "quick", "--mix", "spec06.mcf_like.0,ligra.bfs_like.0"},
        {"--merge"},
        {"--merge", "--resume", "r.jsonl", "--shard", "1/2"},
    };
    for (const auto &[what, fe] : kFrontEnds) {
        for (const std::vector<std::string> &args : bad) {
            std::string flag = args[0].substr(0, args[0].find('='));
            if (flag != "--bogus" && flag != "bogus" && !fe->accepts(flag))
                continue;
            std::string line;
            for (const std::string &a : args)
                line += " " + a;
            EXPECT_THROW(parse(*fe, args), UsageError) << what << line;
        }
    }
    for (const FrontEnd *fe : {&kRunFrontEnd, &kSweepFrontEnd}) {
        EXPECT_THROW(parse(*fe, {"--csv", "-", "--json", "-"}), UsageError);
        // A value the parameter registry rejects is a bad line too.
        EXPECT_THROW(parse(*fe, {"llc.ways=010"}), UsageError);
        EXPECT_THROW(parse(*fe, {"no.such.key=1"}), UsageError);
    }
}

TEST_F(FrontEndTest, FlagsOfOtherFrontEndsAreUnknown)
{
    EXPECT_THROW(parse(kRunFrontEnd, {"--threads", "2"}), UsageError);
    EXPECT_THROW(parse(kRunFrontEnd, {"--shard=1/2"}), UsageError);
    EXPECT_THROW(parse(kSweepFrontEnd, {"--list-params"}), UsageError);
    EXPECT_THROW(parse(kSweepFrontEnd, {"--label=x"}), UsageError);
    EXPECT_THROW(parse(kFigureFrontEnd, {"--trace", "x"}), UsageError);
    EXPECT_THROW(parse(kFigureFrontEnd, {"--fingerprint"}), UsageError);
    EXPECT_THROW(parse(kFigureFrontEnd, {"llc.ways=16"}), UsageError);
}

TEST_F(FrontEndTest, TwoDumpsMayFollowAFigureTable)
{
    // A figure driver's stdout is its table; no --fingerprint competes.
    const CliOptions o =
        parse(kFigureFrontEnd, {"--csv", "-", "--json", "-"});
    EXPECT_EQ(o.csvPath, "-");
    EXPECT_EQ(o.jsonPath, "-");
}

TEST_F(FrontEndTest, HelpAndListingsStopTheParse)
{
    EXPECT_EQ(parse(kRunFrontEnd, {"-h"}).action, CliAction::Help);
    EXPECT_EQ(parse(kFigureFrontEnd, {"--help", "--bogus"}).action,
              CliAction::Help);
    EXPECT_EQ(parse(kRunFrontEnd, {"--list", "--warmup", "x"}).action,
              CliAction::List);
    EXPECT_EQ(parse(kRunFrontEnd, {"--list-params"}).action,
              CliAction::ListParams);
    EXPECT_EQ(parse(kSweepFrontEnd, {"--list-models"}).action,
              CliAction::ListModels);
    EXPECT_EQ(parse(kSweepFrontEnd, {"--list-stats"}).action,
              CliAction::ListStats);
    EXPECT_THROW(parse(kRunFrontEnd, {"--bogus", "--list"}), UsageError);
    // --list-grid builds the grid first; it does not stop the parse.
    const CliOptions g = parse(kSweepFrontEnd, {"--list-grid"});
    EXPECT_EQ(g.action, CliAction::Run);
    EXPECT_TRUE(g.listGrid);
}

TEST_F(FrontEndTest, OverridesAndWorkloadsKeepTheirOrder)
{
    const std::string ini = sampleValue("--config"); // llc.ways = 8
    const CliOptions o = parse(
        kRunFrontEnd, {"llc.ways=16", "--config", ini, "--llc.latency=50",
                       "--trace", "a", "--mix", "b,c", "--trace", "d"});
    EXPECT_EQ(o.overrides.keys(),
              (std::vector<std::string>{"llc.ways", "llc.latency"}));
    EXPECT_EQ(o.overrides.get("llc.ways", std::string()), "16");
    EXPECT_EQ(o.overrides.get("llc.latency", std::string()), "50");
    ASSERT_EQ(o.workloads.size(), 3u);
    EXPECT_EQ(o.workloads[0].spec, "a");
    EXPECT_FALSE(o.workloads[0].mix);
    EXPECT_EQ(o.workloads[1].spec, "b,c");
    EXPECT_TRUE(o.workloads[1].mix);
    EXPECT_EQ(o.workloads[2].spec, "d");

    EXPECT_THROW(parse(kSweepFrontEnd, {"=5"}), UsageError);
    EXPECT_THROW(parse(kRunFrontEnd, {"--=5"}), UsageError);
}

TEST_F(FrontEndTest, ConfigFileErrorsAreNotUsageErrors)
{
    try {
        parse(kRunFrontEnd, {"--config", "/nonexistent/scenario.ini"});
        FAIL() << "an unreadable --config parsed";
    } catch (const UsageError &) {
        FAIL() << "an unreadable --config is not a usage error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("cannot read"),
                  std::string::npos);
    }
}

TEST_F(FrontEndTest, BudgetDefaultsComeFromTheFrontEnd)
{
    const CliOptions run = parse(kRunFrontEnd, {});
    EXPECT_EQ(run.warmup, SimBudget::runDefaults().warmupInstrs);
    EXPECT_EQ(run.instrs, SimBudget::runDefaults().simInstrs);
    const CliOptions sweep = parse(kSweepFrontEnd, {"--instrs", "16"});
    EXPECT_EQ(sweep.warmup, SimBudget::sweepDefaults().warmupInstrs);
    EXPECT_EQ(sweep.instrs, 16u);
}

TEST_F(FrontEndTest, ThreadsComeFromFlagThenEnvironment)
{
    EXPECT_EQ(parse(kFigureFrontEnd, {}).threads, 0);
    EXPECT_EQ(parse(kSweepFrontEnd, {}).threads, 0);
    {
        ScopedEnv env("HERMES_THREADS", "5");
        EXPECT_EQ(parse(kFigureFrontEnd, {}).threads, 5);
        EXPECT_EQ(parse(kFigureFrontEnd, {"--threads=4"}).threads, 4);
        EXPECT_EQ(parse(kSweepFrontEnd, {"--threads", "2"}).threads, 2);
    }
    {
        ScopedEnv env("HERMES_THREADS", "abc");
        EXPECT_THROW(parse(kFigureFrontEnd, {}), UsageError);
        EXPECT_THROW(parse(kSweepFrontEnd, {"--threads", "2"}), UsageError);
        // hermes_run has no --threads and never reads the variable.
        EXPECT_NO_THROW(parse(kRunFrontEnd, {}));
    }
}

TEST_F(FrontEndTest, StatColumnsAddHostPerfUnderMips)
{
    CliOptions o;
    EXPECT_EQ(statColumns(o).size(), defaultStatColumns().size());
    o.mips = true;
    EXPECT_EQ(statColumns(o).size(), defaultStatColumns(true).size());
    o.statsSpec = "core.ipc";
    std::vector<StatColumn> expect = selectStatColumns("core.ipc");
    appendHostPerfColumns(expect);
    EXPECT_EQ(statColumns(o).size(), expect.size());
}

} // namespace
} // namespace hermes::sweep
