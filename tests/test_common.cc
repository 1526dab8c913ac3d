// Unit tests for src/common: RNG determinism, saturating counters,
// statistics helpers, the config parser, the hot-path containers
// (Ring, AddrIndex, LruTable), the HERMES_SIM_SCALE budget parsing, the
// shared --scale/--threads and integer parsers, and the checkpoint
// checksum (Xxh64).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/addr_index.hh"
#include "common/config.hh"
#include "common/lru_table.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/state_io.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/simulator.hh"

namespace hermes
{
namespace
{

/** RAII helper: set an environment variable for one test. */
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

TEST(SimBudgetFromEnv, UnsetKeepsDefaults)
{
    ScopedEnv env("HERMES_SIM_SCALE", nullptr);
    const SimBudget b = SimBudget::fromEnv(100, 400);
    EXPECT_EQ(b.warmupInstrs, 100u);
    EXPECT_EQ(b.simInstrs, 400u);
}

TEST(SimBudgetFromEnv, ValidScaleApplies)
{
    ScopedEnv env("HERMES_SIM_SCALE", "2.5");
    const SimBudget b = SimBudget::fromEnv(100, 400);
    EXPECT_EQ(b.warmupInstrs, 250u);
    EXPECT_EQ(b.simInstrs, 1000u);
}

TEST(SimBudgetFromEnv, FractionalScaleShrinks)
{
    ScopedEnv env("HERMES_SIM_SCALE", "0.25");
    const SimBudget b = SimBudget::fromEnv(1000, 4000);
    EXPECT_EQ(b.warmupInstrs, 250u);
    EXPECT_EQ(b.simInstrs, 1000u);
}

TEST(SimBudgetFromEnv, RejectsTrailingGarbage)
{
    ScopedEnv env("HERMES_SIM_SCALE", "2x");
    const SimBudget b = SimBudget::fromEnv(100, 400);
    EXPECT_EQ(b.warmupInstrs, 100u);
    EXPECT_EQ(b.simInstrs, 400u);
}

TEST(SimBudgetFromEnv, RejectsNonNumericNanInfAndNonPositive)
{
    for (const char *bad :
         {"abc", "", "nan", "inf", "-inf", "-1", "0", "1e999"}) {
        ScopedEnv env("HERMES_SIM_SCALE", bad);
        const SimBudget b = SimBudget::fromEnv(100, 400);
        EXPECT_EQ(b.warmupInstrs, 100u) << bad;
        EXPECT_EQ(b.simInstrs, 400u) << bad;
    }
}

TEST(SimBudgetFromEnv, ScaledWindowPast64BitsIsAnError)
{
    // A finite scale whose product does not fit a uint64 window must
    // fail, naming the scale, instead of converting out of range.
    for (const char *huge : {"1e300", "1.8446744073709552e19"}) {
        ScopedEnv env("HERMES_SIM_SCALE", huge);
        try {
            SimBudget::fromEnv(1, 400);
            ADD_FAILURE() << huge << " must be rejected";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(huge), std::string::npos)
                << e.what();
        }
    }
    // A scaled window just under 2^64 still converts exactly.
    ScopedEnv env("HERMES_SIM_SCALE", "4294967296");
    const SimBudget b = SimBudget::fromEnv(1, 4294967295u);
    EXPECT_EQ(b.warmupInstrs, 4294967296u);
    EXPECT_EQ(b.simInstrs, 18446744069414584320u);
}

TEST(SimBudgetFromEnv, ScaledWindowOfZeroInstructionsIsAnError)
{
    // A nonzero window that the scale truncates to no instructions
    // would measure nothing; it fails, naming the scale.
    for (const char *tiny : {"1e-300", "0.0009"}) {
        ScopedEnv env("HERMES_SIM_SCALE", tiny);
        try {
            SimBudget::fromEnv(1000, 400'000);
            ADD_FAILURE() << tiny << " must be rejected";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(tiny), std::string::npos)
                << e.what();
        }
    }
    // A window that scales to exactly one instruction runs, and a zero
    // window stays zero under any scale.
    ScopedEnv env("HERMES_SIM_SCALE", "0.001");
    const SimBudget b = SimBudget::fromEnv(0, 1000);
    EXPECT_EQ(b.warmupInstrs, 0u);
    EXPECT_EQ(b.simInstrs, 1u);
}

TEST(Ring, FifoSemanticsWithGrowth)
{
    Ring<int> r(2);
    for (int i = 0; i < 100; ++i)
        r.push_back(i);
    EXPECT_EQ(r.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
    EXPECT_TRUE(r.empty());
}

TEST(Ring, PushFrontForRetry)
{
    Ring<int> r;
    r.push_back(1);
    r.push_back(2);
    const int head = r.front();
    r.pop_front();
    r.push_front(head); // head-of-line retry pattern
    EXPECT_EQ(r.front(), 1);
    r.pop_front();
    EXPECT_EQ(r.front(), 2);
}

TEST(AddrIndex, InsertFindErase)
{
    AddrIndex idx(16);
    EXPECT_EQ(idx.find(0x42), AddrIndex::kNotFound);
    idx.insert(0x42, 3);
    idx.insert(0x43, 7);
    EXPECT_EQ(idx.find(0x42), 3u);
    EXPECT_EQ(idx.find(0x43), 7u);
    idx.erase(0x42);
    EXPECT_EQ(idx.find(0x42), AddrIndex::kNotFound);
    EXPECT_EQ(idx.find(0x43), 7u);
}

TEST(AddrIndex, SurvivesChurnAgainstReferenceMap)
{
    AddrIndex idx(64);
    Rng rng(99);
    std::vector<Addr> live;
    for (int op = 0; op < 20000; ++op) {
        if (live.size() < 64 && (live.empty() || rng.chance(0.5))) {
            const Addr line = rng.next() & 0xFFFF;
            if (idx.find(line) == AddrIndex::kNotFound) {
                idx.insert(line, static_cast<std::uint32_t>(op));
                live.push_back(line);
            }
        } else {
            const std::size_t i = rng.below(live.size());
            idx.erase(live[i]);
            live.erase(live.begin() + i);
        }
        for (const Addr l : live)
            EXPECT_NE(idx.find(l), AddrIndex::kNotFound);
    }
}

/**
 * LruTable's reference, the linear scan a model table can run
 * instead: a hit is the first valid slot holding the tag; on a miss
 * the victim is the last invalid slot, else the first slot of minimum
 * stamp. Invalid slots keep their tag and stamp.
 */
struct ScanTable
{
    std::uint32_t
    find(Addr tag) const
    {
        for (std::uint32_t i = 0; i < slots.size(); ++i)
            if (slots[i].valid && slots[i].tag == tag)
                return i;
        return LruTable<int>::kNotFound;
    }

    std::uint32_t
    victim() const
    {
        for (std::size_t i = slots.size(); i-- > 0;)
            if (!slots[i].valid)
                return static_cast<std::uint32_t>(i);
        std::uint32_t lru = 0;
        for (std::uint32_t i = 1; i < slots.size(); ++i)
            if (slots[i].stamp < slots[lru].stamp)
                lru = i;
        return lru;
    }

    std::vector<LruSlotState> slots;
};

TEST(LruTable, MatchesTheReferenceScan)
{
    // Seeded finds, inserts, clears and restores (into the live table
    // and into a new one); hits, victims and every slot's tag, stamp,
    // validity and payload must match the scan at every step.
    for (const std::uint32_t n : {1u, 2u, 7u, 64u}) {
        SCOPED_TRACE("slots " + std::to_string(n));
        LruTable<int> table(n);
        ScanTable ref{std::vector<LruSlotState>(n)};
        std::vector<LruSlotState> saved = ref.slots;
        std::uint64_t clock = 0;
        std::uint64_t saved_clock = 0;
        Rng rng(n);
        for (int step = 0; step < 20000; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            const double op = rng.uniform();
            if (op < 0.002) {
                table.clear();
                for (LruSlotState &s : ref.slots)
                    s.valid = false;
            } else if (op < 0.004) {
                saved = ref.slots;
                saved_clock = clock;
            } else if (op < 0.006) {
                if (rng.chance(0.5))
                    table = LruTable<int>(n);
                table.restore(saved, saved_clock, "test table");
                for (std::uint32_t i = 0; i < n; ++i)
                    table[i] = static_cast<int>(saved[i].tag);
                ref.slots = saved;
                clock = saved_clock;
            } else {
                const Addr tag = rng.below(3 * n);
                ++clock;
                const std::uint32_t hit = ref.find(tag);
                ASSERT_EQ(table.find(tag), hit);
                if (hit != LruTable<int>::kNotFound) {
                    const int *value = table.touch(tag, clock);
                    ASSERT_NE(value, nullptr);
                    ASSERT_EQ(*value, static_cast<int>(tag));
                    ref.slots[hit].stamp = clock;
                } else {
                    const std::uint32_t victim = ref.victim();
                    ASSERT_EQ(table.victim(), victim);
                    table.insert(tag, clock) = static_cast<int>(tag);
                    ref.slots[victim] = {tag, clock, true};
                }
            }
            for (std::uint32_t i = 0; i < n; ++i) {
                ASSERT_EQ(table.valid(i), ref.slots[i].valid) << i;
                ASSERT_EQ(table.tag(i), ref.slots[i].tag) << i;
                ASSERT_EQ(table.stamp(i), ref.slots[i].stamp) << i;
                ASSERT_EQ(table[i], static_cast<int>(ref.slots[i].tag)) << i;
            }
        }
    }
}

TEST(LruTable, RestoreRejectsStatesTheTableCannotReach)
{
    // Slots 0 and 1 invalid (with stale tags and stamps), 2 and 3
    // valid with slot 3 the older: a state the table can reach.
    const std::vector<LruSlotState> good = {
        {7, 9, false}, {8, 0, false}, {5, 3, true}, {6, 2, true}};
    LruTable<int> table(4);
    table.restore(good, 3, "test table");
    EXPECT_EQ(table.find(5), 2u);
    EXPECT_EQ(table.find(7), LruTable<int>::kNotFound);
    // Invalid slots fill from the highest down, then the LRU goes.
    std::uint64_t stamp = 3;
    for (const std::uint32_t victim : {1u, 0u, 3u, 2u}) {
        EXPECT_EQ(table.victim(), victim);
        table.insert(100 + victim, ++stamp);
    }

    const auto rejects = [&](std::vector<LruSlotState> state,
                             std::uint64_t clock) {
        LruTable<int> t(4);
        EXPECT_THROW(t.restore(state, clock, "test table"), StateError);
    };
    std::vector<LruSlotState> bad = good;
    bad[3].tag = 5; // two valid slots hold one tag
    rejects(bad, 3);
    bad = good;
    bad[3].stamp = 3; // two valid slots hold one stamp
    rejects(bad, 3);
    bad = good;
    bad[1].valid = true; // an invalid slot above a valid one
    bad[2].valid = false;
    rejects(bad, 3);
    rejects(good, 2); // a stamp past the clock
    rejects({good[0], good[1], good[2]}, 3); // wrong slot count
}

TEST(Types, AddressDecomposition)
{
    const Addr a = 0x12345678;
    EXPECT_EQ(lineAddr(a), a >> 6);
    EXPECT_EQ(pageNumber(a), a >> 12);
    EXPECT_EQ(byteOffsetInLine(a), a & 63u);
    EXPECT_EQ(lineOffsetInPage(a), (a >> 6) & 63u);
    EXPECT_EQ(wordOffsetInLine(a), (a >> 2) & 15u);
}

TEST(Types, GeometryConstants)
{
    EXPECT_EQ(kBlockSize, 64u);
    EXPECT_EQ(kPageSize, 4096u);
    EXPECT_EQ(kBlocksPerPage, 64u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformStaysInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsCentred)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(SignedSatCounter, SaturatesAtFiveBitBounds)
{
    SignedSatCounter c(5);
    for (int i = 0; i < 100; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 15);
    EXPECT_TRUE(c.saturatedHigh());
    for (int i = 0; i < 100; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), -16);
    EXPECT_TRUE(c.saturatedLow());
}

TEST(SignedSatCounter, InitialClamped)
{
    SignedSatCounter c(3, 100);
    EXPECT_EQ(c.value(), 3);
    SignedSatCounter d(3, -100);
    EXPECT_EQ(d.value(), -4);
}

TEST(SatCounter, TwoBitHysteresis)
{
    SatCounter c(2);
    EXPECT_FALSE(c.taken());
    c.increment();
    EXPECT_FALSE(c.taken()); // value 1, max 3
    c.increment();
    EXPECT_TRUE(c.taken());
    c.increment();
    c.increment();
    EXPECT_EQ(c.value(), 3u);
    c.decrement();
    c.decrement();
    EXPECT_FALSE(c.taken());
}

TEST(Stats, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, Percentile)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, BoxStatsBasic)
{
    const BoxStats b = boxStats({1, 2, 3, 4, 100});
    EXPECT_DOUBLE_EQ(b.min, 1);
    EXPECT_DOUBLE_EQ(b.max, 100);
    EXPECT_DOUBLE_EQ(b.median, 3);
    EXPECT_DOUBLE_EQ(b.mean, 22);
    EXPECT_LE(b.whiskerHigh, 100);
}

TEST(Stats, SummaryAccumulates)
{
    Summary s;
    s.add(3);
    s.add(1);
    s.add(2);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Stats, HistogramBinsAndOverflow)
{
    Histogram h(0, 10, 5);
    h.add(-1);
    h.add(0);
    h.add(9.99);
    h.add(10);
    h.add(5);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Config, ParsesKeyValueLines)
{
    Config c;
    EXPECT_TRUE(c.parse("a = 1\n# comment\n\nb=hello\nc = 2.5\nd=true\n"));
    EXPECT_EQ(c.get("a", std::int64_t{0}), 1);
    EXPECT_EQ(c.get("b", std::string("x")), "hello");
    EXPECT_DOUBLE_EQ(c.get("c", 0.0), 2.5);
    EXPECT_TRUE(c.get("d", false));
    EXPECT_FALSE(c.contains("nope"));
}

TEST(Config, MalformedLinesReported)
{
    Config c;
    EXPECT_FALSE(c.parse("novalue\n"));
    EXPECT_FALSE(c.parse("= 3\n"));
}

TEST(Config, ArgsParsing)
{
    const char *argv[] = {"prog", "--traces=3", "name=x", "ignored"};
    Config c;
    c.parseArgs(4, argv);
    EXPECT_EQ(c.get("traces", std::int64_t{0}), 3);
    EXPECT_EQ(c.get("name", std::string()), "x");
}

TEST(Config, LaterKeysOverride)
{
    Config c;
    c.parse("k = 1\nk = 2\n");
    EXPECT_EQ(c.get("k", std::int64_t{0}), 2);
    EXPECT_EQ(c.keys().size(), 1u);
}

TEST(Config, GetIntRejectsGarbageAndOverflow)
{
    Config c;
    c.set("trailing", "12x");
    c.set("empty", "");
    c.set("huge", "99999999999999999999999");
    c.set("neg_huge", "-99999999999999999999999");
    c.set("float", "1.5");
    c.set("hex", "0x40");
    c.set("neg", "-7");
    EXPECT_FALSE(c.getInt("trailing"));
    EXPECT_FALSE(c.getInt("empty"));
    EXPECT_FALSE(c.getInt("huge"));
    EXPECT_FALSE(c.getInt("neg_huge"));
    EXPECT_FALSE(c.getInt("float"));
    EXPECT_EQ(c.getInt("hex"), 0x40);
    EXPECT_EQ(c.getInt("neg"), -7);
}

TEST(Config, GetDoubleRejectsGarbageNanAndInf)
{
    Config c;
    c.set("trailing", "2.5x");
    c.set("nan", "nan");
    c.set("inf", "inf");
    c.set("neg_inf", "-inf");
    c.set("overflow", "1e999");
    c.set("ok", "2.5e2");
    c.set("underflow", "1e-999"); // flushes to ~0: finite, accepted
    EXPECT_FALSE(c.getDouble("trailing"));
    EXPECT_FALSE(c.getDouble("nan"));
    EXPECT_FALSE(c.getDouble("inf"));
    EXPECT_FALSE(c.getDouble("neg_inf"));
    EXPECT_FALSE(c.getDouble("overflow"));
    EXPECT_DOUBLE_EQ(c.getDouble("ok").value(), 250.0);
    EXPECT_TRUE(c.getDouble("underflow").has_value());
}

TEST(Config, GetBoolRejectsNonBoolWords)
{
    Config c;
    c.set("two", "2");
    c.set("word", "maybe");
    c.set("empty", "");
    c.set("yes", "YES");
    c.set("off", "off");
    EXPECT_FALSE(c.getBool("two"));
    EXPECT_FALSE(c.getBool("word"));
    EXPECT_FALSE(c.getBool("empty"));
    EXPECT_EQ(c.getBool("yes"), true);
    EXPECT_EQ(c.getBool("off"), false);
}

TEST(ParseUint64, FullRangeAndRejection)
{
    EXPECT_EQ(parseUint64("0"), 0u);
    EXPECT_EQ(parseUint64("18446744073709551615"), UINT64_MAX);
    EXPECT_FALSE(parseUint64("18446744073709551616")); // overflow
    EXPECT_FALSE(parseUint64("-1")); // strtoull would silently wrap
    EXPECT_FALSE(parseUint64("12x"));
    EXPECT_FALSE(parseUint64(""));
}

TEST(ParseInt, DecimalAndHexButNoLeadingZero)
{
    // Base 0 would read "010" as octal 8, so `--warmup 010` and
    // `llc.ways=010` silently meant 8; a leading zero is now an error.
    EXPECT_EQ(parseInt64("0"), 0);
    EXPECT_EQ(parseInt64("-0"), 0);
    EXPECT_EQ(parseInt64("10"), 10);
    EXPECT_EQ(parseInt64("-25"), -25);
    EXPECT_EQ(parseInt64("0x10"), 16);
    EXPECT_EQ(parseInt64("0X1f"), 31);
    EXPECT_EQ(parseUint64("0x010"), 16u);
    EXPECT_EQ(parseUint64("100"), 100u);
    for (const char *bad : {"010", "00", "07", "-010", "+010", " 010",
                            "08", "0b101"}) {
        EXPECT_FALSE(parseInt64(bad)) << "'" << bad << "'";
        EXPECT_FALSE(parseUint64(bad)) << "'" << bad << "'";
    }
    // Everything built on them inherits the rule.
    EXPECT_FALSE(parseThreadCount("04"));
    EXPECT_FALSE(parseSizeBytes("010K"));
    EXPECT_EQ(parseSizeBytes("0x10K"), 16u << 10);
    Config c;
    c.set("ways", "010");
    EXPECT_FALSE(c.getInt("ways"));
}

TEST(Xxh64, MatchesReferenceVectors)
{
    // XXH64 with seed 0. The first three are the xxHash project's
    // published values; the multi-stripe last one comes from an
    // independent reference implementation that matches them.
    const auto xxh = [](const std::string &s) {
        Xxh64 h;
        h.update(s.data(), s.size());
        return h.value();
    };
    EXPECT_EQ(xxh(""), 0xEF46DB3751D8E999ull);
    EXPECT_EQ(xxh("abc"), 0x44BC2CF5AD770999ull);
    EXPECT_EQ(xxh("Nobody inspects the spammish repetition"),
              0xFBCEA83C8A378BF1ull);
    std::string bytes;
    for (int i = 0; i < 5 * 256; ++i)
        bytes.push_back(static_cast<char>(i & 0xFF));
    EXPECT_EQ(xxh(bytes), 0xAFC184AD7938A354ull);
}

TEST(Xxh64, ValueIndependentOfChunking)
{
    // The staging buffers feed the hash in arbitrary pieces; stripes
    // split across update() calls must carry over exactly.
    std::string bytes;
    for (int i = 0; i < 1000; ++i)
        bytes.push_back(static_cast<char>((i * 131) ^ (i >> 3)));
    Xxh64 whole;
    whole.update(bytes.data(), bytes.size());
    for (const std::size_t piece : {1u, 7u, 31u, 32u, 33u, 64u, 999u}) {
        Xxh64 h;
        for (std::size_t at = 0; at < bytes.size(); at += piece) {
            h.update(bytes.data() + at, std::min(piece, bytes.size() - at));
            static_cast<void>(h.value()); // reading it must not disturb
        }
        EXPECT_EQ(h.value(), whole.value()) << "pieces of " << piece;
    }
}

TEST(ParseScale, FinitePositiveWholeString)
{
    EXPECT_EQ(parseScale("2"), 2.0);
    EXPECT_EQ(parseScale("0.25"), 0.25);
    EXPECT_EQ(parseScale("1e-3"), 1e-3);
    for (const char *bad : {"", "2x", " 2", "2 ", "0", "-1", "nan", "inf",
                            "-inf", "1e999", "abc"})
        EXPECT_FALSE(parseScale(bad)) << "'" << bad << "'";
}

TEST(ParseCount, DigitsOnlyFromTheFirstCharacter)
{
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("250000"), 250000u);
    EXPECT_EQ(parseCount("0x10"), 16u);
    EXPECT_EQ(parseCount("18446744073709551615"), ~std::uint64_t{0});
    for (const char *bad : {"", " 2", "\t5", "\n5", "+2", "-0", "-1", "010",
                            "00", "2 ", "1.5", "2x", "abc",
                            "18446744073709551616"})
        EXPECT_FALSE(parseCount(bad)) << "'" << bad << "'";
}

TEST(ParseThreadCount, IntegerFromZeroToIntMax)
{
    EXPECT_EQ(parseThreadCount("0"), 0);
    EXPECT_EQ(parseThreadCount("8"), 8);
    EXPECT_EQ(parseThreadCount("2147483647"), 2147483647);
    // 4294967297 would wrap to 1 through a plain int cast.
    for (const char *bad : {"", "-3", "-1", "2147483648", "4294967297",
                            "99999999999999999999", "abc", "4x", " 4",
                            "+4", "4 ", "1.5"})
        EXPECT_FALSE(parseThreadCount(bad)) << "'" << bad << "'";
}

TEST(ParseSizeBytes, SuffixesAndRejection)
{
    EXPECT_EQ(parseSizeBytes("64"), 64u);
    EXPECT_EQ(parseSizeBytes("3K"), 3072u);
    EXPECT_EQ(parseSizeBytes("3k"), 3072u);
    EXPECT_EQ(parseSizeBytes("6M"), 6ull << 20);
    EXPECT_EQ(parseSizeBytes("2G"), 2ull << 30);
    EXPECT_FALSE(parseSizeBytes(""));
    EXPECT_FALSE(parseSizeBytes("M"));
    EXPECT_FALSE(parseSizeBytes("-3M"));
    EXPECT_FALSE(parseSizeBytes("3.5M"));
    EXPECT_FALSE(parseSizeBytes("3MB"));
    EXPECT_FALSE(parseSizeBytes("99999999999999999999G"));
}

} // namespace
} // namespace hermes
