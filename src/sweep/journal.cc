#include "sweep/journal.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "common/config.hh"
#include "sim/report.hh"
#include "sim/stat_registry.hh"
#include "sweep/result_cache.hh"

namespace hermes::sweep
{

namespace
{

/**
 * Journal format version. 2: the stats object is the registry codec
 * plan's layout ("dram" split into dram/hermes sections, "cfg"
 * configuration echoes added); version-1 journals (hand-rolled
 * 14-element "dram" array) are rejected with a clear version error
 * rather than a misleading decode failure.
 */
constexpr std::uint64_t kJournalVersion = 2;

std::string
formatDouble(double v)
{
    // max_digits10: the decimal round trip is exact for IEEE doubles.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// --- encoding ---------------------------------------------------------

/**
 * Serialize every raw counter of @p s by walking the stat registry's
 * codec plan: scalars as "name":value, per-core groups as
 * array-of-arrays (flat for single-statistic groups), scalar sections
 * as flat arrays. A counter registered in sim/stat_registry.cc is
 * journaled with no further work here.
 */
std::string
encodeStats(const RunStats &s)
{
    std::string out = "{";
    bool first_item = true;
    for (const StatCodecItem &item :
         StatRegistry::instance().codecPlan()) {
        if (!first_item)
            out += ',';
        first_item = false;
        out += '"' + item.name + "\":";
        switch (item.kind) {
        case StatCodecItem::Kind::Scalar:
            out += std::to_string(item.defs[0]->getU64(s));
            break;
        case StatCodecItem::Kind::Group: {
            const std::size_t n = item.count(s);
            out += '[';
            for (std::size_t i = 0; i < n; ++i) {
                if (i)
                    out += ',';
                if (item.defs.size() == 1) {
                    out += std::to_string(item.defs[0]->getAtU64(s, i));
                    continue;
                }
                out += '[';
                for (std::size_t j = 0; j < item.defs.size(); ++j)
                    out += (j ? "," : "") +
                           std::to_string(item.defs[j]->getAtU64(s, i));
                out += ']';
            }
            out += ']';
            break;
        }
        case StatCodecItem::Kind::Section:
            out += '[';
            for (std::size_t j = 0; j < item.defs.size(); ++j)
                out += (j ? "," : "") +
                       std::to_string(item.defs[j]->getU64(s));
            out += ']';
            break;
        }
    }
    out += '}';
    return out;
}

std::string
encodeHeader(std::uint64_t space_fp, std::size_t points)
{
    return "{\"hermes_journal\":" + std::to_string(kJournalVersion) +
           ",\"space\":\"" +
           fingerprintHex(space_fp) +
           "\",\"points\":" + std::to_string(points) + "}";
}

std::string
encodeRecord(const JournalRecord &rec)
{
    const PointResult &r = rec.result;
    std::string out = "{\"i\":" + std::to_string(rec.index);
    out += ",\"label\":\"" + jsonEscape(r.label) + "\"";
    out += ",\"point\":\"" + fingerprintHex(rec.pointFp) + "\"";
    out += ",\"fp\":\"" + fingerprintHex(statsFingerprint(r.stats)) +
           "\"";
    out += ",\"wall\":" + formatDouble(r.wallSeconds);
    out += ",\"host\":[" + formatDouble(r.stats.hostPerf.seconds) + "," +
           std::to_string(r.stats.hostPerf.instrs) + "]";
    out += ",\"stats\":" + encodeStats(r.stats);
    out += '}';
    return out;
}

// --- a minimal JSON parser (only what the journal itself emits) ------

struct Jv
{
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string scalar; ///< Number text (exact) or decoded string.
    std::vector<Jv> items;
    std::vector<std::pair<std::string, Jv>> fields;

    const Jv *
    find(const char *key) const
    {
        for (const auto &[k, v] : fields)
            if (k == key)
                return &v;
        return nullptr;
    }
};

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error("journal: " + what);
}

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    Jv
    parse()
    {
        Jv v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end of line");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= s_.size() || s_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    Jv
    value()
    {
        skipWs();
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            literal("null");
            return Jv{};
        }
        return number();
    }

    Jv
    object()
    {
        Jv v;
        v.kind = Jv::Kind::Obj;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            Jv key = string();
            skipWs();
            expect(':');
            v.fields.emplace_back(std::move(key.scalar), value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Jv
    array()
    {
        Jv v;
        v.kind = Jv::Kind::Arr;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.items.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    Jv
    string()
    {
        Jv v;
        v.kind = Jv::Kind::Str;
        expect('"');
        for (;;) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.scalar += c;
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
            case '"':
                v.scalar += '"';
                break;
            case '\\':
                v.scalar += '\\';
                break;
            case '/':
                v.scalar += '/';
                break;
            case 'n':
                v.scalar += '\n';
                break;
            case 't':
                v.scalar += '\t';
                break;
            case 'r':
                v.scalar += '\r';
                break;
            case 'b':
                v.scalar += '\b';
                break;
            case 'f':
                v.scalar += '\f';
                break;
            case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("bad \\u escape");
                const std::string hex = s_.substr(pos_, 4);
                pos_ += 4;
                char *end = nullptr;
                const unsigned long cp =
                    std::strtoul(hex.c_str(), &end, 16);
                if (end != hex.c_str() + 4 || cp > 0xFF)
                    fail("unsupported \\u escape '" + hex + "'");
                v.scalar += static_cast<char>(cp);
                break;
            }
            default:
                fail("unknown escape");
            }
        }
    }

    Jv
    boolean()
    {
        Jv v;
        v.kind = Jv::Kind::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    void
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            fail("bad literal");
        pos_ += n;
    }

    Jv
    number()
    {
        Jv v;
        v.kind = Jv::Kind::Num;
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a number");
        v.scalar = s_.substr(start, pos_ - start);
        return v;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

std::uint64_t
asU64(const Jv &v)
{
    if (v.kind != Jv::Kind::Num)
        fail("expected an integer");
    const auto parsed = parseUint64(v.scalar);
    if (!parsed)
        fail("bad integer '" + v.scalar + "'");
    return *parsed;
}

double
asDouble(const Jv &v)
{
    if (v.kind != Jv::Kind::Num)
        fail("expected a number");
    const auto parsed = parseFiniteDouble(v.scalar);
    if (!parsed)
        fail("bad number '" + v.scalar + "'");
    return *parsed;
}

const Jv &
member(const Jv &obj, const char *key)
{
    if (obj.kind != Jv::Kind::Obj)
        fail("expected an object");
    const Jv *v = obj.find(key);
    if (v == nullptr)
        fail(std::string("missing key '") + key + "'");
    return *v;
}

std::uint64_t
asHexFp(const Jv &v)
{
    if (v.kind != Jv::Kind::Str || v.scalar.size() != 16)
        fail("expected a 16-hex-digit fingerprint");
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed =
        std::strtoull(v.scalar.c_str(), &end, 16);
    if (errno != 0 || end != v.scalar.c_str() + 16)
        fail("bad fingerprint '" + v.scalar + "'");
    return parsed;
}

/**
 * The inverse plan walk: every raw counter decodes through its
 * registry setter, and the record-level fingerprint re-check in
 * decodeRecord() catches any encode/decode drift.
 */
RunStats
decodeStats(const Jv &obj)
{
    RunStats s;
    // Whole-run counters as decoded, read back once all are set.
    std::vector<std::pair<const StatDef *, std::uint64_t>> totals;
    for (const StatCodecItem &item :
         StatRegistry::instance().codecPlan()) {
        const Jv &v = member(obj, item.name.c_str());
        switch (item.kind) {
        case StatCodecItem::Kind::Scalar:
            totals.emplace_back(item.defs[0], asU64(v));
            item.defs[0]->setU64(s, totals.back().second);
            break;
        case StatCodecItem::Kind::Group: {
            if (v.kind != Jv::Kind::Arr)
                fail("bad " + item.name + " array");
            item.resize(s, v.items.size());
            for (std::size_t i = 0; i < v.items.size(); ++i) {
                if (item.defs.size() == 1) {
                    item.defs[0]->setAtU64(s, i, asU64(v.items[i]));
                    continue;
                }
                const Jv &e = v.items[i];
                if (e.kind != Jv::Kind::Arr ||
                    e.items.size() != item.defs.size())
                    fail("bad " + item.name + " array");
                for (std::size_t j = 0; j < item.defs.size(); ++j)
                    item.defs[j]->setAtU64(s, i, asU64(e.items[j]));
            }
            break;
        }
        case StatCodecItem::Kind::Section:
            if (v.kind != Jv::Kind::Arr ||
                v.items.size() != item.defs.size())
                fail("bad " + item.name + " array");
            for (std::size_t j = 0; j < item.defs.size(); ++j) {
                totals.emplace_back(item.defs[j], asU64(v.items[j]));
                item.defs[j]->setU64(s, totals.back().second);
            }
            break;
        }
    }
    // Some keys share one counter (pf.* are the LLC's prefetch
    // counters). Entries that disagree make the record corrupt; the
    // later one must not silently win.
    for (const auto &[def, value] : totals)
        if (def->getU64(s) != value)
            fail("stats entry '" + def->key + "' (" +
                 std::to_string(value) +
                 ") disagrees with another entry for the same counter");
    return s;
}

JournalRecord
decodeRecord(const Jv &obj)
{
    JournalRecord rec;
    rec.index = asU64(member(obj, "i"));
    rec.pointFp = asHexFp(member(obj, "point"));

    PointResult &r = rec.result;
    const Jv &label = member(obj, "label");
    if (label.kind != Jv::Kind::Str)
        fail("bad label");
    r.index = rec.index;
    r.label = label.scalar;
    r.wallSeconds = asDouble(member(obj, "wall"));

    const Jv &host = member(obj, "host");
    if (host.kind != Jv::Kind::Arr || host.items.size() != 2)
        fail("bad host array");

    r.stats = decodeStats(member(obj, "stats"));
    r.stats.hostPerf.seconds = asDouble(host.items[0]);
    r.stats.hostPerf.instrs = asU64(host.items[1]);

    // The recorded fingerprint must match the decoded stats: this
    // catches flipped bytes in the file and any codec drift.
    const std::uint64_t recorded = asHexFp(member(obj, "fp"));
    if (statsFingerprint(r.stats) != recorded)
        fail("record fingerprint mismatch (corrupt record for grid "
             "index " +
             std::to_string(rec.index) + ")");
    return rec;
}

} // namespace

std::uint64_t
journalFormatVersion()
{
    return kJournalVersion;
}

std::string
encodeJournalRecord(const JournalRecord &rec)
{
    return encodeRecord(rec);
}

JournalRecord
decodeJournalRecord(const std::string &line)
{
    const Jv obj = JsonParser(line).parse();
    if (obj.kind != Jv::Kind::Obj)
        fail("expected a JSON object record");
    return decodeRecord(obj);
}

std::uint64_t
pointFingerprint(const GridPoint &point)
{
    Fnv64 h;
    h.add(point.label);
    const Config cfg = point.config.toConfig();
    for (const std::string &key : cfg.keys()) {
        h.add(key);
        h.add(cfg.getString(key).value_or(""));
    }
    h.add(static_cast<std::uint64_t>(point.traces.size()));
    for (const TraceSpec &t : point.traces)
        h.add(t.name());
    h.add(point.budget.warmupInstrs);
    h.add(point.budget.simInstrs);
    return h.value();
}

std::uint64_t
spaceFingerprint(const std::vector<GridPoint> &grid)
{
    Fnv64 h;
    h.add(static_cast<std::uint64_t>(grid.size()));
    for (const GridPoint &p : grid)
        h.add(pointFingerprint(p));
    return h.value();
}

std::vector<JournalSegment>
readJournal(const std::string &path, bool *truncated_tail)
{
    if (truncated_tail != nullptr)
        *truncated_tail = false;

    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("journal: cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::vector<JournalSegment> segments;
    std::size_t pos = 0;
    std::size_t line_no = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const bool has_newline = nl != std::string::npos;
        const std::string line =
            text.substr(pos, has_newline ? nl - pos : std::string::npos);
        pos = has_newline ? nl + 1 : text.size();
        ++line_no;
        if (line.empty())
            continue;
        // The last line is the only one a crash can leave half-written
        // (records are appended as one line + flush), so only there is
        // a defect tolerated — as a truncated tail, dropped with a
        // flag. Anywhere else it is corruption and a hard error.
        const bool is_last = pos >= text.size();
        try {
            const Jv obj = JsonParser(line).parse();
            if (obj.kind != Jv::Kind::Obj)
                fail("expected a JSON object per line");
            if (obj.find("hermes_journal") != nullptr) {
                const std::uint64_t version =
                    asU64(member(obj, "hermes_journal"));
                if (version != kJournalVersion)
                    throw std::runtime_error(
                        "journal: unsupported journal version " +
                        std::to_string(version) + " in " + path +
                        " (this build reads version " +
                        std::to_string(kJournalVersion) +
                        "; re-run the sweep to regenerate it)");
                JournalSegment seg;
                seg.spaceFp = asHexFp(member(obj, "space"));
                seg.points = asU64(member(obj, "points"));
                segments.push_back(std::move(seg));
                continue;
            }
            if (segments.empty())
                fail("record before any journal header");
            JournalRecord rec = decodeRecord(obj);
            if (rec.index >= segments.back().points)
                fail("record index " + std::to_string(rec.index) +
                     " out of range for a " +
                     std::to_string(segments.back().points) +
                     "-point grid");
            segments.back().records.push_back(std::move(rec));
        } catch (const std::runtime_error &e) {
            // Version/semantic errors on the last line are still
            // tolerated as a torn tail; a malformed *earlier* line can
            // only be corruption.
            if (is_last) {
                if (truncated_tail != nullptr)
                    *truncated_tail = true;
                break;
            }
            throw std::runtime_error(
                std::string(e.what()) + " (" + path + " line " +
                std::to_string(line_no) + ")");
        }
    }
    // A crash between beginGrid() and the first append leaves a
    // complete header line as the file's tail. That segment holds
    // nothing recoverable, so treat it like any other torn tail: drop
    // it and flag. A journal whose *only* segment is empty stays as-is
    // — that is a valid "began a grid, recorded nothing yet" journal
    // (e.g. a shard owning none of a tiny grid), not a torn tail.
    if (segments.size() > 1 && segments.back().records.empty()) {
        segments.pop_back();
        if (truncated_tail != nullptr)
            *truncated_tail = true;
    }
    if (segments.empty())
        throw std::runtime_error(
            "journal: " + path +
            " contains no complete journal header");
    return segments;
}

void
validateSegment(const JournalSegment &seg,
                const std::vector<GridPoint> &grid)
{
    const std::uint64_t space = spaceFingerprint(grid);
    if (seg.spaceFp != space || seg.points != grid.size())
        throw std::runtime_error(
            "journal: recorded for a different scenario space (journal "
            "space " +
            fingerprintHex(seg.spaceFp) + " over " +
            std::to_string(seg.points) + " points, current space " +
            fingerprintHex(space) + " over " +
            std::to_string(grid.size()) +
            " points); re-run without --resume or regenerate the "
            "journal");
    std::vector<std::uint64_t> point_fps(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        point_fps[i] = pointFingerprint(grid[i]);
    for (const JournalRecord &rec : seg.records) {
        if (rec.index >= grid.size() ||
            rec.pointFp != point_fps[rec.index] ||
            rec.result.label != grid[rec.index].label)
            throw std::runtime_error(
                "journal: record '" + rec.result.label +
                "' (grid index " + std::to_string(rec.index) +
                ") does not match the current grid point; re-run "
                "without --resume or regenerate the journal");
    }
}

std::vector<JournalSegment>
mergeSegments(const std::vector<std::vector<JournalSegment>> &files)
{
    std::size_t count = 0;
    for (const auto &f : files)
        count = std::max(count, f.size());

    std::vector<JournalSegment> out;
    for (std::size_t k = 0; k < count; ++k) {
        JournalSegment merged;
        bool started = false;
        for (const auto &f : files) {
            if (k >= f.size())
                continue;
            const JournalSegment &seg = f[k];
            if (!started) {
                merged.spaceFp = seg.spaceFp;
                merged.points = seg.points;
                started = true;
            } else if (merged.spaceFp != seg.spaceFp ||
                       merged.points != seg.points) {
                throw std::runtime_error(
                    "journal: cannot merge journals of different "
                    "scenario spaces (segment " +
                    std::to_string(k) + ": space " +
                    fingerprintHex(merged.spaceFp) + " vs " +
                    fingerprintHex(seg.spaceFp) + ")");
            }
            for (const JournalRecord &rec : seg.records)
                merged.records.push_back(rec);
        }
        // Dedup by grid index; duplicates must agree (same simulation,
        // deterministic) or one of the journals is lying.
        std::stable_sort(merged.records.begin(), merged.records.end(),
                         [](const JournalRecord &a,
                            const JournalRecord &b) {
                             return a.index < b.index;
                         });
        std::vector<JournalRecord> dedup;
        for (JournalRecord &rec : merged.records) {
            if (!dedup.empty() && dedup.back().index == rec.index) {
                if (statsFingerprint(dedup.back().result.stats) !=
                    statsFingerprint(rec.result.stats))
                    throw std::runtime_error(
                        "journal: conflicting records for grid index " +
                        std::to_string(rec.index) +
                        " ('" + rec.result.label +
                        "'): the merged journals disagree");
                continue;
            }
            dedup.push_back(std::move(rec));
        }
        merged.records = std::move(dedup);
        out.push_back(std::move(merged));
    }
    return out;
}

std::string
journalText(const std::vector<JournalSegment> &segments)
{
    std::string out;
    for (const JournalSegment &seg : segments) {
        out += encodeHeader(seg.spaceFp, seg.points) + "\n";
        for (const JournalRecord &rec : seg.records)
            out += encodeRecord(rec) + "\n";
    }
    return out;
}

JournalWriter::JournalWriter(const std::string &path) : path_(path)
{
    // Never truncate in place: a kill between the truncate and the
    // re-recording of resumed points would destroy the only durable
    // copy. The atomic rename keeps the old journal recoverable at
    // <path>.bak until a newer rewrite replaces it.
    std::ifstream exists(path);
    if (exists.good()) {
        exists.close();
        const std::string bak = path + ".bak";
        if (std::rename(path.c_str(), bak.c_str()) != 0)
            throw std::runtime_error("journal: cannot back up " + path +
                                     " to " + bak + ": " +
                                     std::strerror(errno));
    }
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        throw std::runtime_error("journal: cannot write " + path + ": " +
                                 std::strerror(errno));
}

JournalWriter::~JournalWriter()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void
JournalWriter::writeLine(const std::string &line)
{
    // One complete line per write, flushed and fsynced before the line
    // is considered recorded: a crash can only cost the line in
    // flight, which the loader drops as a truncated tail. Headers get
    // the same durability as records — a header that reaches the page
    // cache but not the disk would silently demote every record synced
    // after it.
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0 || fsync(fileno(file_)) != 0)
        throw std::runtime_error("journal: write failed on " + path_ +
                                 ": " + std::strerror(errno));
}

void
JournalWriter::beginGrid(const std::vector<GridPoint> &grid)
{
    std::lock_guard<std::mutex> g(mutex_);
    grid_ = &grid;
    writeLine(encodeHeader(spaceFingerprint(grid), grid.size()) + "\n");
}

void
JournalWriter::append(const PointResult &r)
{
    if (!r.ok)
        return;
    std::lock_guard<std::mutex> g(mutex_);
    if (grid_ == nullptr || r.index >= grid_->size())
        throw std::logic_error(
            "journal: append without a matching beginGrid");
    JournalRecord rec;
    rec.index = r.index;
    rec.pointFp = pointFingerprint((*grid_)[r.index]);
    rec.result = r;
    writeLine(encodeRecord(rec) + "\n");
}

bool
OrchestratedRun::complete() const
{
    for (bool p : present)
        if (!p)
            return false;
    return true;
}

std::size_t
OrchestratedRun::missing() const
{
    std::size_t n = 0;
    for (bool p : present)
        n += p ? 0 : 1;
    return n;
}

OrchestratedRun
runJournaled(const SweepOptions &engine_opts,
             const std::vector<GridPoint> &grid,
             const OrchestrateOptions &opts)
{
    const std::size_t n = grid.size();
    OrchestratedRun out;
    out.results.resize(n);
    out.present.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
        out.results[i].index = i;
        out.results[i].label = grid[i].label;
    }

    if (opts.journal != nullptr)
        opts.journal->beginGrid(grid);

    std::vector<bool> skip(n, false);
    if (opts.resume != nullptr) {
        for (const JournalRecord &rec : opts.resume->records) {
            if (rec.index >= n || out.present[rec.index])
                continue;
            out.results[rec.index] = rec.result;
            out.present[rec.index] = true;
            skip[rec.index] = true;
            ++out.resumed;
            // Re-record resumed points up front: the rewritten journal
            // is complete-so-far before any new simulation starts.
            if (opts.journal != nullptr)
                opts.journal->append(rec.result);
            // Resumed records also warm the store: --resume old.jsonl
            // --cache DIR migrates a journal into the cache.
            if (opts.cache != nullptr)
                opts.cache->store(grid[rec.index], rec.result);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (skip[i])
            continue;
        if (!SweepEngine::inShard(i, opts.shard)) {
            skip[i] = true;
            ++out.otherShard;
        }
    }

    // Consult the store for every point this run would simulate. Hits
    // are journaled like any completion (so a journal stays a full
    // record of its grid) and re-verified by the cache on load, which
    // keeps cached and simulated runs byte-identical downstream.
    if (opts.cache != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            if (skip[i])
                continue;
            auto hit = opts.cache->load(grid[i]);
            if (!hit)
                continue;
            hit->index = i;
            out.results[i] = std::move(*hit);
            out.present[i] = true;
            skip[i] = true;
            ++out.cached;
            if (opts.journal != nullptr)
                opts.journal->append(out.results[i]);
        }
    }

    SweepOptions eopts = engine_opts;
    if (opts.journal != nullptr || opts.cache != nullptr) {
        JournalWriter *writer = opts.journal;
        ResultCache *cache = opts.cache;
        ProgressFn user = engine_opts.onProgress;
        // The engine invokes progress under one lock as each point
        // finishes; journaling and cache publication there make
        // completion and persistence a single step.
        eopts.onProgress = [writer, cache, &grid,
                            user](std::size_t done, std::size_t total,
                                  const PointResult &r) {
            if (writer != nullptr)
                writer->append(r);
            if (cache != nullptr && r.ok)
                cache->store(grid[r.index], r);
            if (user)
                user(done, total, r);
        };
    }

    const auto run = SweepEngine(eopts).run(grid, skip);
    for (std::size_t i = 0; i < n; ++i) {
        if (skip[i])
            continue;
        out.results[i] = run[i];
        if (run[i].ok) {
            out.present[i] = true;
            ++out.simulated;
        }
    }
    return out;
}

} // namespace hermes::sweep
