#include "sweep/result_cache.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/report.hh"
#include "trace/trace_io.hh"

namespace hermes::sweep
{

namespace
{

constexpr const char *kExt = "rec";

/** The first line of every entry; byte-compared on load. */
std::string
entryHeader(std::uint64_t point_fp)
{
    return "{\"hermes_result_cache\":" +
           std::to_string(journalFormatVersion()) + ",\"point\":\"" +
           fingerprintHex(point_fp) + "\"}";
}

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error(std::string(ResultCache::kWhat) + ": " +
                             what);
}

} // namespace

ResultCache::ResultCache(StoreConfig cfg)
    : store_(std::move(cfg), kExt, kWhat)
{
}

std::string
ResultCache::entryName(std::uint64_t point_fp)
{
    return ContentStore::entryName(point_fp, kExt);
}

std::optional<PointResult>
ResultCache::load(const GridPoint &point)
{
    const std::uint64_t point_fp = pointFingerprint(point);
    std::optional<PointResult> hit;
    const auto verify = [&](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            fail("cannot read " + path);
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string text = buf.str();
        const std::size_t nl1 = text.find('\n');
        if (nl1 == std::string::npos)
            fail("truncated entry");
        // The header is deterministic given the key, so a flat byte
        // compare checks version and point echo at once.
        if (text.compare(0, nl1, entryHeader(point_fp)) != 0)
            fail("version/point header mismatch");
        const std::size_t nl2 = text.find('\n', nl1 + 1);
        if (nl2 == std::string::npos || nl2 + 1 != text.size())
            fail("truncated entry");
        JournalRecord rec =
            decodeJournalRecord(text.substr(nl1 + 1, nl2 - nl1 - 1));
        if (rec.pointFp != point_fp)
            fail("record point fingerprint mismatch");
        if (rec.result.label != point.label)
            fail("label mismatch");
        rec.result.index = 0;
        rec.result.ok = true;
        hit = std::move(rec.result);
        return true;
    };
    if (!store_.load(point_fp, verify))
        return std::nullopt;
    return hit;
}

void
ResultCache::store(const GridPoint &point, const PointResult &r)
{
    if (!r.ok)
        return;
    if (r.label != point.label)
        fail("store: result label '" + r.label +
             "' does not match point '" + point.label + "'");
    const std::uint64_t point_fp = pointFingerprint(point);
    store_.publish(point_fp, [&](ByteSink &sink) {
        JournalRecord rec;
        rec.index = 0;
        rec.pointFp = point_fp;
        rec.result = r;
        rec.result.index = 0;
        const std::string text = entryHeader(point_fp) + "\n" +
                                 encodeJournalRecord(rec) + "\n";
        sink.write(text.data(), text.size());
    });
}

} // namespace hermes::sweep
