#include "common/content_store.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <stdexcept>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#include <vector>

#include "common/config.hh"
#include "sim/report.hh"
#include "trace/trace_io.hh"

namespace hermes
{

namespace
{

/** mkdir -p. Throws std::runtime_error when a component can't be made. */
void
ensureDirectory(const std::string &path)
{
    std::size_t pos = 0;
    while (pos <= path.size()) {
        std::size_t next = path.find('/', pos);
        if (next == std::string::npos)
            next = path.size();
        const std::string partial = path.substr(0, next);
        pos = next + 1;
        if (partial.empty() || partial == ".")
            continue;
        if (mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST)
            throw std::runtime_error("cannot create directory " +
                                     partial + ": " +
                                     std::strerror(errno));
    }
}

struct EntryInfo
{
    std::string name;
    std::uint64_t bytes = 0;
    /** mtime in nanoseconds — the LRU clock (hits touch it). */
    std::int64_t mtimeNs = 0;
};

/** Every "<hex16>.<ext>" entry of @p dir; throws if @p dir is unreadable. */
std::vector<EntryInfo>
scanEntries(const std::string &dir, const std::string &ext,
            const std::string &what)
{
    std::vector<EntryInfo> out;
    DIR *d = opendir(dir.c_str());
    if (d == nullptr)
        throw std::runtime_error(what + ": cannot scan " + dir + ": " +
                                 std::strerror(errno));
    while (const dirent *e = readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() != 17 + ext.size() || name[16] != '.' ||
            name.compare(17, ext.size(), ext) != 0)
            continue;
        struct stat st = {};
        if (stat((dir + "/" + name).c_str(), &st) != 0)
            continue;
        EntryInfo info;
        info.name = name;
        info.bytes = static_cast<std::uint64_t>(st.st_size);
        info.mtimeNs =
            static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
            st.st_mtim.tv_nsec;
        out.push_back(std::move(info));
    }
    closedir(d);
    return out;
}

} // namespace

StoreConfig
parseStoreSpec(const std::string &spec, const std::string &what)
{
    StoreConfig cfg;
    std::size_t pos = 0;
    bool first = true;
    while (pos <= spec.size()) {
        std::size_t next = spec.find(',', pos);
        if (next == std::string::npos)
            next = spec.size();
        const std::string part = spec.substr(pos, next - pos);
        pos = next + 1;
        if (first) {
            first = false;
            if (part.empty())
                throw std::invalid_argument(
                    what +
                    " spec wants "
                    "\"DIR[,max_bytes=SIZE][,max_entries=N]\"; got '" +
                    spec + "'");
            cfg.dir = part;
            continue;
        }
        const std::size_t eq = part.find('=');
        const std::string key =
            eq == std::string::npos ? part : part.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : part.substr(eq + 1);
        if (key == "max_bytes") {
            const auto v = parseSizeBytes(value);
            if (!v || *v == 0)
                throw std::invalid_argument(
                    what +
                    " max_bytes wants a positive size "
                    "(K/M/G suffixes allowed); got '" +
                    value + "'");
            cfg.maxBytes = *v;
        } else if (key == "max_entries") {
            const auto v = parseUint64(value);
            if (!v || *v == 0)
                throw std::invalid_argument(
                    what +
                    " max_entries wants a positive integer; got '" +
                    value + "'");
            cfg.maxEntries = *v;
        } else {
            throw std::invalid_argument(
                "unknown " + what + " option '" + key +
                "' (want max_bytes or max_entries)");
        }
    }
    return cfg;
}

ContentStore::ContentStore(StoreConfig cfg, std::string ext,
                           std::string what)
    : cfg_(std::move(cfg)), ext_(std::move(ext)), what_(std::move(what))
{
    if (cfg_.dir.empty())
        throw std::runtime_error(what_ + ": empty cache directory");
    ensureDirectory(cfg_.dir);
    struct stat st = {};
    if (stat(cfg_.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        throw std::runtime_error(what_ + ": " + cfg_.dir +
                                 " is not a directory");
}

std::string
ContentStore::entryName(std::uint64_t key, const std::string &ext)
{
    return fingerprintHex(key) + "." + ext;
}

std::string
ContentStore::entryPath(std::uint64_t key) const
{
    return cfg_.dir + "/" + entryName(key, ext_);
}

bool
ContentStore::load(std::uint64_t key, const Verify &verify)
{
    const std::string path = entryPath(key);
    const bool present = access(path.c_str(), F_OK) == 0;
    bool accepted = false;
    if (present) {
        try {
            accepted = verify(path);
        } catch (const std::exception &) {
            accepted = false;
        }
    }
    std::lock_guard<std::mutex> g(mutex_);
    if (accepted) {
        // Refresh the LRU clock; eviction drops the coldest mtime.
        static_cast<void>(utimensat(AT_FDCWD, path.c_str(), nullptr, 0));
        ++stats_.hits;
        return true;
    }
    // Unlink a rejected entry: publish is first-writer-wins, so a bad
    // file must go for a good one to land. An entry that vanished since
    // access() (evicted, or rejected by another process) is a plain
    // miss, not a reject.
    if (present && (unlink(path.c_str()) == 0 || errno != ENOENT))
        ++stats_.rejected;
    ++stats_.misses;
    return false;
}

void
ContentStore::publish(std::uint64_t key, const Write &write)
{
    // The existence check, the write and the rename form one step
    // under the lock: that is what keeps two in-process publishes of
    // one key off a shared temporary.
    std::lock_guard<std::mutex> g(mutex_);
    const std::string path = entryPath(key);
    if (access(path.c_str(), F_OK) == 0)
        return;
    auto sink = openByteSink(path, Compression::None);
    write(*sink);
    sink->finish();
    ++stats_.stores;
    evictToBudgetLocked();
}

std::size_t
ContentStore::entryCount() const
{
    return scanEntries(cfg_.dir, ext_, what_).size();
}

void
ContentStore::evictToBudgetLocked()
{
    if (cfg_.maxBytes == 0 && cfg_.maxEntries == 0)
        return;
    // Rescan instead of tracking incrementally: other processes share
    // the directory, and publishes are rare next to simulation work.
    std::vector<EntryInfo> entries = scanEntries(cfg_.dir, ext_, what_);
    std::uint64_t bytes = 0;
    for (const EntryInfo &e : entries)
        bytes += e.bytes;
    std::sort(entries.begin(), entries.end(),
              [](const EntryInfo &a, const EntryInfo &b) {
                  return a.mtimeNs != b.mtimeNs ? a.mtimeNs < b.mtimeNs
                                                : a.name < b.name;
              });
    std::size_t count = entries.size();
    std::size_t victim = 0;
    while (victim < entries.size() &&
           ((cfg_.maxEntries != 0 && count > cfg_.maxEntries) ||
            (cfg_.maxBytes != 0 && bytes > cfg_.maxBytes))) {
        const EntryInfo &e = entries[victim++];
        if (unlink((cfg_.dir + "/" + e.name).c_str()) == 0)
            ++stats_.evicted;
        --count;
        bytes -= e.bytes;
    }
}

} // namespace hermes
