#include "trace/trace_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#if HERMES_HAVE_ZLIB
#include <zlib.h>
#endif
#if HERMES_HAVE_LZMA
#include <lzma.h>
#endif

namespace hermes
{

namespace
{

[[noreturn]] void
fail(const std::string &msg)
{
    throw std::runtime_error("trace io: " + msg);
}

/** Compressed-side buffer: bounds resident memory per open stream. */
constexpr std::size_t kIoChunk = 64 * 1024;

struct FileCloser
{
    void operator()(std::FILE *f) const
    {
        if (f != nullptr)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr
openForRead(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        fail("cannot open " + path + ": " + std::strerror(errno));
    return f;
}

Compression
sniffCompression(std::FILE *f, const std::string &path)
{
    unsigned char magic[6] = {};
    const std::size_t got = std::fread(magic, 1, sizeof(magic), f);
    if (std::fseek(f, 0, SEEK_SET) != 0)
        fail("cannot rewind " + path);
    if (got >= 2 && magic[0] == 0x1f && magic[1] == 0x8b)
        return Compression::Gzip;
    static const unsigned char xz_magic[6] = {0xfd, '7',  'z',
                                              'X',  'Z',  0x00};
    if (got >= 6 && std::memcmp(magic, xz_magic, 6) == 0)
        return Compression::Xz;
    return Compression::None;
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

/**
 * Read and drop @p size bytes, calling @p before_read ahead of every
 * read; throws if the stream ends first.
 */
template <typename BeforeRead>
void
discard(ByteSource &source, std::uint64_t size, BeforeRead before_read)
{
    unsigned char scratch[4096]; // one stack page: a seek adds no buffer
    while (size > 0) {
        before_read();
        const std::size_t got = source.read(
            scratch, static_cast<std::size_t>(
                         std::min<std::uint64_t>(size, sizeof(scratch))));
        if (got == 0)
            fail("seek past the end of " + source.path());
        size -= got;
    }
}

/** What every file-backed source shares: the file, its path and size. */
class FileSource : public ByteSource
{
  public:
    FileSource(FilePtr f, std::string path)
        : f_(std::move(f)), path_(std::move(path))
    {
        struct stat st;
        if (fstat(fileno(f_.get()), &st) == 0)
            bytes_ = static_cast<std::int64_t>(st.st_size);
    }

    const std::string &path() const override { return path_; }
    std::int64_t fileBytes() const override { return bytes_; }

  protected:
    /** fread that throws on I/O errors; 0 means end of file. */
    std::size_t
    readFile(void *data, std::size_t size)
    {
        const std::size_t got = std::fread(data, 1, size, f_.get());
        if (got < size && std::ferror(f_.get()))
            fail("read error on " + path_);
        return got;
    }

    /** Position the file at @p offset, which must lie inside it. */
    void
    seekFile(std::uint64_t offset)
    {
        if (bytes_ >= 0 && offset > static_cast<std::uint64_t>(bytes_))
            fail("restart offset " + std::to_string(offset) +
                 " lies past the end of " + path_);
        if (std::fseek(f_.get(), static_cast<long>(offset), SEEK_SET) !=
            0)
            fail("cannot seek in " + path_);
    }

    FilePtr f_;
    std::string path_;
    std::int64_t bytes_ = -1;
};

class RawFileSource final : public FileSource
{
  public:
    using FileSource::FileSource;

    std::size_t
    read(void *data, std::size_t size) override
    {
        return readFile(data, size);
    }

    void rewind() override { seekFile(0); }

    RestartPoint
    restartPoint(std::uint64_t offset) const override
    {
        return {offset, offset};
    }

    void
    seek(const RestartPoint &from, std::uint64_t offset) override
    {
        if (from.fileOffset != offset || from.streamOffset != offset)
            fail("no restart point at file offset " +
                 std::to_string(from.fileOffset) + " for stream offset " +
                 std::to_string(offset) + " in " + path_);
        seekFile(offset);
    }

    Compression compression() const override { return Compression::None; }
    std::int64_t sizeHint() const override { return bytes_; }
};

#if HERMES_HAVE_ZLIB

class GzipSource final : public FileSource
{
  public:
    GzipSource(FilePtr f, std::string path)
        : FileSource(std::move(f), std::move(path)), in_(kIoChunk)
    {
        std::memset(&z_, 0, sizeof(z_));
        // windowBits 15+16: gzip wrapper only.
        if (inflateInit2(&z_, 15 + 16) != Z_OK)
            fail("inflateInit failed for " + path_);
        live_ = true;
    }

    ~GzipSource() override
    {
        if (live_)
            inflateEnd(&z_);
    }

    std::size_t
    read(void *data, std::size_t size) override
    {
        std::size_t total = 0;
        auto *out = static_cast<unsigned char *>(data);
        while (total < size && !done_) {
            if (z_.avail_in == 0)
                fillInput();
            z_.next_out = out + total;
            z_.avail_out = static_cast<unsigned>(size - total);
            const int rc = inflate(&z_, Z_NO_FLUSH);
            total = size - z_.avail_out;
            if (rc == Z_STREAM_END) {
                nextMember(decoded_ + total);
                // Stop at the member end, so a read's bytes always
                // come from one member (restartPoint relies on it).
                if (total > 0)
                    break;
                continue;
            }
            if (rc != Z_OK && rc != Z_BUF_ERROR)
                fail("corrupt gzip stream in " + path_ +
                     (z_.msg != nullptr ? std::string(": ") + z_.msg
                                        : std::string()));
            if (rc == Z_BUF_ERROR && z_.avail_in == 0 && input_eof_)
                fail("truncated gzip stream in " + path_);
        }
        decoded_ += total;
        return total;
    }

    void rewind() override { restart({}); }

    RestartPoint
    restartPoint(std::uint64_t offset) const override
    {
        for (std::size_t i = 0; i < members_; ++i) {
            const RestartPoint &m = member_[(newest_ + kKept - i) % kKept];
            if (m.streamOffset <= offset)
                return m;
        }
        return {};
    }

    void
    seek(const RestartPoint &from, std::uint64_t offset) override
    {
        if (offset < from.streamOffset)
            fail("stream offset " + std::to_string(offset) +
                 " precedes its restart point in " + path_);
        restart(from);
        discard(*this, offset - from.streamOffset, [&] {
            // A read stops at a member end; reaching one with bytes
            // still to skip means the offset is not in this member.
            if (member_[newest_].streamOffset != from.streamOffset)
                fail("stream offset " + std::to_string(offset) +
                     " lies past the gzip member at file offset " +
                     std::to_string(from.fileOffset) + " in " + path_);
        });
    }

    Compression compression() const override { return Compression::Gzip; }
    std::int64_t sizeHint() const override { return -1; }

  private:
    /** Member starts kept for restartPoint(). */
    static constexpr std::size_t kKept = 4;

    /** Begin decoding the member that starts at @p at. */
    void
    restart(const RestartPoint &at)
    {
        seekFile(at.fileOffset);
        if (inflateReset(&z_) != Z_OK)
            fail("inflateReset failed for " + path_);
        z_.avail_in = 0;
        z_.next_in = in_.data();
        done_ = input_eof_ = false;
        filePos_ = at.fileOffset;
        decoded_ = at.streamOffset;
        members_ = 0;
        remember(at);
    }

    void
    remember(const RestartPoint &at)
    {
        newest_ = (newest_ + 1) % kKept;
        member_[newest_] = at;
        members_ = std::min(members_ + 1, kKept);
    }

    /** Refill the compressed-side buffer from the file. */
    void
    fillInput()
    {
        inBase_ = filePos_;
        const std::size_t got = readFile(in_.data(), in_.size());
        filePos_ += got;
        input_eof_ = got == 0;
        z_.next_in = in_.data();
        z_.avail_in = static_cast<unsigned>(got);
    }

    /**
     * A member just ended at decoded offset @p stream_offset:
     * concatenated members are one logical stream, so start the next
     * one, or finish at a clean end of file.
     */
    void
    nextMember(std::uint64_t stream_offset)
    {
        if (z_.avail_in == 0) {
            fillInput();
            if (input_eof_) {
                done_ = true;
                return;
            }
        }
        if (inflateReset(&z_) != Z_OK)
            fail("corrupt gzip stream in " + path_);
        const std::uint64_t file_offset =
            inBase_ + static_cast<std::uint64_t>(z_.next_in - in_.data());
        remember({file_offset, stream_offset});
    }

    std::vector<unsigned char> in_;
    z_stream z_{};
    bool live_ = false;
    bool done_ = false;
    bool input_eof_ = false;
    std::uint64_t filePos_ = 0; ///< File offset of the next fread
    std::uint64_t inBase_ = 0;  ///< File offset of in_[0]
    std::uint64_t decoded_ = 0; ///< Stream offset of the next byte
    RestartPoint member_[kKept];
    std::size_t newest_ = 0;
    std::size_t members_ = 1; ///< Valid entries of member_
};

#endif // HERMES_HAVE_ZLIB

#if HERMES_HAVE_LZMA

class XzSource final : public FileSource
{
  public:
    XzSource(FilePtr f, std::string path)
        : FileSource(std::move(f), std::move(path)), in_(kIoChunk)
    {
        initDecoder();
    }

    ~XzSource() override { lzma_end(&z_); }

    std::size_t
    read(void *data, std::size_t size) override
    {
        std::size_t total = 0;
        auto *out = static_cast<std::uint8_t *>(data);
        while (total < size && !done_) {
            if (z_.avail_in == 0 && !input_eof_) {
                const std::size_t got = readFile(in_.data(), in_.size());
                input_eof_ = got == 0;
                z_.next_in = in_.data();
                z_.avail_in = got;
            }
            z_.next_out = out + total;
            z_.avail_out = size - total;
            const lzma_ret rc =
                lzma_code(&z_, input_eof_ ? LZMA_FINISH : LZMA_RUN);
            total = size - z_.avail_out;
            if (rc == LZMA_STREAM_END) {
                done_ = true;
            } else if (rc == LZMA_BUF_ERROR && input_eof_) {
                fail("truncated xz stream in " + path_);
            } else if (rc != LZMA_OK && rc != LZMA_BUF_ERROR) {
                fail("corrupt xz stream in " + path_);
            }
        }
        return total;
    }

    void
    rewind() override
    {
        seekFile(0);
        lzma_end(&z_);
        initDecoder();
    }

    Compression compression() const override { return Compression::Xz; }
    std::int64_t sizeHint() const override { return -1; }

  private:
    void
    initDecoder()
    {
        z_ = LZMA_STREAM_INIT;
        // LZMA_CONCATENATED: concatenated .xz members decode as one
        // stream, mirroring the gzip source.
        if (lzma_stream_decoder(&z_, UINT64_MAX, LZMA_CONCATENATED) !=
            LZMA_OK)
            fail("lzma decoder init failed for " + path_);
        done_ = input_eof_ = false;
    }

    std::vector<std::uint8_t> in_;
    lzma_stream z_ = LZMA_STREAM_INIT;
    bool done_ = false;
    bool input_eof_ = false;
};

#endif // HERMES_HAVE_LZMA

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/**
 * Shared atomic-publish plumbing: a temporary next to the destination
 * that commit() fsyncs and renames into place (the result_cache
 * publish discipline).
 */
class AtomicFile
{
  public:
    explicit AtomicFile(std::string path)
        : path_(std::move(path)),
          tmp_(path_ + ".tmp." + std::to_string(::getpid()))
    {
        f_ = std::fopen(tmp_.c_str(), "wb");
        if (f_ == nullptr)
            fail("cannot write " + tmp_ + ": " + std::strerror(errno));
    }

    ~AtomicFile()
    {
        if (f_ != nullptr) {
            std::fclose(f_);
            static_cast<void>(::unlink(tmp_.c_str()));
        }
    }

    void
    write(const void *data, std::size_t size)
    {
        if (std::fwrite(data, 1, size, f_) != size)
            fail("write failed on " + tmp_ + ": " +
                 std::strerror(errno));
    }

    void
    commit()
    {
        if (std::fflush(f_) != 0 || fsync(fileno(f_)) != 0) {
            fail("flush failed on " + tmp_ + ": " +
                 std::strerror(errno));
        }
        std::fclose(f_);
        f_ = nullptr;
        if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
            const int err = errno;
            static_cast<void>(::unlink(tmp_.c_str()));
            fail("cannot publish " + path_ + ": " +
                 std::strerror(err));
        }
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::string tmp_;
    std::FILE *f_ = nullptr;
};

class RawFileSink final : public ByteSink
{
  public:
    explicit RawFileSink(const std::string &path) : file_(path) {}

    void
    write(const void *data, std::size_t size) override
    {
        file_.write(data, size);
    }

    void finish() override { file_.commit(); }
    const std::string &path() const override { return file_.path(); }

  private:
    AtomicFile file_;
};

#if HERMES_HAVE_ZLIB

/**
 * One gzip member per kGzipMemberBytes of input, each with its own
 * header and trailer: any gzip reader sees one stream, and GzipSource
 * can restart decoding at every member start.
 */
class GzipSink final : public ByteSink
{
  public:
    explicit GzipSink(const std::string &path)
        : file_(path), out_(kIoChunk)
    {
        std::memset(&z_, 0, sizeof(z_));
        if (deflateInit2(&z_, Z_DEFAULT_COMPRESSION, Z_DEFLATED,
                         15 + 16, 8, Z_DEFAULT_STRATEGY) != Z_OK)
            fail("deflateInit failed for " + path);
        live_ = true;
    }

    ~GzipSink() override
    {
        if (live_)
            deflateEnd(&z_);
    }

    void
    write(const void *data, std::size_t size) override
    {
        const auto *in = static_cast<const Bytef *>(data);
        while (size > 0) {
            // Close a full member only once more input arrives, so
            // the file never ends in an empty member.
            if (memberBytes_ == kGzipMemberBytes)
                endMember();
            const std::size_t n =
                std::min(size, kGzipMemberBytes - memberBytes_);
            z_.next_in = const_cast<Bytef *>(in);
            z_.avail_in = static_cast<unsigned>(n);
            pump(Z_NO_FLUSH);
            memberBytes_ += n;
            in += n;
            size -= n;
        }
    }

    void
    finish() override
    {
        endMember();
        file_.commit();
    }

    const std::string &path() const override { return file_.path(); }

  private:
    /** Write the member's trailer and start the next member afresh. */
    void
    endMember()
    {
        z_.next_in = nullptr;
        z_.avail_in = 0;
        pump(Z_FINISH);
        if (deflateReset(&z_) != Z_OK)
            fail("deflateReset failed for " + file_.path());
        memberBytes_ = 0;
    }

    void
    pump(int flush)
    {
        do {
            z_.next_out = out_.data();
            z_.avail_out = static_cast<unsigned>(out_.size());
            const int rc = deflate(&z_, flush);
            if (rc == Z_STREAM_ERROR)
                fail("deflate failed for " + file_.path());
            const std::size_t produced = out_.size() - z_.avail_out;
            if (produced > 0)
                file_.write(out_.data(), produced);
            if (flush == Z_FINISH && rc == Z_STREAM_END)
                break;
        } while (z_.avail_in > 0 || z_.avail_out == 0 ||
                 flush == Z_FINISH);
    }

    AtomicFile file_;
    std::vector<unsigned char> out_;
    z_stream z_{};
    bool live_ = false;
    std::size_t memberBytes_ = 0; ///< Input taken by the open member
};

#endif // HERMES_HAVE_ZLIB

#if HERMES_HAVE_LZMA

class XzSink final : public ByteSink
{
  public:
    explicit XzSink(const std::string &path)
        : file_(path), out_(kIoChunk)
    {
        z_ = LZMA_STREAM_INIT;
        if (lzma_easy_encoder(&z_, 6, LZMA_CHECK_CRC64) != LZMA_OK)
            fail("lzma encoder init failed for " + path);
    }

    ~XzSink() override { lzma_end(&z_); }

    void
    write(const void *data, std::size_t size) override
    {
        z_.next_in = static_cast<const std::uint8_t *>(data);
        z_.avail_in = size;
        pump(LZMA_RUN);
    }

    void
    finish() override
    {
        z_.next_in = nullptr;
        z_.avail_in = 0;
        pump(LZMA_FINISH);
        file_.commit();
    }

    const std::string &path() const override { return file_.path(); }

  private:
    void
    pump(lzma_action action)
    {
        while (true) {
            z_.next_out = out_.data();
            z_.avail_out = out_.size();
            const lzma_ret rc = lzma_code(&z_, action);
            if (rc != LZMA_OK && rc != LZMA_STREAM_END)
                fail("xz compression failed for " + file_.path());
            const std::size_t produced = out_.size() - z_.avail_out;
            if (produced > 0)
                file_.write(out_.data(), produced);
            if (action == LZMA_RUN && z_.avail_in == 0)
                break;
            if (action == LZMA_FINISH && rc == LZMA_STREAM_END)
                break;
        }
    }

    AtomicFile file_;
    std::vector<std::uint8_t> out_;
    lzma_stream z_ = LZMA_STREAM_INIT;
};

#endif // HERMES_HAVE_LZMA

[[noreturn]] [[maybe_unused]] void
failUnsupported(Compression c, const std::string &path)
{
    const char *lib = c == Compression::Gzip ? "zlib" : "liblzma";
    fail(std::string(compressionName(c)) + " stream " + path +
         " needs " + lib + ", which this build lacks (rebuild with " +
         lib + " development headers installed)");
}

} // namespace

RestartPoint
ByteSource::restartPoint(std::uint64_t) const
{
    return {};
}

void
ByteSource::seek(const RestartPoint &from, std::uint64_t offset)
{
    if (from.fileOffset != 0 || from.streamOffset != 0)
        fail("no restart point at file offset " +
             std::to_string(from.fileOffset) + " in " + path());
    rewind();
    discard(*this, offset, [] {});
}

const char *
compressionName(Compression c)
{
    switch (c) {
      case Compression::Gzip:
        return "gzip";
      case Compression::Xz:
        return "xz";
      case Compression::None:
        break;
    }
    return "none";
}

bool
compressionSupported(Compression c)
{
    switch (c) {
      case Compression::Gzip:
#if HERMES_HAVE_ZLIB
        return true;
#else
        return false;
#endif
      case Compression::Xz:
#if HERMES_HAVE_LZMA
        return true;
#else
        return false;
#endif
      case Compression::None:
        break;
    }
    return true;
}

Compression
compressionForPath(const std::string &path)
{
    auto ends_with = [&path](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return path.size() >= n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    if (ends_with(".gz"))
        return Compression::Gzip;
    if (ends_with(".xz"))
        return Compression::Xz;
    return Compression::None;
}

std::unique_ptr<ByteSource>
openByteSource(const std::string &path)
{
    FilePtr f = openForRead(path);
    const Compression c = sniffCompression(f.get(), path);
    switch (c) {
      case Compression::Gzip:
#if HERMES_HAVE_ZLIB
        return std::make_unique<GzipSource>(std::move(f), path);
#else
        failUnsupported(c, path);
#endif
      case Compression::Xz:
#if HERMES_HAVE_LZMA
        return std::make_unique<XzSource>(std::move(f), path);
#else
        failUnsupported(c, path);
#endif
      case Compression::None:
        break;
    }
    return std::make_unique<RawFileSource>(std::move(f), path);
}

std::unique_ptr<ByteSink>
openByteSink(const std::string &path, Compression compression)
{
    switch (compression) {
      case Compression::Gzip:
#if HERMES_HAVE_ZLIB
        return std::make_unique<GzipSink>(path);
#else
        failUnsupported(compression, path);
#endif
      case Compression::Xz:
#if HERMES_HAVE_LZMA
        return std::make_unique<XzSink>(path);
#else
        failUnsupported(compression, path);
#endif
      case Compression::None:
        break;
    }
    return std::make_unique<RawFileSink>(path);
}

} // namespace hermes
