#pragma once

/**
 * @file
 * Byte-stream layer under the trace readers and writers: buffered file
 * sources and crash-safe sinks with transparent gzip/xz compression.
 *
 * Compression is detected by magic bytes on the read side (never by
 * file name), and chosen by file extension on the write side (".gz",
 * ".xz"). The codecs stream through fixed-size buffers, so a source
 * over a multi-GB compressed trace stays O(100KB) resident.
 *
 * Seeking: the gzip sink closes a gzip member after every
 * kGzipMemberBytes of input (the BGZF idea; the file stays one valid
 * gzip stream), and a source can resume decoding at any member start.
 * A position is then a RestartPoint plus a decoded offset at most one
 * member past it, so reaching it inflates less than one member. Raw
 * files seek exactly; xz and single-member gzip files restart at the
 * first byte and discard up to the offset.
 *
 * zlib and liblzma are optional build dependencies: when the build
 * lacks one, opening a stream of that compression throws a
 * std::runtime_error naming the missing library (the formats are
 * still *detected* so the error is precise, not a parse failure).
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace hermes
{

/** Stream compression schemes the trace layer understands. */
enum class Compression : std::uint8_t
{
    None,
    Gzip, ///< RFC 1952 (magic 1f 8b), via zlib
    Xz,   ///< .xz container (magic fd '7zXZ' 00), via liblzma
};

/** Human-readable codec name ("none", "gzip", "xz"). */
const char *compressionName(Compression c);

/** True when this build can encode/decode @p c. */
bool compressionSupported(Compression c);

/** Codec implied by a file name's extension (".gz", ".xz"). */
Compression compressionForPath(const std::string &path);

/** Decoded bytes per gzip member the sink writes: 256 KiB. */
inline constexpr std::size_t kGzipMemberBytes = 256 * 1024;

/**
 * A place a source can resume decoding without decoding anything
 * before it: the file offset decoding restarts at (a gzip member's
 * first byte; in a raw file, the byte itself) and the decoded-stream
 * offset of the first byte it yields.
 */
struct RestartPoint
{
    std::uint64_t fileOffset = 0;
    std::uint64_t streamOffset = 0;
};

/**
 * Sequential byte stream with rewind and seek. read() fills up to
 * @p size bytes and returns the count; 0 means clean end-of-stream. A
 * gzip source's read() never returns bytes of two members. Corrupt or
 * truncated compressed data throws std::runtime_error.
 */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    virtual std::size_t read(void *data, std::size_t size) = 0;

    /** Restart the stream from the first byte. */
    virtual void rewind() = 0;

    /**
     * The restart point for decoded offset @p offset, which must not
     * lie beyond the bytes read so far: the start of the gzip member
     * that holds it, the offset itself in a raw file. A gzip source
     * remembers the last four member starts it passed; an older
     * offset, and every offset of a source without restart points
     * (xz, the default), gets the start of the stream, {0, 0}.
     */
    virtual RestartPoint restartPoint(std::uint64_t offset) const;

    /**
     * Reposition so the next read() yields decoded offset @p offset,
     * decoding from @p from, a restartPoint() of an identical stream.
     * Throws std::runtime_error, leaving the position unspecified,
     * when @p from is not a restart point of this stream or @p offset
     * lies past the gzip member (or the stream) that starts there, so
     * no seek inflates more than one member past its restart point.
     * The default accepts only {0, 0}: it rewinds and discards
     * @p offset bytes.
     */
    virtual void seek(const RestartPoint &from, std::uint64_t offset);

    /** Size of the underlying file on disk; -1 when there is none. */
    virtual std::int64_t fileBytes() const { return -1; }

    /** The underlying file path (for error messages). */
    virtual const std::string &path() const = 0;

    /** Detected compression scheme. */
    virtual Compression compression() const = 0;

    /**
     * Size of the *decompressed* stream when cheaply known
     * (uncompressed files: the file size); -1 otherwise.
     */
    virtual std::int64_t sizeHint() const = 0;
};

/**
 * Open @p path, sniff the compression magic and return a decompressing
 * source. Throws std::runtime_error when the file cannot be opened or
 * the detected codec is not compiled in.
 */
std::unique_ptr<ByteSource> openByteSource(const std::string &path);

/**
 * Crash-safe byte sink: bytes stream into a hidden temporary next to
 * the destination; finish() flushes the codec, fsyncs and atomically
 * renames into place, so a crash at any earlier point leaves either
 * the old file or nothing — never a torn trace. Destroying an
 * unfinished sink discards the temporary.
 */
class ByteSink
{
  public:
    virtual ~ByteSink() = default;

    /** Append bytes; throws std::runtime_error on I/O errors. */
    virtual void write(const void *data, std::size_t size) = 0;

    /** Flush, fsync and publish the file. Call exactly once. */
    virtual void finish() = 0;

    virtual const std::string &path() const = 0;
};

/**
 * Create a sink writing @p path with @p compression (pass
 * compressionForPath(path) for extension-driven choice). Throws when
 * the codec is not compiled in or the temporary cannot be created.
 */
std::unique_ptr<ByteSink> openByteSink(const std::string &path,
                                       Compression compression);

} // namespace hermes
