#pragma once

/**
 * @file
 * Field-by-field binary serialization for warmup checkpoints: the
 * StateWriter/StateReader pair every component's saveState/loadState
 * uses (see docs/sessions.md). The format is deliberately dumb and
 * explicit — fixed-width little-endian integers written one field at a
 * time, never whole structs — so a checkpoint is identical across
 * compilers, padding rules and host endianness.
 *
 * Staging: fields are encoded into (and decoded from) one fixed
 * kStateStagingBytes member buffer, never one ByteSink/ByteSource call
 * per field. The writer hands its sink whole chunks; the reader refills
 * from its source in chunks and treats only a 0-byte read as the end
 * of the stream. Memory stays bounded whatever the checkpoint's size:
 * neither side ever holds a whole stream. Staging is invisible in the
 * bytes: the stream is exactly the concatenation of its fields.
 *
 * Robustness: every payload byte feeds a running Xxh64 checksum on
 * both sides, one chunk at a time (the writer as a chunk leaves, the
 * reader as consumed bytes leave the buffer, so the stored checksum
 * word stays outside the hash); section tags ("CORE", "LLC0", ...)
 * frame each component so a truncated or drifted stream fails with a
 * message naming the section, not garbage state. All reader defects
 * throw StateError; SimSession::restore() turns any defect into a
 * clean "re-warm from scratch" miss.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace hermes
{

class ByteSink;
class ByteSource;

/** Size of the writer's and the reader's staging buffer. */
inline constexpr std::size_t kStateStagingBytes = 16 * 1024;

/**
 * The checkpoint payload checksum: XXH64 with seed 0, computed
 * incrementally. Four 64-bit lanes take 32-byte little-endian stripes
 * through xxHash64's multiply-rotate round; a stripe split between
 * two update() calls waits in a carry of at most 31 bytes, so the
 * value never depends on how the bytes were chunked. value() applies
 * the merge, tail and avalanche steps to a copy and may be called at
 * any point. Identity fingerprints stay on Fnv64 (common/fnv.hh);
 * this hash only guards checkpoint streams, where byte-serial FNV-1a
 * cost over ten times as much.
 */
class Xxh64
{
  public:
    void update(const void *data, std::size_t size);
    std::uint64_t value() const;

  private:
    /** Fold @p n whole stripes at @p p into the lanes. */
    void stripes(const std::uint8_t *p, std::size_t n);

    // Seed 0's lanes: prime1 + prime2, prime2, 0, -prime1 (mod 2^64).
    std::uint64_t lane_[4] = {0x60EA27EEADC0B5D6ull,
                              0xC2B2AE3D27D4EB4Full, 0,
                              0x61C8864E7A143579ull};
    std::uint64_t total_ = 0;
    std::size_t carried_ = 0;
    std::uint8_t carry_[32] = {};
};

/** Any checkpoint decode defect: truncation, bad tag, bad checksum. */
class StateError : public std::runtime_error
{
  public:
    explicit StateError(const std::string &what)
        : std::runtime_error("checkpoint: " + what)
    {
    }
};

/**
 * Serializes checkpoint fields into a ByteSink, checksumming along.
 * Bytes reach the sink only in whole staged chunks, and the destructor
 * never flushes: a stream is complete only after sealChecksum().
 */
class StateWriter
{
  public:
    explicit StateWriter(ByteSink &sink) : sink_(sink) {}

    StateWriter(const StateWriter &) = delete;
    StateWriter &operator=(const StateWriter &) = delete;

    void u8(std::uint8_t v) { *room(1) = v; }
    void b(bool v) { u8(v ? 1 : 0); }
    void u16(std::uint16_t v) { put(v, 2); }
    void u32(std::uint32_t v) { put(v, 4); }
    void u64(std::uint64_t v) { put(v, 8); }

    void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
    void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** IEEE bit pattern: exact round trip, no locale/format drift. */
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    f32(float v)
    {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u32(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Frame the next component; the reader must match the same tag. */
    void
    section(const char *tag)
    {
        str(tag);
    }

    /**
     * Flush the staged bytes, then append the checksum of everything
     * written (not fed back into the hash). Call exactly once, after
     * the last field.
     */
    void sealChecksum();

  private:
    /** Stage the low @p width bytes of @p v, little-endian. */
    void
    put(std::uint64_t v, std::size_t width)
    {
        std::uint8_t *p = room(width);
        for (std::size_t i = 0; i < width; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    /** Reserve @p n (<= 8) staged bytes, flushing first if full. */
    std::uint8_t *
    room(std::size_t n)
    {
        if (kStateStagingBytes - used_ < n)
            flush();
        std::uint8_t *p = buf_ + used_;
        used_ += n;
        return p;
    }

    void bytes(const void *data, std::size_t size);
    /** Hash the staged chunk and hand it to the sink. */
    void flush();

    ByteSink &sink_;
    Xxh64 hash_;
    std::size_t used_ = 0;
    std::uint8_t buf_[kStateStagingBytes] = {};
};

/** The mirror-image reader; any defect throws StateError. */
class StateReader
{
  public:
    explicit StateReader(ByteSource &source) : source_(source) {}

    StateReader(const StateReader &) = delete;
    StateReader &operator=(const StateReader &) = delete;

    std::uint8_t u8() { return *take(1); }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw StateError("bad boolean byte");
        return v != 0;
    }

    std::uint16_t u16() { return static_cast<std::uint16_t>(get(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
    std::uint64_t u64() { return get(8); }

    std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
    std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    float
    f32()
    {
        const std::uint32_t bits = u32();
        float v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str(std::size_t max_size = kMaxString);

    /** Read a section tag and require it to equal @p tag. */
    void section(const char *tag);

    /** Bounded count for containers (defends against garbage sizes). */
    std::size_t
    count(std::size_t max)
    {
        const std::uint64_t n = u64();
        if (n > max)
            throw StateError("container size " + std::to_string(n) +
                             " exceeds bound " + std::to_string(max));
        return static_cast<std::size_t>(n);
    }

    /**
     * Read the trailing checksum word (not hashed) and require it to
     * match the payload hash; then require end-of-stream: a byte left
     * in the buffer or one more from the source is trailing garbage.
     */
    void verifyChecksum();

  private:
    /** Decode @p width little-endian bytes. */
    std::uint64_t
    get(std::size_t width)
    {
        const std::uint8_t *p = take(width);
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < width; ++i)
            v |= std::uint64_t{p[i]} << (8 * i);
        return v;
    }

    /** Consume @p n (<= 8) buffered bytes, refilling first if short. */
    const std::uint8_t *
    take(std::size_t n)
    {
        if (end_ - pos_ < n)
            refill(n);
        const std::uint8_t *p = buf_ + pos_;
        pos_ += n;
        return p;
    }

    void bytes(void *data, std::size_t size);
    /** Retire consumed bytes, then read until @p want are buffered. */
    void refill(std::size_t want);
    /** Hash the consumed bytes and drop them from the buffer. */
    void retire();

    static constexpr std::size_t kMaxString = 1u << 20;

    ByteSource &source_;
    Xxh64 hash_;
    // buf_[0, pos_) is consumed but not yet hashed; buf_[pos_, end_)
    // is read ahead.
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
    std::uint8_t buf_[kStateStagingBytes] = {};
};

} // namespace hermes
