#include "common/state_io.hh"

#include <algorithm>

#include "trace/trace_io.hh"

namespace hermes
{

namespace
{

// xxHash64's primes.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t
rotl(std::uint64_t v, int r)
{
    return (v << r) | (v >> (64 - r));
}

/** One lane step: multiply, rotate, multiply. */
inline std::uint64_t
mixRound(std::uint64_t acc, std::uint64_t input)
{
    return rotl(acc + input * kPrime2, 31) * kPrime1;
}

inline std::uint64_t
mergeLane(std::uint64_t h, std::uint64_t lane)
{
    return (h ^ mixRound(0, lane)) * kPrime1 + kPrime4;
}

/** Little-endian load; compilers fold it into one move on LE hosts. */
inline std::uint64_t
loadLe(const std::uint8_t *p, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= std::uint64_t{p[i]} << (8 * i);
    return v;
}

} // namespace

void
Xxh64::stripes(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t v0 = lane_[0], v1 = lane_[1], v2 = lane_[2],
                  v3 = lane_[3];
    for (; n > 0; --n, p += 32) {
        v0 = mixRound(v0, loadLe(p, 8));
        v1 = mixRound(v1, loadLe(p + 8, 8));
        v2 = mixRound(v2, loadLe(p + 16, 8));
        v3 = mixRound(v3, loadLe(p + 24, 8));
    }
    lane_[0] = v0;
    lane_[1] = v1;
    lane_[2] = v2;
    lane_[3] = v3;
}

void
Xxh64::update(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    total_ += size;
    if (carried_ > 0) {
        const std::size_t n = std::min(size, sizeof(carry_) - carried_);
        std::memcpy(carry_ + carried_, p, n);
        carried_ += n;
        p += n;
        size -= n;
        if (carried_ < sizeof(carry_))
            return;
        stripes(carry_, 1);
        carried_ = 0;
    }
    stripes(p, size / 32);
    carried_ = size % 32;
    if (carried_ > 0)
        std::memcpy(carry_, p + size - carried_, carried_);
}

std::uint64_t
Xxh64::value() const
{
    std::uint64_t h = kPrime5;
    if (total_ >= 32) {
        h = rotl(lane_[0], 1) + rotl(lane_[1], 7) + rotl(lane_[2], 12) +
            rotl(lane_[3], 18);
        for (const std::uint64_t lane : lane_)
            h = mergeLane(h, lane);
    }
    h += total_;
    const std::uint8_t *p = carry_;
    std::size_t n = carried_;
    for (; n >= 8; n -= 8, p += 8)
        h = rotl(h ^ mixRound(0, loadLe(p, 8)), 27) * kPrime1 + kPrime4;
    if (n >= 4) {
        h = rotl(h ^ loadLe(p, 4) * kPrime1, 23) * kPrime2 + kPrime3;
        n -= 4;
        p += 4;
    }
    for (; n > 0; --n, ++p)
        h = rotl(h ^ *p * kPrime5, 11) * kPrime1;
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    return h ^ (h >> 32);
}

void
StateWriter::bytes(const void *data, std::size_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(data);
    while (size > 0) {
        if (used_ == kStateStagingBytes)
            flush();
        const std::size_t n = std::min(size, kStateStagingBytes - used_);
        std::memcpy(buf_ + used_, in, n);
        used_ += n;
        in += n;
        size -= n;
    }
}

void
StateWriter::flush()
{
    if (used_ == 0)
        return;
    hash_.update(buf_, used_);
    sink_.write(buf_, used_);
    used_ = 0;
}

void
StateWriter::sealChecksum()
{
    flush();
    const std::uint64_t sum = hash_.value();
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<std::uint8_t>((sum >> (8 * i)) & 0xFF);
    sink_.write(buf, 8);
}

void
StateReader::retire()
{
    hash_.update(buf_, pos_);
    std::memmove(buf_, buf_ + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
}

void
StateReader::refill(std::size_t want)
{
    retire();
    while (end_ < want) {
        const std::size_t n =
            source_.read(buf_ + end_, kStateStagingBytes - end_);
        if (n == 0)
            throw StateError("truncated stream (wanted " +
                             std::to_string(want) + " bytes, got " +
                             std::to_string(end_) + ")");
        end_ += n;
    }
}

void
StateReader::bytes(void *data, std::size_t size)
{
    auto *out = static_cast<std::uint8_t *>(data);
    while (size > 0) {
        if (pos_ == end_)
            refill(1);
        const std::size_t n = std::min(size, end_ - pos_);
        std::memcpy(out, buf_ + pos_, n);
        pos_ += n;
        out += n;
        size -= n;
    }
}

std::string
StateReader::str(std::size_t max_size)
{
    const std::size_t n = count(max_size);
    std::string s(n, '\0');
    if (n != 0)
        bytes(&s[0], n);
    return s;
}

void
StateReader::section(const char *tag)
{
    const std::string got = str(64);
    if (got != tag)
        throw StateError("expected section '" + std::string(tag) +
                         "', found '" + got + "'");
}

void
StateReader::verifyChecksum()
{
    // Retire first so the payload hash is complete; the checksum word
    // read next stays consumed-but-unhashed.
    retire();
    const std::uint64_t expect = hash_.value();
    if (u64() != expect)
        throw StateError("payload checksum mismatch");
    unsigned char extra = 0;
    if (pos_ != end_ || source_.read(&extra, 1) != 0)
        throw StateError("trailing bytes after checksum");
}

} // namespace hermes
