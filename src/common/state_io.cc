#include "common/state_io.hh"

#include <algorithm>

#include "trace/trace_io.hh"

namespace hermes
{

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
    hash_.addBytes(buf_, used_);
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
    hash_.addBytes(buf_, pos_);
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
