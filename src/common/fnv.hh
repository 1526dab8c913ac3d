#pragma once

/**
 * @file
 * Incremental FNV-1a over 64-bit words and length-prefixed strings:
 * the one hash behind the whole golden-fingerprint family
 * (statsFingerprint, the sweep journal's point/space fingerprints,
 * sweepFingerprint and the warmup-checkpoint fingerprint). Keep every
 * fingerprint on this class so the pinned goldens can never diverge
 * between sites. The checkpoint payload checksum is not a fingerprint
 * and is not FNV: it hashes megabytes per restore, so it uses the
 * word-at-a-time Xxh64 (common/state_io.hh).
 */

#include <cstdint>
#include <string>

namespace hermes
{

class Fnv64
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte((v >> (8 * i)) & 0xFF);
    }

    void
    add(const std::string &s)
    {
        // Length first so "ab"+"c" and "a"+"bc" hash apart.
        add(static_cast<std::uint64_t>(s.size()));
        for (unsigned char c : s)
            byte(c);
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(std::uint64_t b)
    {
        h_ ^= b;
        h_ *= 0x100000001B3ull;
    }

    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

} // namespace hermes
