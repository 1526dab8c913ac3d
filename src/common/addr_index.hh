#pragma once

/**
 * @file
 * Open-addressed hash index mapping an in-flight line address to a
 * slot: a cache's MSHR slot (replacing the linear MSHR array scan on
 * every cache lookup, the second-hottest operation in the simulator
 * after tag search), or a DRAM channel's read-entry slot.
 *
 * Linear probing with backward-shift deletion; the table is sized at
 * 4x the most keys it may hold, so probe chains stay short. Keys are
 * unique and never exceed that count: the cache never allocates two
 * MSHRs for the same line, and DRAM reads merge by line into a bounded
 * queue. Callers enforce both (insert does not check).
 */

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hermes
{

class AddrIndex
{
  public:
    explicit AddrIndex(std::uint32_t max_keys)
    {
        const auto cap = static_cast<std::uint32_t>(ceilPow2(
            max_keys * 4 < 8 ? 8 : static_cast<std::size_t>(max_keys) * 4));
        mask_ = cap - 1;
        slots_.assign(cap, kEmpty);
        lines_.assign(cap, 0);
    }

    /** Slot holding @p line, or kNotFound if absent. */
    std::uint32_t
    find(Addr line) const
    {
        for (std::uint32_t h = hash(line);; h = (h + 1) & mask_) {
            if (slots_[h] == kEmpty)
                return kNotFound;
            if (lines_[h] == line)
                return slots_[h];
        }
    }

    bool contains(Addr line) const { return find(line) != kNotFound; }

    void
    insert(Addr line, std::uint32_t slot)
    {
        std::uint32_t h = hash(line);
        while (slots_[h] != kEmpty)
            h = (h + 1) & mask_;
        slots_[h] = slot;
        lines_[h] = line;
    }

    void
    erase(Addr line)
    {
        std::uint32_t h = hash(line);
        while (slots_[h] != kEmpty && lines_[h] != line)
            h = (h + 1) & mask_;
        assert(slots_[h] != kEmpty && "erasing a line not present");
        if (slots_[h] == kEmpty)
            return; // absent: nothing to erase

        // Backward-shift deletion keeps probe chains intact without
        // tombstones.
        std::uint32_t hole = h;
        for (std::uint32_t j = (h + 1) & mask_; slots_[j] != kEmpty;
             j = (j + 1) & mask_) {
            const std::uint32_t ideal = hash(lines_[j]);
            // Move j into the hole iff the hole lies within j's probe
            // path (cyclic distance check).
            if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                lines_[hole] = lines_[j];
                hole = j;
            }
        }
        slots_[hole] = kEmpty;
    }

    /** Drop every mapping (checkpoint restore rebuilds from content). */
    void
    clear()
    {
        for (std::uint32_t &s : slots_)
            s = kEmpty;
    }

    static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  private:
    static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

    std::uint32_t
    hash(Addr line) const
    {
        // splitmix64 finalizer: line addresses are sequential-ish, so
        // mix thoroughly before masking.
        std::uint64_t z = line + 0x9E3779B97F4A7C15ull;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return static_cast<std::uint32_t>((z ^ (z >> 31)) & mask_);
    }

    std::uint32_t mask_ = 0;
    std::vector<std::uint32_t> slots_; ///< MSHR slot or kEmpty
    std::vector<Addr> lines_;          ///< Key for occupied entries
};

} // namespace hermes
