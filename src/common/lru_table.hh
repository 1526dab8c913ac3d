#pragma once

/**
 * @file
 * Fully-associative table of tagged slots with exact LRU replacement:
 * the shape of every small page or region table the models keep
 * (POPET's page buffer, Pythia's page contexts, SPP's signature table,
 * Bingo's accumulation table, SMS's active generation table, the
 * streamer's page table and MLOP's zone map).
 *
 * A tag finds its slot through an AddrIndex, and the valid slots sit
 * in an intrusive recency list (head = least recently used), so hits
 * and victims cost O(1). The caller stamps every insert and touch with
 * a strictly increasing value (its access clock), so list order is
 * stamp order, and keeps its payload in the table's slots.
 *
 * The victim is exactly the slot a linear scan for "the last invalid
 * slot, else the first slot of minimum stamp" picks, because:
 *  - invalid slots are always slots [0, invalidSlots()): a new or
 *    cleared table is all invalid, and an insert takes the highest
 *    invalid slot;
 *  - valid slots hold unique stamps, so the first minimum is the only
 *    one: the list head.
 * An invalidated slot keeps its tag, stamp and payload until it is
 * reused, because checkpoints write every slot. restore() rebuilds the
 * index and the list from per-slot state and rejects any state the
 * table cannot reach.
 */

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/addr_index.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace hermes
{

/** One slot as a checkpoint holds it (LruTable::restore). */
struct LruSlotState
{
    Addr tag = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
};

template <typename T>
class LruTable
{
  public:
    static constexpr std::uint32_t kNotFound = AddrIndex::kNotFound;

    explicit LruTable(std::uint32_t slots)
        : slots_(slots), index_(slots), invalid_(slots)
    {
        assert(slots > 0);
    }

    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    std::uint32_t invalidSlots() const { return invalid_; }
    bool valid(std::uint32_t slot) const { return slot >= invalid_; }
    Addr tag(std::uint32_t slot) const { return slots_[slot].tag; }
    std::uint64_t stamp(std::uint32_t s) const { return slots_[s].stamp; }
    T &operator[](std::uint32_t slot) { return slots_[slot].value; }
    const T &operator[](std::uint32_t s) const { return slots_[s].value; }

    /** Slot holding @p tag, or kNotFound. */
    std::uint32_t find(Addr tag) const { return index_.find(tag); }

    /**
     * The payload of @p tag's slot, made the most recently used and
     * stamped @p stamp; nullptr when @p tag is absent.
     */
    T *
    touch(Addr tag, std::uint64_t stamp)
    {
        const std::uint32_t slot = index_.find(tag);
        if (slot == kNotFound)
            return nullptr;
        assert(stamp > slots_[tail_].stamp && "stamps must increase");
        slots_[slot].stamp = stamp;
        if (slot != tail_) {
            unlink(slot);
            append(slot);
        }
        return &slots_[slot].value;
    }

    /** The slot the next insert takes. */
    std::uint32_t
    victim() const
    {
        return invalid_ > 0 ? invalid_ - 1 : head_;
    }

    /**
     * Give absent @p tag the victim slot as the most recently used,
     * stamped @p stamp, and return its payload reset to T{}. A valid
     * victim's tag leaves the table.
     */
    T &
    insert(Addr tag, std::uint64_t stamp)
    {
        assert(index_.find(tag) == kNotFound);
        assert((tail_ == kNil || stamp > slots_[tail_].stamp) &&
               "stamps must increase");
        const std::uint32_t slot = victim();
        if (invalid_ > 0) {
            --invalid_;
        } else {
            unlink(slot);
            index_.erase(slots_[slot].tag);
        }
        Slot &s = slots_[slot];
        s.tag = tag;
        s.stamp = stamp;
        s.value = T{};
        index_.insert(tag, slot);
        append(slot);
        return s.value;
    }

    /** Invalidate every slot (tags, stamps and payloads stay). */
    void
    clear()
    {
        invalid_ = size();
        index_.clear();
        head_ = tail_ = kNil;
    }

    /**
     * Load every slot's tag and stamp from @p saved and rebuild the
     * index and the recency list. Throws StateError, naming @p what,
     * unless the state is one the table can reach: one entry per slot,
     * invalid slots below every valid one, and valid slots with
     * distinct tags and distinct stamps no later than @p clock (the
     * caller's last stamp, so later stamps stay larger).
     */
    void
    restore(const std::vector<LruSlotState> &saved, std::uint64_t clock,
            const std::string &what)
    {
        if (saved.size() != slots_.size())
            throw StateError(what + " size mismatch");
        std::uint32_t invalid = 0;
        while (invalid < size() && !saved[invalid].valid)
            ++invalid;
        index_.clear();
        std::vector<std::uint32_t> by_age;
        for (std::uint32_t i = 0; i < size(); ++i) {
            slots_[i].tag = saved[i].tag;
            slots_[i].stamp = saved[i].stamp;
            if (i < invalid)
                continue;
            if (!saved[i].valid)
                throw StateError(what + ": invalid slot above a valid one");
            if (saved[i].stamp > clock)
                throw StateError(what + ": stamp past the clock");
            if (index_.find(saved[i].tag) != kNotFound)
                throw StateError(what + ": two valid slots hold one tag");
            index_.insert(saved[i].tag, i);
            by_age.push_back(i);
        }
        std::sort(by_age.begin(), by_age.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return slots_[a].stamp < slots_[b].stamp;
                  });
        head_ = tail_ = kNil;
        for (const std::uint32_t slot : by_age) {
            if (tail_ != kNil && slots_[tail_].stamp == slots_[slot].stamp)
                throw StateError(what + ": two valid slots hold one stamp");
            append(slot);
        }
        invalid_ = invalid;
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Slot
    {
        Addr tag = 0;
        std::uint64_t stamp = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        T value{};
    };

    void
    unlink(std::uint32_t slot)
    {
        const Slot &s = slots_[slot];
        (s.prev != kNil ? slots_[s.prev].next : head_) = s.next;
        (s.next != kNil ? slots_[s.next].prev : tail_) = s.prev;
    }

    void
    append(std::uint32_t slot)
    {
        slots_[slot].prev = tail_;
        slots_[slot].next = kNil;
        (tail_ != kNil ? slots_[tail_].next : head_) = slot;
        tail_ = slot;
    }

    std::vector<Slot> slots_;
    AddrIndex index_;
    std::uint32_t invalid_;
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;
};

} // namespace hermes
