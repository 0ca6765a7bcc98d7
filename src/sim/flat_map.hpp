/**
 * @file
 * Open-addressed hash map keyed on 64-bit integers.
 *
 * One flat slot array, linear probing, backward-shift deletion, and
 * Fibonacci hashing: the home slot is the top log2(capacity) bits of
 * key × 2^64/φ. Taking the top bits matters for the simulator's
 * composite keys (`pid << 40 | vpn`, leaf indices, vpns): their low
 * bits repeat across processes, and a mask of the product's low bits
 * would pile them into the same few slots.
 *
 * A lookup is one multiply and a short contiguous scan; nothing is
 * allocated per entry. Erase moves later entries of the probe chain
 * back into the hole instead of leaving a tombstone, so the load is
 * always just the live keys: a map churning at a steady size never
 * rebuilds, and its probe lengths do not drift with the history of
 * erases. The largest key value is reserved as the empty marker;
 * every other key is legal.
 *
 * Iteration visits live slots in slot order, which depends on the
 * hash and the capacity. Callers whose results must not depend on it
 * (frame reuse order, audit output) sort the keys first.
 */

#ifndef UTLB_SIM_FLAT_MAP_HPP
#define UTLB_SIM_FLAT_MAP_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "check/check.hpp"

namespace utlb::sim {

template <class V>
class FlatMap
{
  public:
    /** Largest key a map can hold (the one above it is the marker). */
    static constexpr std::uint64_t kMaxKey = ~std::uint64_t{0} - 1;

    /** One slot; live when key <= kMaxKey. */
    struct Slot {
        std::uint64_t key = kEmpty;
        V value{};
    };

    FlatMap() = default;

    /** Number of live keys. */
    std::size_t size() const { return live; }
    bool empty() const { return live == 0; }

    /** Slot count (0 until the first insert or reserve). */
    std::size_t capacity() const { return slots.size(); }

    /** The value of @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    const V *
    find(std::uint64_t key) const
    {
        if (slots.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            const Slot &s = slots[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmpty)
                return nullptr;
        }
    }

    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    /**
     * Locate @p key, inserting a value-initialized entry if absent.
     * @return the value and whether it was inserted. Pointers into
     *         the map stay valid until the next insert that grows it
     *         or the next erase.
     */
    std::pair<V *, bool>
    tryEmplace(std::uint64_t key)
    {
        UTLB_ASSERT(key <= kMaxKey, "FlatMap key %llx is reserved",
                    static_cast<unsigned long long>(key));
        if (V *v = find(key))
            return {v, false};
        if ((live + 1) * 4 > slots.size() * 3)
            rehash(std::max<std::size_t>(16, slots.size() * 2));
        return {&place(key), true};
    }

    V &operator[](std::uint64_t key) { return *tryEmplace(key).first; }

    /**
     * Remove @p key. Every later entry of its probe chain whose home
     * lies at or before the hole moves back into it, so lookups never
     * need a tombstone to keep scanning. @return true if it was
     * present.
     */
    bool
    erase(std::uint64_t key)
    {
        if (slots.empty())
            return false;
        std::size_t hole = home(key);
        while (slots[hole].key != key) {
            if (slots[hole].key == kEmpty)
                return false;
            hole = next(hole);
        }
        std::size_t mask = slots.size() - 1;
        for (std::size_t j = next(hole); slots[j].key != kEmpty;
             j = next(j)) {
            // The entry at j may fill the hole when the hole lies on
            // its probe path, i.e. no further from j than its home.
            if (((j - home(slots[j].key)) & mask) >= ((j - hole) & mask)) {
                slots[hole] = std::move(slots[j]);
                hole = j;
            }
        }
        slots[hole].key = kEmpty;
        slots[hole].value = V{};
        --live;
        return true;
    }

    /** Size the table so @p n keys fit without another rehash. */
    void
    reserve(std::size_t n)
    {
        if (n * 4 <= slots.size() * 3)
            return;
        std::size_t cap = 16;
        while (n * 4 > cap * 3)
            cap *= 2;
        rehash(cap);
    }

    /** Forward iterator over live slots (key, value). */
    template <class S>
    class Iter
    {
      public:
        Iter(S *p, S *e) : cur(p), end(e) { skip(); }
        S &operator*() const { return *cur; }
        S *operator->() const { return cur; }
        Iter &
        operator++()
        {
            ++cur;
            skip();
            return *this;
        }
        bool operator==(const Iter &o) const { return cur == o.cur; }

      private:
        void
        skip()
        {
            while (cur != end && cur->key > kMaxKey)
                ++cur;
        }
        S *cur;
        S *end;
    };

    Iter<Slot> begin() { return {slots.data(), slots.data() + slots.size()}; }
    Iter<Slot> end()
    {
        Slot *e = slots.data() + slots.size();
        return {e, e};
    }
    Iter<const Slot> begin() const
    {
        return {slots.data(), slots.data() + slots.size()};
    }
    Iter<const Slot> end() const
    {
        const Slot *e = slots.data() + slots.size();
        return {e, e};
    }

  private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull)
                                        >> shift);
    }

    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (slots.size() - 1);
    }

    /** Claim the first free slot on @p key's probe path. The caller
     *  has checked @p key is absent and that the load allows it. */
    V &
    place(std::uint64_t key)
    {
        std::size_t i = home(key);
        while (slots[i].key != kEmpty)
            i = next(i);
        slots[i].key = key;
        ++live;
        return slots[i].value;
    }

    /** Rebuild with @p cap slots (a power of two). */
    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old(cap);
        old.swap(slots);
        shift = 64 - static_cast<unsigned>(std::countr_zero(cap));
        live = 0;
        for (Slot &s : old) {
            if (s.key != kEmpty)
                place(s.key) = std::move(s.value);
        }
    }

    std::vector<Slot> slots;
    unsigned shift = 64;
    std::size_t live = 0;
};

} // namespace utlb::sim

#endif // UTLB_SIM_FLAT_MAP_HPP
