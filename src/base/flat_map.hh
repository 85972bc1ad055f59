/**
 * @file
 * An open-addressed hash map from 64-bit keys to small values.
 *
 * The address plan's lookups (a node's ARP table: IP -> MAC; a switch's
 * static MAC table: MAC -> port) run once per packet on the hot path
 * and are filled once at build time. A linear-probing table kept at most
 * half full answers them in one or two probes of a flat array, where a
 * std::map descends a pointer tree and a sorted vector a binary search.
 */

#ifndef FIRESIM_BASE_FLAT_MAP_HH
#define FIRESIM_BASE_FLAT_MAP_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace firesim
{

template <typename V>
class FlatU64Map
{
  public:
    /** The one key the table cannot hold (it marks an empty slot). */
    static constexpr uint64_t kEmptyKey = ~0ULL;

    /** Insert @p key, or overwrite its value if already present. */
    void
    put(uint64_t key, V value)
    {
        FS_ASSERT(key != kEmptyKey, "FlatU64Map key %#llx is reserved",
                  (unsigned long long)key);
        if (2 * (count + 1) > slots.size())
            rehash(std::max<size_t>(16, 2 * slots.size()));
        Slot &s = slots[probe(key)];
        if (s.key == kEmptyKey) {
            s.key = key;
            ++count;
        }
        s.value = std::move(value);
    }

    /** The value stored for @p key, or nullptr. */
    const V *
    find(uint64_t key) const
    {
        if (slots.empty())
            return nullptr;
        const Slot &s = slots[probe(key)];
        return s.key == key ? &s.value : nullptr;
    }

    size_t size() const { return count; }

    void
    clear()
    {
        slots.clear();
        count = 0;
    }

    /** Every entry in ascending key order (canonical for snapshots). */
    std::vector<std::pair<uint64_t, V>>
    sorted() const
    {
        std::vector<std::pair<uint64_t, V>> out;
        out.reserve(count);
        for (const Slot &s : slots)
            if (s.key != kEmptyKey)
                out.emplace_back(s.key, s.value);
        std::sort(out.begin(), out.end()); // keys are unique
        return out;
    }

  private:
    struct Slot
    {
        uint64_t key = kEmptyKey;
        V value{};
    };

    /** The slot holding @p key, or the empty slot where it would go.
     *  Fibonacci hashing spreads the plan's consecutive addresses. */
    size_t
    probe(uint64_t key) const
    {
        size_t mask = slots.size() - 1;
        size_t i = static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                       (64 - shift));
        while (slots[i].key != key && slots[i].key != kEmptyKey)
            i = (i + 1) & mask;
        return i;
    }

    void
    rehash(size_t capacity)
    {
        std::vector<Slot> old = std::move(slots);
        slots.assign(capacity, Slot{});
        shift = 0;
        while ((size_t{1} << shift) < capacity)
            ++shift;
        for (Slot &s : old)
            if (s.key != kEmptyKey)
                slots[probe(s.key)] = std::move(s);
    }

    std::vector<Slot> slots; //!< power-of-two length, at most half full
    unsigned shift = 0;      //!< log2(slots.size())
    size_t count = 0;
};

} // namespace firesim

#endif // FIRESIM_BASE_FLAT_MAP_HH
