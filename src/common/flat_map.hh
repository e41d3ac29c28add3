/**
 * @file
 * Open-addressing hash map for the simulator's hot metadata tables.
 *
 * The secure-memory engine performs several map lookups per simulated
 * memory access (architectural counters, tree nodes, HMAC blocks,
 * NVM backing store). std::unordered_map's node-per-entry layout
 * makes each of those a pointer chase plus an allocation on insert;
 * FlatMap probes a flat array instead.
 *
 * Design points:
 *  - power-of-two capacity, linear probing, max load factor 1/2;
 *  - slots hold only the key and a 32-bit index into a dense value
 *    array (an index sentinel marks an empty slot). Probes touch only
 *    the slot arrays (8 keys per cache line) and a hit reads one
 *    value line, as with a value per slot; but the mapped values here
 *    are large (64 B blocks, counter structs) and at most half the
 *    slots are live, so storing values densely instead of one per
 *    slot cuts a map's resident memory by a third or more. That
 *    matters because these maps hold most of a simulated System's
 *    heap and the sweep runs one System per worker at a time.
 *    The dense array is reserved to the max-load size at each rehash,
 *    so values move only on rehash and on erase (which moves the last
 *    value into the gap);
 *  - backward-shift deletion (no tombstones, so probe chains never
 *    degrade);
 *  - a SplitMix64-style finalizer as the default hasher, because the
 *    keys are block-aligned addresses whose low bits are constant —
 *    identity hashing (libstdc++'s std::hash) would collide entire
 *    regions onto a few buckets;
 *  - iteration in slot order, which is a deterministic function of
 *    the insertion history — reruns of a deterministic simulation
 *    visit entries in the same order on every platform. Iterators
 *    dereference to a {first, second} reference proxy (there is no
 *    std::pair in memory to point at).
 *
 * Only the operations the simulator needs are provided (find, [],
 * try_emplace, erase, clear, iteration, size); it is not a drop-in
 * std::unordered_map.
 */

#ifndef AMNT_COMMON_FLAT_MAP_HH
#define AMNT_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace amnt
{

/** Mixes all key bits; good enough as a hash for 64-bit keys. */
struct U64Mix
{
    std::uint64_t
    operator()(std::uint64_t x) const
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }
};

/**
 * Open-addressing map from an integer key to @p V.
 * @tparam K Key type (an unsigned integer type).
 * @tparam V Mapped type; value-initialized by operator[]/try_emplace.
 * @tparam Hash Hasher; must mix low bits (see U64Mix).
 */
template <typename K, typename V, typename Hash = U64Mix>
class FlatMap
{
  public:
    using value_type = std::pair<K, V>;

    FlatMap() = default;

    /**
     * Reference view of one entry. Converts to pair<K, V> so ranges
     * of entries can be materialized (std::vector<value_type>(begin,
     * end)).
     */
    template <typename ValueT>
    struct Ref
    {
        const K &first;
        ValueT &second;

        operator value_type() const { return {first, second}; }
    };

    /** Iterator over occupied slots; dereferences to a Ref proxy. */
    template <typename MapT, typename ValueT>
    class Iter
    {
      public:
        // Dereferencing yields a proxy, not a true reference, so
        // this models an input iterator (enough for range-for and
        // range construction).
        using iterator_category = std::input_iterator_tag;
        using value_type = FlatMap::value_type;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = Ref<ValueT>;

        Iter(MapT *map, std::size_t slot) : map_(map), slot_(slot)
        {
            skipEmpty();
        }

        Ref<ValueT>
        operator*() const
        {
            return {map_->keys_[slot_],
                    map_->values_[map_->index_[slot_]]};
        }

        /** Keeps the proxy alive for the full it->second expression. */
        struct Arrow
        {
            Ref<ValueT> ref;
            Ref<ValueT> *operator->() { return &ref; }
        };

        Arrow operator->() const { return Arrow{**this}; }

        Iter &
        operator++()
        {
            ++slot_;
            skipEmpty();
            return *this;
        }

        bool
        operator==(const Iter &o) const
        {
            return slot_ == o.slot_;
        }

      private:
        friend class FlatMap;

        void
        skipEmpty()
        {
            while (slot_ < map_->keys_.size() &&
                   map_->index_[slot_] == kEmpty)
                ++slot_;
        }

        MapT *map_;
        std::size_t slot_;
    };

    using iterator = Iter<FlatMap, V>;
    using const_iterator = Iter<const FlatMap, const V>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, keys_.size()}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, keys_.size()}; }

    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }

    void
    clear()
    {
        keys_.clear();
        index_.clear();
        values_.clear();
        slotOf_.clear();
    }

    iterator
    find(const K &key)
    {
        const std::size_t slot = findSlot(key);
        return {this, slot == kNone ? keys_.size() : slot};
    }

    const_iterator
    find(const K &key) const
    {
        const std::size_t slot = findSlot(key);
        return {this, slot == kNone ? keys_.size() : slot};
    }

    bool contains(const K &key) const { return findSlot(key) != kNone; }

    /**
     * Insert a value-initialized entry for @p key if absent.
     * References to values stay valid until the next insert that
     * grows the table or the next erase.
     * @return {iterator to the entry, true iff it was inserted}.
     */
    std::pair<iterator, bool>
    try_emplace(const K &key)
    {
        reserveOne();
        const std::size_t slot = probeFor(key);
        if (index_[slot] != kEmpty)
            return {iterator{this, slot}, false};
        keys_[slot] = key;
        index_[slot] = static_cast<std::uint32_t>(values_.size());
        values_.emplace_back();
        slotOf_.push_back(static_cast<std::uint32_t>(slot));
        return {iterator{this, slot}, true};
    }

    V &
    operator[](const K &key)
    {
        return values_[index_[try_emplace(key).first.slot_]];
    }

    /** Remove @p key; returns the number of entries removed (0/1). */
    std::size_t
    erase(const K &key)
    {
        const std::size_t slot = findSlot(key);
        if (slot == kNone)
            return 0;
        const std::uint32_t gone = index_[slot];
        // Backward-shift deletion: pull every displaced follower of
        // the probe chain one slot toward its home bucket.
        const std::size_t mask = keys_.size() - 1;
        std::size_t hole = slot;
        std::size_t next = (hole + 1) & mask;
        while (index_[next] != kEmpty) {
            const std::size_t home =
                static_cast<std::size_t>(Hash{}(keys_[next])) & mask;
            // The entry may move iff the hole lies within its probe
            // path, i.e. between its home slot and its current slot.
            const std::size_t dist_home_next = (next - home) & mask;
            const std::size_t dist_home_hole = (hole - home) & mask;
            if (dist_home_hole <= dist_home_next) {
                keys_[hole] = keys_[next];
                index_[hole] = index_[next];
                slotOf_[index_[hole]] = static_cast<std::uint32_t>(hole);
                hole = next;
            }
            next = (next + 1) & mask;
        }
        index_[hole] = kEmpty;

        // Keep the values dense: the last one fills the gap.
        const std::uint32_t last =
            static_cast<std::uint32_t>(values_.size() - 1);
        if (gone != last) {
            values_[gone] = std::move(values_[last]);
            slotOf_[gone] = slotOf_[last];
            index_[slotOf_[gone]] = gone;
        }
        values_.pop_back();
        slotOf_.pop_back();
        return 1;
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    /** Slot of @p key, or kNone; capacity may be zero. */
    std::size_t
    findSlot(const K &key) const
    {
        if (keys_.empty())
            return kNone;
        const std::size_t mask = keys_.size() - 1;
        std::size_t slot = static_cast<std::size_t>(Hash{}(key)) & mask;
        while (index_[slot] != kEmpty) {
            if (keys_[slot] == key)
                return slot;
            slot = (slot + 1) & mask;
        }
        return kNone;
    }

    /** First slot for @p key: its entry, or the empty slot to use. */
    std::size_t
    probeFor(const K &key) const
    {
        const std::size_t mask = keys_.size() - 1;
        std::size_t slot = static_cast<std::size_t>(Hash{}(key)) & mask;
        while (index_[slot] != kEmpty && keys_[slot] != key)
            slot = (slot + 1) & mask;
        return slot;
    }

    /**
     * Grow so one more entry keeps the load factor at most 1/2, and
     * reserve the dense arrays to that load so inserts up to the next
     * growth never reallocate them.
     */
    void
    reserveOne()
    {
        if (keys_.empty()) {
            keys_.resize(kMinCapacity);
            index_.assign(kMinCapacity, kEmpty);
            values_.reserve(kMinCapacity / 2);
            slotOf_.reserve(kMinCapacity / 2);
            return;
        }
        if ((size() + 1) * 2 <= keys_.size())
            return;
        const std::size_t capacity = keys_.size() * 2;
        // Slot numbers and value indices must fit the 32-bit fields.
        if (capacity > kEmpty)
            throw std::length_error("FlatMap slots overflow 32 bits");
        std::vector<K> old_keys(capacity);
        std::vector<std::uint32_t> old_index(capacity, kEmpty);
        old_keys.swap(keys_);
        old_index.swap(index_);
        values_.reserve(capacity / 2);
        slotOf_.reserve(capacity / 2);
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_index[i] == kEmpty)
                continue;
            const std::size_t slot = probeFor(old_keys[i]);
            keys_[slot] = old_keys[i];
            index_[slot] = old_index[i];
            slotOf_[old_index[i]] = static_cast<std::uint32_t>(slot);
        }
    }

    /** Per slot: the key, and its value's index or kEmpty. */
    std::vector<K> keys_;
    std::vector<std::uint32_t> index_;
    /** Dense, one per entry: the value and the slot that owns it. */
    std::vector<V> values_;
    std::vector<std::uint32_t> slotOf_;
};

} // namespace amnt

#endif // AMNT_COMMON_FLAT_MAP_HH
