/**
 * @file
 * FlatAddrMap: open-addressed address-keyed map for simulator hot
 * state (docs/PERF.md, "Flat hot-state layouts").
 *
 * The protocol's per-line bookkeeping (directory entries, in-flight
 * transactions, the functional memory store) is keyed by line
 * address and hit on nearly every simulated memory operation.
 * std::unordered_map pays a node allocation per entry and a pointer
 * chase per lookup; at 256-1024 tiles that dominates both host time
 * and footprint. FlatAddrMap splits the map into
 *
 *  - a flat open-addressed *index*: a power-of-two array of keys with
 *    a parallel array of value-slot ids, probed linearly, erased with
 *    tombstone-free backward shifting (so probe chains never rot and
 *    lookups stay one cache-friendly linear scan);
 *  - a chunked value *slab*: values live in chunks of 16, 32, 64 and
 *    128 slots, then 256 slots each, that are never moved or freed,
 *    so `Value &` references remain stable across insert/erase/rehash
 *    exactly like std::unordered_map's -- callers hold references
 *    across map mutations. Freed slots are recycled through a free
 *    list.
 *
 * The API is the std::unordered_map subset the controllers use
 * (find/count/try_emplace/operator[]/erase/size/iteration);
 * iterators yield `.first`/`.second` through an arrow proxy.
 * Iteration order is index order, not insertion order -- no simulation
 * path iterates these maps (tests/test_flat_map.cc pins the container
 * semantics instead).
 *
 * Host memory follows occupancy: a new map has no index or slab, the
 * first insert allocates 16 index slots and 16 value slots, the index
 * doubles whenever an insert would pass 3/4 load, and the slab grows
 * by doubling chunks up to 256 slots. A map of n live entries
 * therefore costs O(n) however large the cache geometry behind it,
 * and a map that stays small (a controller's few in-flight
 * transactions) value-initialises 16 slots, not 256. rehashes() counts
 * index allocations: the first insert's and one per doubling.
 */

#ifndef WIDIR_MEM_FLAT_ADDR_MAP_H
#define WIDIR_MEM_FLAT_ADDR_MAP_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "mem/address.h"
#include "sim/log.h"

namespace widir::mem {

template <typename Value>
class FlatAddrMap
{
    /** Vacant index slots hold this key; real keys never do. */
    static constexpr Addr kEmptyKey = sim::kAddrNone;
    /**
     * Value-slab chunks (never moved or freed) hold 16 << c slots for
     * c < kGrowChunks, then kChunkSlots each. Offsetting a slot id by
     * kFirstChunkSlots makes each growing chunk one power-of-two range.
     */
    static constexpr std::size_t kFirstChunkSlots = 16;
    static constexpr std::size_t kGrowChunks = 4;
    static constexpr std::size_t kChunkSlots = 256;
    static constexpr std::size_t kMinCapacity = 16;

  public:
    using key_type = Addr;
    using mapped_type = Value;

    template <bool Const>
    class Iter
    {
        using MapPtr =
            std::conditional_t<Const, const FlatAddrMap *, FlatAddrMap *>;
        using Ref = std::conditional_t<Const, const Value &, Value &>;

      public:
        using value_type = std::pair<const Addr, Ref>;

        Iter() = default;

        value_type operator*() const
        {
            return {map_->keys_[pos_], map_->valueAt(map_->slot_[pos_])};
        }

        /** Arrow proxy so `it->first` / `it->second` work. */
        struct Proxy
        {
            value_type pair;
            value_type *operator->() { return &pair; }
        };
        Proxy operator->() const { return Proxy{**this}; }

        Iter &operator++()
        {
            ++pos_;
            skipVacant();
            return *this;
        }

        bool operator==(const Iter &o) const { return pos_ == o.pos_; }
        bool operator!=(const Iter &o) const { return pos_ != o.pos_; }

      private:
        friend class FlatAddrMap;
        Iter(MapPtr map, std::size_t pos) : map_(map), pos_(pos)
        {
            skipVacant();
        }

        void skipVacant()
        {
            while (pos_ < map_->keys_.size() &&
                   map_->keys_[pos_] == kEmptyKey) {
                ++pos_;
            }
        }

        MapPtr map_ = nullptr;
        std::size_t pos_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatAddrMap() = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    iterator find(Addr key) { return {this, findPos(key)}; }
    const_iterator find(Addr key) const { return {this, findPos(key)}; }
    std::size_t count(Addr key) const
    {
        return findPos(key) != keys_.size() ? 1 : 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, keys_.size()}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, keys_.size()}; }

    template <typename... Args>
    std::pair<iterator, bool>
    try_emplace(Addr key, Args &&...args)
    {
        WIDIR_ASSERT(key != kEmptyKey, "reserved sentinel key");
        if (size_ + 1 > loadLimit(keys_.size()))
            rehash(std::max<std::size_t>(kMinCapacity,
                                         keys_.size() * 2));
        std::size_t pos = bucketOf(key);
        while (keys_[pos] != kEmptyKey) {
            if (keys_[pos] == key)
                return {iterator(this, pos), false};
            pos = (pos + 1) & mask_;
        }
        keys_[pos] = key;
        slot_[pos] = acquireSlot(std::forward<Args>(args)...);
        ++size_;
        return {iterator(this, pos), true};
    }

    Value &operator[](Addr key) { return try_emplace(key).first->second; }

    void
    erase(iterator it)
    {
        WIDIR_ASSERT(it.pos_ < keys_.size() &&
                         keys_[it.pos_] != kEmptyKey,
                     "erasing a vacant slot");
        freeSlots_.push_back(slot_[it.pos_]);
        --size_;
        backshift(it.pos_);
    }

    std::size_t
    erase(Addr key)
    {
        std::size_t pos = findPos(key);
        if (pos == keys_.size())
            return 0;
        erase(iterator(this, pos));
        return 1;
    }

    void
    clear()
    {
        keys_.assign(keys_.size(), kEmptyKey);
        freeSlots_.clear();
        slabUsed_ = 0;
        size_ = 0;
    }

    /** Index allocations: the first insert's plus one per doubling. */
    std::uint64_t rehashes() const { return rehashes_; }

    /** Value slots the slab holds, live or free (class note). */
    std::size_t slabSlots() const { return slabSlots_; }

  private:
    static constexpr std::size_t
    loadLimit(std::size_t cap)
    {
        return cap - cap / 4; // 3/4 max load factor
    }

    /** Fibonacci-style 64-bit mix so dense line numbers spread. */
    std::size_t
    bucketOf(Addr key) const
    {
        std::uint64_t x = key;
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ULL;
        x ^= x >> 33;
        return static_cast<std::size_t>(x) & mask_;
    }

    /** Index position of @p key, or keys_.size() when absent. */
    std::size_t
    findPos(Addr key) const
    {
        if (keys_.empty())
            return 0; // == keys_.size(): the end sentinel
        std::size_t pos = bucketOf(key);
        while (keys_[pos] != kEmptyKey) {
            if (keys_[pos] == key)
                return pos;
            pos = (pos + 1) & mask_;
        }
        return keys_.size();
    }

    Value &
    valueAt(std::uint32_t slot)
    {
        std::size_t t = slot + kFirstChunkSlots;
        if (t < kChunkSlots) {
            std::size_t c = std::bit_width(t) - std::bit_width(
                                                    kFirstChunkSlots);
            return chunks_[c][t - (kFirstChunkSlots << c)];
        }
        return chunks_[t / kChunkSlots + kGrowChunks - 1]
                      [t % kChunkSlots];
    }
    const Value &
    valueAt(std::uint32_t slot) const
    {
        return const_cast<FlatAddrMap *>(this)->valueAt(slot);
    }

    template <typename... Args>
    std::uint32_t
    acquireSlot(Args &&...args)
    {
        std::uint32_t slot;
        if (!freeSlots_.empty()) {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        } else {
            slot = slabUsed_++;
            if (slot == slabSlots_) {
                std::size_t n = chunks_.size() < kGrowChunks
                                    ? kFirstChunkSlots << chunks_.size()
                                    : kChunkSlots;
                chunks_.push_back(std::make_unique<Value[]>(n));
                slabSlots_ += n;
            }
        }
        valueAt(slot) = Value(std::forward<Args>(args)...);
        return slot;
    }

    /**
     * Tombstone-free erase: close the hole at @p hole by shifting back
     * every displaced follower whose probe path crosses it, so lookups
     * keep terminating at the first vacant slot.
     */
    void
    backshift(std::size_t hole)
    {
        std::size_t pos = (hole + 1) & mask_;
        while (keys_[pos] != kEmptyKey) {
            std::size_t home = bucketOf(keys_[pos]);
            // Move pos into the hole iff the hole lies on pos's probe
            // path, i.e. its displacement reaches at least back to it.
            if (((pos - home) & mask_) >= ((pos - hole) & mask_)) {
                keys_[hole] = keys_[pos];
                slot_[hole] = slot_[pos];
                hole = pos;
            }
            pos = (pos + 1) & mask_;
        }
        keys_[hole] = kEmptyKey;
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Addr> old_keys = std::move(keys_);
        std::vector<std::uint32_t> old_slots = std::move(slot_);
        keys_.assign(cap, kEmptyKey);
        slot_.assign(cap, 0);
        mask_ = cap - 1;
        ++rehashes_;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == kEmptyKey)
                continue;
            std::size_t pos = bucketOf(old_keys[i]);
            while (keys_[pos] != kEmptyKey)
                pos = (pos + 1) & mask_;
            keys_[pos] = old_keys[i];
            slot_[pos] = old_slots[i];
        }
    }

    std::vector<Addr> keys_;         ///< open-addressed index: keys
    std::vector<std::uint32_t> slot_; ///< parallel: value-slab slot ids
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    std::uint64_t rehashes_ = 0;

    std::vector<std::unique_ptr<Value[]>> chunks_; ///< stable value slab
    std::vector<std::uint32_t> freeSlots_;
    std::uint32_t slabUsed_ = 0;
    std::size_t slabSlots_ = 0;
};

} // namespace widir::mem

#endif // WIDIR_MEM_FLAT_ADDR_MAP_H
