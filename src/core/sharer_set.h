/**
 * @file
 * Fixed-width sharer containers for the directory (docs/PERF.md).
 *
 * Dir_3_B keeps at most dirPointers (<= 8 here, 3 in the paper)
 * precise sharer pointers per line before falling back to the bcast
 * bit (Section III-B), and a W->S downgrade collects at most
 * MaxWiredSharers acks -- yet both sets used to be heap-allocated
 * std::vector<NodeId>. SharerPtrs is the drop-in inline replacement:
 * a fixed-capacity array that preserves vector's insertion order and
 * erase semantics exactly, because the order sharers were recorded in
 * is the order invalidations are sent in, and that ordering is
 * visible in the simulated timing (mesh link contention).
 *
 * SharerBits is the companion for the *unordered* node sets that do
 * scale with the machine -- broadcast-invalidation target sets and
 * the coherence checker's holder sets. One bit per tile (up to
 * kMaxNodes = 1024), censused with popcount, iterated in ascending
 * node id order (the order the broadcast loops always used), so a
 * 1024-tile burst costs a 128-byte stack bitset instead of a
 * 1024-entry heap vector.
 */

#ifndef WIDIR_CORE_SHARER_SET_H
#define WIDIR_CORE_SHARER_SET_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "sim/log.h"
#include "sim/types.h"

namespace widir::coherence {

/**
 * Insertion-ordered, fixed-capacity sharer-pointer set. Deliberately
 * mirrors the std::vector<NodeId> subset the directory uses
 * (push_back / erase-by-iterator shift / range-for / copy-assign) so
 * the observable iteration order is bit-for-bit the old one. Ids are
 * stored in 16 bits (every node id is below SharerBits::kMaxNodes),
 * which keeps a DirEntry at 32 bytes.
 */
class SharerPtrs
{
  public:
    /** >= the largest dirPointers any config uses (Table VI: 5). */
    static constexpr std::uint32_t kCapacity = 8;

    /** Stored node id. */
    using Id = std::uint16_t;
    using iterator = Id *;
    using const_iterator = const Id *;

    iterator begin() { return ids_.data(); }
    iterator end() { return ids_.data() + count_; }
    const_iterator begin() const { return ids_.data(); }
    const_iterator end() const { return ids_.data() + count_; }

    std::uint32_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    void clear() { count_ = 0; }

    void
    push_back(sim::NodeId n)
    {
        WIDIR_ASSERT(count_ < kCapacity,
                     "sharer-pointer overflow (dirPointers exceeds "
                     "SharerPtrs::kCapacity)");
        WIDIR_ASSERT(n <= std::numeric_limits<Id>::max(),
                     "node %u does not fit a sharer pointer", n);
        ids_[count_++] = static_cast<Id>(n);
    }

    bool
    contains(sim::NodeId n) const
    {
        return std::find(begin(), end(), n) != end();
    }

    /** Drop @p n if present; the others keep their order. */
    void
    remove(sim::NodeId n)
    {
        iterator it = std::find(begin(), end(), n);
        if (it == end())
            return;
        std::copy(it + 1, end(), it);
        --count_;
    }

  private:
    std::array<Id, kCapacity> ids_{};
    std::uint8_t count_ = 0;
};

/**
 * Fixed-width node bitset: one bit per tile, censused with popcount.
 * Iteration (forEachSet) is ascending node id, matching the order the
 * directory's broadcast loops iterate nodes.
 */
class SharerBits
{
  public:
    /** Widest machine the flat layouts size for (32x32 mesh). */
    static constexpr std::uint32_t kMaxNodes = 1024;

    void
    set(sim::NodeId n)
    {
        WIDIR_ASSERT(n < kMaxNodes, "node %u exceeds SharerBits width",
                     n);
        words_[n >> 6] |= std::uint64_t(1) << (n & 63);
    }

    void
    reset(sim::NodeId n)
    {
        WIDIR_ASSERT(n < kMaxNodes, "node %u exceeds SharerBits width",
                     n);
        words_[n >> 6] &= ~(std::uint64_t(1) << (n & 63));
    }

    bool
    test(sim::NodeId n) const
    {
        WIDIR_ASSERT(n < kMaxNodes, "node %u exceeds SharerBits width",
                     n);
        return (words_[n >> 6] >> (n & 63)) & 1;
    }

    /** Popcount census over the whole set. */
    std::uint32_t
    count() const
    {
        std::uint32_t total = 0;
        for (std::uint64_t w : words_)
            total += static_cast<std::uint32_t>(std::popcount(w));
        return total;
    }

    bool any() const { return count() != 0; }
    bool none() const { return count() == 0; }
    void clear() { words_.fill(0); }

    /** Visit every set bit in ascending node id order. */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::uint32_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t w = words_[wi];
            while (w != 0) {
                std::uint32_t bit =
                    static_cast<std::uint32_t>(std::countr_zero(w));
                fn(static_cast<sim::NodeId>((wi << 6) + bit));
                w &= w - 1;
            }
        }
    }

  private:
    std::array<std::uint64_t, kMaxNodes / 64> words_{};
};

static_assert(SharerBits::kMaxNodes - 1 <=
                  std::numeric_limits<SharerPtrs::Id>::max(),
              "every node id must fit a 16-bit sharer pointer");

} // namespace widir::coherence

#endif // WIDIR_CORE_SHARER_SET_H
