/**
 * @file
 * Set-associative cache array with LRU replacement.
 *
 * Used for both the private L1 data caches and the shared-LLC slices.
 * Every frame stores the line address, the functional payload, a
 * dirty bit and the non-evictable bookkeeping of Section IV-C; beside
 * them it keeps the per-line metadata its owner defines: the L1's
 * state and WiDir UpdateCount (Section III-B2), or the LLC's
 * directory entry (Fig. 3).
 *
 * Replacement honors a per-entry `locked` flag: entries that are mid
 * transaction (or pinned by a wireless RMW) are never chosen as victims.
 */

#ifndef WIDIR_MEM_CACHE_ARRAY_H
#define WIDIR_MEM_CACHE_ARRAY_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/address.h"
#include "mem/line_data.h"
#include "sim/log.h"
#include "sim/types.h"

namespace widir::mem {

using sim::Tick;

/**
 * One cache frame (way) in the array. @p Meta is the per-line metadata
 * the owning controller keeps beside the frame; a default-constructed
 * Meta is the metadata of an empty frame. It is the base, so the owner
 * reaches its fields directly and a frame pointer converts to a Meta
 * pointer, and the flags below pack behind it.
 */
template <typename Meta>
struct CacheFrame : Meta
{
    bool valid = false;
    bool dirty = false;
    /**
     * Entry may not be replaced: set while a transaction on the line is
     * in flight, or while a wireless RMW has the line pinned (IV-C).
     */
    bool locked = false;
    Addr line = sim::kAddrNone; ///< line-aligned address
    Tick lruStamp = 0;          ///< larger == more recently used
    LineData data;
};

/**
 * Set-associative, LRU, single-cycle-lookup cache array model.
 *
 * Host memory follows occupancy. Each set has a 4-byte entry in a
 * dense block index; 0 means the set was never used. The first time a
 * set is used it gets a one-way set block: a tag (kAddrNone for an
 * invalid or never-used way) and a frame pointer (null until the way
 * is first used), 16 bytes. The first time the set needs a second way,
 * its one way moves into a full block of assoc ways and the one-way
 * block goes on a free list for the next newly used set, so a set that
 * never needs a second way stays at 16 bytes. Frames come from a
 * chunked slab, and a way gets its frame the first time pickVictim()
 * reaches it. Frames never move or get freed, so a frame pointer stays
 * valid. Until a set has a block, lookup() misses without
 * touching it and forEach()/occupancy() skip it, so an untouched set
 * costs 4 bytes however large the cache. The victim is always the
 * first invalid way, so never-used ways form a suffix of each set:
 * victim choice and visiting order equal those of an array whose
 * frames were all constructed up front.
 */
template <typename Meta>
class CacheArray
{
  public:
    using Frame = CacheFrame<Meta>;

    /**
     * @param size_bytes    Total capacity.
     * @param assoc         Ways per set.
     * @param index_divisor Line numbers are divided by this before set
     *                      indexing. A distributed LLC slice passes the
     *                      node count so the home-interleaving bits do
     *                      not alias every resident line into one set.
     */
    CacheArray(std::uint64_t size_bytes, std::uint32_t assoc,
               std::uint64_t index_divisor = 1)
        : assoc_(assoc),
          numSets_(static_cast<std::uint32_t>(
              size_bytes / (static_cast<std::uint64_t>(assoc) *
                            kLineBytes))),
          indexDivisor_(index_divisor),
          indexShift_(std::has_single_bit(index_divisor)
                          ? std::countr_zero(index_divisor)
                          : kNoShift),
          blockOf_((numSets_ + kScanGroup - 1) / kScanGroup * kScanGroup,
                   0)
    {
        WIDIR_ASSERT(indexDivisor_ > 0, "index divisor must be positive");
        WIDIR_ASSERT(assoc_ > 0, "associativity must be positive");
        WIDIR_ASSERT(numSets_ > 0, "cache must hold at least one set");
        WIDIR_ASSERT((numSets_ & (numSets_ - 1)) == 0,
                     "number of sets must be a power of two");
    }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }

    /** Find the entry holding @p addr's line, or nullptr. */
    Frame *
    lookup(Addr addr)
    {
        Addr line = lineAlign(addr);
        std::uint32_t block = blockOf_[setOf(line)];
        if (block == 0)
            return nullptr;
        const Way *ways = waysOf(block);
        for (std::uint32_t w = 0, n = waysIn(block); w < n; ++w) {
            if (ways[w].tag == line)
                return ways[w].frame;
        }
        return nullptr;
    }

    const Frame *
    lookup(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->lookup(addr);
    }

    /** Mark @p e most recently used. */
    void
    touch(Frame *e, Tick /* now */)
    {
        e->lruStamp = ++lruCounter_;
    }

    /**
     * Choose a victim frame in @p addr's set: an invalid frame if one
     * exists, else the least recently used unlocked frame. Reaching a
     * never-used way allocates its frame (invalid); reaching the second
     * way of a one-way set first grows it to a full block.
     * @return nullptr if every frame in the set is locked.
     */
    Frame *
    pickVictim(Addr addr)
    {
        std::uint32_t &block = blockOf_[setOf(lineAlign(addr))];
        if (block == 0) {
            block = allocateOneWay();
            ++setsUsed_;
        }
        if ((block & kOneWay) != 0) {
            Way &only = *waysOf(block);
            if (only.frame == nullptr)
                return only.frame = allocateFrame();
            if (only.tag == sim::kAddrNone)
                return only.frame;
            block = grow(block);
        }
        Way *ways = waysOf(block);
        Frame *victim = nullptr;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (ways[w].frame == nullptr)
                return ways[w].frame = allocateFrame();
            Frame *f = ways[w].frame;
            if (ways[w].tag == sim::kAddrNone)
                return f;
            if (f->locked)
                continue;
            if (victim == nullptr || f->lruStamp < victim->lruStamp)
                victim = f;
        }
        return victim;
    }

    /**
     * Install @p line into @p frame (which must belong to line's set),
     * resetting all metadata, the owner's to a default Meta. The caller
     * handles any eviction of the previous occupant first.
     */
    void
    fill(Frame *frame, Addr line, const LineData &data)
    {
        line = lineAlign(line);
        wayOf(line, frame).tag = line;
        static_cast<Meta &>(*frame) = Meta{};
        frame->line = line;
        frame->valid = true;
        frame->dirty = false;
        frame->locked = false;
        frame->data = data;
        frame->lruStamp = ++lruCounter_;
    }

    /** Invalidate @p frame, resetting the owner's metadata too. */
    void
    invalidate(Frame *frame)
    {
        if (frame->valid)
            wayOf(frame->line, frame).tag = sim::kAddrNone;
        static_cast<Meta &>(*frame) = Meta{};
        frame->valid = false;
        frame->line = sim::kAddrNone;
        frame->dirty = false;
        frame->locked = false;
    }

    /**
     * Visit every valid entry in set-then-way order (for checkers,
     * flushes and reports). Only sets with a block are walked.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        forEachValid([&](Frame *frame) { fn(*frame); });
    }

    /** Count of valid entries. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        forEachValid([&](Frame *) { ++n; });
        return n;
    }

    /** Sets that hold a set block of either size (class note). */
    std::size_t initialisedSets() const { return setsUsed_; }

    /** Sets that hold a full block of assoc ways (class note). */
    std::size_t wideSets() const { return fullUsed_; }

    /** Frames handed out by the slab (class note). */
    std::size_t allocatedFrames() const { return framesUsed_; }

    /** The set @p line maps to. */
    std::size_t
    setOf(Addr line) const
    {
        std::uint64_t n = lineNumber(line);
        n = indexShift_ != kNoShift ? n >> indexShift_ : n / indexDivisor_;
        return static_cast<std::size_t>(n & (numSets_ - 1));
    }

  private:
    /** Slab chunk sizes; chunks are never moved or freed. */
    static constexpr std::size_t kChunkFrames = 64;
    static constexpr std::size_t kChunkBlocks = 64;
    /** Block-index flag: the set holds a one-way block. */
    static constexpr std::uint32_t kOneWay = std::uint32_t{1} << 31;
    /** indexShift_ when the divisor is not a power of two. */
    static constexpr int kNoShift = -1;
    /** Sets forEach() tests at once; blockOf_ is padded to a multiple. */
    static constexpr std::size_t kScanGroup = 16;

    /** One way of a set block. */
    struct Way
    {
        Addr tag;          ///< kAddrNone: invalid or never used
        Frame *frame; ///< null until the way is first used
    };

    /** The ways of block-index entry @p block (nonzero). */
    Way *
    waysOf(std::uint32_t block) const
    {
        if ((block & kOneWay) != 0) {
            std::uint32_t i = (block & ~kOneWay) - 1;
            return &oneWay_[i / kChunkBlocks][i % kChunkBlocks];
        }
        return &blocks_[(block - 1) / kChunkBlocks]
                       [((block - 1) % kChunkBlocks) * assoc_];
    }

    /** How many ways block-index entry @p block holds. */
    std::uint32_t
    waysIn(std::uint32_t block) const
    {
        return (block & kOneWay) != 0 ? 1 : assoc_;
    }

    /** The way holding @p frame in @p line's set. */
    Way &
    wayOf(Addr line, const Frame *frame)
    {
        std::uint32_t block = blockOf_[setOf(line)];
        WIDIR_ASSERT(block != 0, "frame's set has no block");
        Way *ways = waysOf(block);
        for (std::uint32_t w = 0, n = waysIn(block); w < n; ++w) {
            if (ways[w].frame == frame)
                return ways[w];
        }
        sim::panic("frame does not belong to the line's set");
    }

    /** A fresh full block (every way never used); its index entry. */
    std::uint32_t
    allocateFullBlock()
    {
        if (fullUsed_ % kChunkBlocks == 0)
            blocks_.push_back(std::make_unique_for_overwrite<Way[]>(
                kChunkBlocks * assoc_));
        std::uint32_t block = static_cast<std::uint32_t>(++fullUsed_);
        std::fill_n(waysOf(block), assoc_, Way{sim::kAddrNone, nullptr});
        return block;
    }

    /**
     * A never-used one-way block, from the free list if it has one;
     * its index entry. A free block's tag links to the next free one.
     */
    std::uint32_t
    allocateOneWay()
    {
        std::uint32_t block = freeOneWay_;
        if (block != 0) {
            freeOneWay_ = static_cast<std::uint32_t>(waysOf(block)->tag);
        } else {
            if (oneWayUsed_ % kChunkBlocks == 0)
                oneWay_.push_back(std::make_unique_for_overwrite<Way[]>(
                    kChunkBlocks));
            block = static_cast<std::uint32_t>(++oneWayUsed_) | kOneWay;
        }
        *waysOf(block) = Way{sim::kAddrNone, nullptr};
        return block;
    }

    /**
     * Move one-way block @p block's way into way 0 of a fresh full
     * block, free the one-way block, and return the full block's
     * index entry.
     */
    std::uint32_t
    grow(std::uint32_t block)
    {
        std::uint32_t full = allocateFullBlock();
        Way *only = waysOf(block);
        *waysOf(full) = *only;
        only->tag = freeOneWay_;
        freeOneWay_ = block;
        return full;
    }

    /** A fresh (invalid) frame from the slab. */
    Frame *
    allocateFrame()
    {
        if (framesUsed_ % kChunkFrames == 0)
            chunks_.push_back(std::make_unique<Frame[]>(kChunkFrames));
        return &chunks_.back()[framesUsed_++ % kChunkFrames];
    }

    /**
     * Call @p fn(frame) for each valid way, sets then ways in order.
     * Runs of never-used sets are skipped a scan group at a time.
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        if (setsUsed_ == 0)
            return;
        for (std::size_t g = 0; g < blockOf_.size(); g += kScanGroup) {
            const std::uint32_t *group = &blockOf_[g];
            std::uint32_t any = 0;
            for (std::size_t i = 0; i < kScanGroup; ++i)
                any |= group[i];
            if (any == 0)
                continue;
            for (std::size_t i = 0; i < kScanGroup; ++i) {
                if (group[i] == 0)
                    continue;
                const Way *ways = waysOf(group[i]);
                for (std::uint32_t w = 0, n = waysIn(group[i]); w < n;
                     ++w) {
                    if (ways[w].tag != sim::kAddrNone)
                        fn(ways[w].frame);
                }
            }
        }
    }

    std::uint32_t assoc_;
    std::uint32_t numSets_;
    std::uint64_t indexDivisor_;
    int indexShift_; ///< log2(indexDivisor_), or kNoShift
    /**
     * Per set: 1-based index of its block, 0 if unused. With kOneWay
     * set the index is into oneWay_, otherwise into blocks_. Entries
     * past numSets_ only pad the last scan group and stay 0.
     */
    std::vector<std::uint32_t> blockOf_;
    /** Full-block slab: kChunkBlocks blocks of assoc_ ways per chunk. */
    std::vector<std::unique_ptr<Way[]>> blocks_;
    std::size_t fullUsed_ = 0;
    /** One-way-block slab: kChunkBlocks blocks of one way per chunk. */
    std::vector<std::unique_ptr<Way[]>> oneWay_;
    std::size_t oneWayUsed_ = 0;
    std::uint32_t freeOneWay_ = 0; ///< free-list head (entry), 0 if empty
    std::size_t setsUsed_ = 0;
    std::vector<std::unique_ptr<Frame[]>> chunks_; ///< frame slab
    std::size_t framesUsed_ = 0;
    std::uint64_t lruCounter_ = 0;
};

} // namespace widir::mem

#endif // WIDIR_MEM_CACHE_ARRAY_H
