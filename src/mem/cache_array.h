/**
 * @file
 * Set-associative cache array with LRU replacement.
 *
 * Used for both the private L1 data caches and the shared-LLC slices.
 * The array stores, per line: the protocol state byte (interpreted by
 * the owning controller), a dirty bit, the functional payload, and the
 * WiDir UpdateCount / non-evictable bookkeeping described in Sections
 * III-B2 and IV-C of the paper.
 *
 * Replacement honors a per-entry `locked` flag: entries that are mid
 * transaction (or pinned by a wireless RMW) are never chosen as victims.
 */

#ifndef WIDIR_MEM_CACHE_ARRAY_H
#define WIDIR_MEM_CACHE_ARRAY_H

#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "mem/address.h"
#include "mem/line_data.h"
#include "sim/log.h"
#include "sim/types.h"

namespace widir::mem {

using sim::Tick;

/** One cache frame (way) in the array. */
struct CacheEntry
{
    Addr line = sim::kAddrNone; ///< line-aligned address
    bool valid = false;
    std::uint8_t state = 0;     ///< controller-defined protocol state
    bool dirty = false;
    /**
     * WiDir: wireless updates received since the local core last touched
     * the line (saturating; see UpdateCount, Section III-B2).
     */
    std::uint8_t updateCount = 0;
    /**
     * Entry may not be replaced: set while a transaction on the line is
     * in flight, or while a wireless RMW has the line pinned (IV-C).
     */
    bool locked = false;
    Tick lruStamp = 0;          ///< larger == more recently used
    LineData data;
};

/**
 * Set-associative, LRU, single-cycle-lookup cache array model.
 *
 * Host memory follows occupancy. Each set keeps a tag per way
 * (kAddrNone for an invalid or never-used way) and a frame pointer per
 * way (null until the way is first used); both arrays sit in raw
 * storage and are written the first time a set is used, tracked by a
 * one-bit-per-set "initialised" bitmap. Frames come from a chunked slab
 * that never moves or frees them, and a way gets its frame the first
 * time pickVictim() reaches it. Until then lookup() misses without
 * touching the set, and forEach()/occupancy() skip it. The victim is
 * always the first invalid way, so never-used ways form a suffix of
 * each set: victim choice and visiting order equal those of an array
 * whose frames were all constructed up front.
 */
class CacheArray
{
  public:
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
          tags_(allocateRaw<Addr>(static_cast<std::size_t>(numSets_) *
                                  assoc_)),
          ways_(allocateRaw<CacheEntry *>(
              static_cast<std::size_t>(numSets_) * assoc_)),
          initBits_((numSets_ + 63) / 64, 0)
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
    CacheEntry *
    lookup(Addr addr)
    {
        Addr line = lineAlign(addr);
        std::size_t set = setOf(line);
        if (!initialised(set))
            return nullptr;
        const Addr *tags = tagsOf(set);
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (tags[w] == line)
                return waysOf(set)[w];
        }
        return nullptr;
    }

    const CacheEntry *
    lookup(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->lookup(addr);
    }

    /** Mark @p e most recently used. */
    void
    touch(CacheEntry *e, Tick /* now */)
    {
        e->lruStamp = ++lruCounter_;
    }

    /**
     * Choose a victim frame in @p addr's set: an invalid frame if one
     * exists, else the least recently used unlocked frame. Reaching a
     * never-used way allocates its frame (invalid).
     * @return nullptr if every frame in the set is locked.
     */
    CacheEntry *
    pickVictim(Addr addr)
    {
        std::size_t set = setOf(lineAlign(addr));
        if (!initialised(set))
            initialiseSet(set);
        const Addr *tags = tagsOf(set);
        CacheEntry **ways = waysOf(set);
        CacheEntry *victim = nullptr;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (ways[w] == nullptr)
                return ways[w] = allocateFrame();
            CacheEntry *f = ways[w];
            if (tags[w] == sim::kAddrNone)
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
     * resetting all metadata. The caller handles any eviction of the
     * previous occupant first.
     */
    void
    fill(CacheEntry *frame, Addr line, std::uint8_t state,
         const LineData &data)
    {
        line = lineAlign(line);
        tagsOf(setOf(line))[wayOf(frame, line)] = line;
        frame->line = line;
        frame->valid = true;
        frame->state = state;
        frame->dirty = false;
        frame->updateCount = 0;
        frame->locked = false;
        frame->data = data;
        frame->lruStamp = ++lruCounter_;
    }

    /** Invalidate @p frame. */
    void
    invalidate(CacheEntry *frame)
    {
        if (frame->valid)
            tagsOf(setOf(frame->line))[wayOf(frame, frame->line)] =
                sim::kAddrNone;
        frame->valid = false;
        frame->line = sim::kAddrNone;
        frame->state = 0;
        frame->dirty = false;
        frame->updateCount = 0;
        frame->locked = false;
    }

    /**
     * Visit every valid entry in set-then-way order (for checkers,
     * flushes and reports). Only initialised sets are walked.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        forEachValid([&](std::size_t set, std::uint32_t w) {
            fn(*waysOf(set)[w]);
        });
    }

    /** Count of valid entries. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        forEachValid([&](std::size_t, std::uint32_t) { ++n; });
        return n;
    }

    /** Sets whose tag and way arrays have been written (class note). */
    std::size_t
    initialisedSets() const
    {
        std::size_t n = 0;
        for (std::uint64_t w : initBits_)
            n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

    /** Frames handed out by the slab (class note). */
    std::size_t allocatedFrames() const { return framesUsed_; }

  private:
    /** Slab chunk size (frames); chunks are never moved or freed. */
    static constexpr std::size_t kChunkFrames = 64;

    /** Returns raw storage to the allocator without destroying. */
    template <typename T>
    struct RawFree
    {
        std::size_t n;
        void
        operator()(T *p) const
        {
            std::allocator<T>().deallocate(p, n);
        }
    };
    template <typename T>
    using RawPtr = std::unique_ptr<T[], RawFree<T>>;

    /** Raw storage for @p n trivial objects; nothing is written. */
    template <typename T>
    static RawPtr<T>
    allocateRaw(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>);
        return RawPtr<T>(std::allocator<T>().allocate(n), RawFree<T>{n});
    }

    std::size_t
    setOf(Addr line) const
    {
        return static_cast<std::size_t>(
            (lineNumber(line) / indexDivisor_) & (numSets_ - 1));
    }

    Addr *tagsOf(std::size_t set) const { return &tags_[set * assoc_]; }
    CacheEntry **
    waysOf(std::size_t set) const
    {
        return &ways_[set * assoc_];
    }

    /** Way of @p frame in @p line's set. */
    std::uint32_t
    wayOf(const CacheEntry *frame, Addr line) const
    {
        CacheEntry *const *ways = waysOf(setOf(line));
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (ways[w] == frame)
                return w;
        }
        WIDIR_ASSERT(false, "frame does not belong to the line's set");
        return 0;
    }

    bool
    initialised(std::size_t set) const
    {
        return (initBits_[set / 64] >> (set % 64)) & 1;
    }

    void
    initialiseSet(std::size_t set)
    {
        std::uninitialized_fill_n(tagsOf(set), assoc_, sim::kAddrNone);
        std::uninitialized_fill_n(waysOf(set), assoc_, nullptr);
        initBits_[set / 64] |= std::uint64_t{1} << (set % 64);
    }

    /** A fresh (invalid) frame from the slab. */
    CacheEntry *
    allocateFrame()
    {
        if (framesUsed_ % kChunkFrames == 0)
            chunks_.push_back(std::make_unique<CacheEntry[]>(kChunkFrames));
        return &chunks_.back()[framesUsed_++ % kChunkFrames];
    }

    /** Call @p fn(set, way) for each valid way, sets in order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t i = 0; i < initBits_.size(); ++i) {
            for (std::uint64_t bits = initBits_[i]; bits != 0;
                 bits &= bits - 1) {
                std::size_t set = i * 64 + std::countr_zero(bits);
                const Addr *tags = tagsOf(set);
                for (std::uint32_t w = 0; w < assoc_; ++w) {
                    if (tags[w] != sim::kAddrNone)
                        fn(set, w);
                }
            }
        }
    }

    std::uint32_t assoc_;
    std::uint32_t numSets_;
    std::uint64_t indexDivisor_;
    /** numSets_ * assoc_ each; a set's slots are live once its bit is. */
    RawPtr<Addr> tags_;
    RawPtr<CacheEntry *> ways_;
    std::vector<std::uint64_t> initBits_; ///< one bit per set
    std::vector<std::unique_ptr<CacheEntry[]>> chunks_; ///< frame slab
    std::size_t framesUsed_ = 0;
    std::uint64_t lruCounter_ = 0;
};

} // namespace widir::mem

#endif // WIDIR_MEM_CACHE_ARRAY_H
