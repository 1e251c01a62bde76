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
 * Sets are initialised on first use: construction allocates raw frame
 * storage and a one-bit-per-set "initialised" bitmap, and a set's
 * frames are constructed the first time pickVictim() is asked for a
 * victim there. Until then lookup() misses without touching the
 * storage, and forEach()/occupancy() skip the set. Building a machine
 * therefore costs O(sets / 64) per array instead of a memset of every
 * frame, and the end-of-run walks cost O(sets touched).
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
          frames_(allocateFrames(static_cast<std::size_t>(numSets_) *
                                 assoc_)),
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
        std::uint32_t set = setOf(line);
        if (!initialised(set))
            return nullptr;
        CacheEntry *begin = setBegin(set);
        for (CacheEntry *f = begin; f != begin + assoc_; ++f) {
            if (f->valid && f->line == line)
                return f;
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
     * exists, else the least recently used unlocked frame. The first
     * call for a set constructs its frames (all invalid).
     * @return nullptr if every frame in the set is locked.
     */
    CacheEntry *
    pickVictim(Addr addr)
    {
        std::uint32_t set = setOf(lineAlign(addr));
        CacheEntry *begin = setBegin(set);
        if (!initialised(set)) {
            for (CacheEntry *f = begin; f != begin + assoc_; ++f)
                std::construct_at(f);
            initBits_[set / 64] |= std::uint64_t{1} << (set % 64);
            return begin;
        }
        CacheEntry *victim = nullptr;
        for (CacheEntry *f = begin; f != begin + assoc_; ++f) {
            if (!f->valid)
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
        frame->line = lineAlign(line);
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
        frame->valid = false;
        frame->line = sim::kAddrNone;
        frame->state = 0;
        frame->dirty = false;
        frame->updateCount = 0;
        frame->locked = false;
    }

    /**
     * Visit every valid entry in frame order (for checkers, flushes
     * and reports). Only initialised sets are walked.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        forEachInitialisedSet([&](CacheEntry *begin) {
            for (CacheEntry *f = begin; f != begin + assoc_; ++f) {
                if (f->valid)
                    fn(*f);
            }
        });
    }

    /** Count of valid entries. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        forEachInitialisedSet([&](const CacheEntry *begin) {
            for (const CacheEntry *f = begin; f != begin + assoc_; ++f)
                n += f->valid;
        });
        return n;
    }

    /** Sets whose frames have been constructed (see the class note). */
    std::size_t
    initialisedSets() const
    {
        std::size_t n = 0;
        for (std::uint64_t w : initBits_)
            n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

  private:
    static_assert(std::is_trivially_destructible_v<CacheEntry>,
                  "frames are released without running destructors");

    /** Returns the raw frame storage to the allocator. */
    struct FrameFree
    {
        std::size_t n;
        void
        operator()(CacheEntry *p) const
        {
            std::allocator<CacheEntry>().deallocate(p, n);
        }
    };
    using FramePtr = std::unique_ptr<CacheEntry[], FrameFree>;

    /** Raw storage for @p n frames; no frame is constructed. */
    static FramePtr
    allocateFrames(std::size_t n)
    {
        return FramePtr(std::allocator<CacheEntry>().allocate(n),
                        FrameFree{n});
    }

    std::uint32_t
    setOf(Addr line) const
    {
        return static_cast<std::uint32_t>(
            (lineNumber(line) / indexDivisor_) & (numSets_ - 1));
    }

    /** First frame of @p set (storage only until the set is initialised). */
    CacheEntry *
    setBegin(std::size_t set) const
    {
        return &frames_[set * assoc_];
    }

    bool
    initialised(std::uint32_t set) const
    {
        return (initBits_[set / 64] >> (set % 64)) & 1;
    }

    /** Call @p fn with the first frame of each initialised set, in order. */
    template <typename Fn>
    void
    forEachInitialisedSet(Fn &&fn) const
    {
        for (std::size_t w = 0; w < initBits_.size(); ++w) {
            for (std::uint64_t bits = initBits_[w]; bits != 0;
                 bits &= bits - 1) {
                fn(setBegin(w * 64 + std::countr_zero(bits)));
            }
        }
    }

    std::uint32_t assoc_;
    std::uint32_t numSets_;
    std::uint64_t indexDivisor_;
    /** numSets_ * assoc_ frames; a set's frames are live once its bit is. */
    FramePtr frames_;
    std::vector<std::uint64_t> initBits_; ///< one bit per set
    std::uint64_t lruCounter_ = 0;
};

} // namespace widir::mem

#endif // WIDIR_MEM_CACHE_ARRAY_H
