/**
 * @file
 * InlineEvent: a small-buffer-optimized, move-only callable for the
 * discrete-event hot path.
 *
 * Every simulated cycle drains through EventQueue, and with
 * std::function every scheduled closure whose captures exceed the
 * implementation's tiny inline buffer (16 bytes on libstdc++) costs a
 * heap allocation plus a cold pointer chase at dispatch. InlineEvent
 * stores captures up to kInlineCapacity (48 bytes) directly inside the
 * event-queue entry, so the dominant schedules -- a `this` pointer plus
 * a few scalars, a pooled message index, a 40-byte wireless frame --
 * never allocate. Callables that do not fit fall back to a single heap
 * allocation (and bump a process-wide counter so tests and benchmarks
 * can assert the hot path stays allocation-free).
 *
 * Hot-path call sites that must stay inline should go through
 * Simulator::scheduleInline / scheduleAtInline, which static_assert the
 * capture budget at compile time.
 *
 * An event is relocated each time the queue's storage moves it (into
 * a wheel slot, out of it to run, on a vector regrowth). A trivially
 * copyable inline callable, like a heap fallback's pointer, relocates
 * by copying the whole 48-byte buffer: its vtable leaves `relocate`
 * (and, when nothing needs destroying, `destroy`) null, so the common
 * move is a fixed-size memcpy rather than an indirect call.
 */

#ifndef WIDIR_SIM_INLINE_EVENT_H
#define WIDIR_SIM_INLINE_EVENT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace widir::sim {

/** Move-only `void()` callable with 48 bytes of inline storage. */
class InlineEvent
{
  public:
    /** Inline capture budget, in bytes. */
    static constexpr std::size_t kInlineCapacity = 48;

    /** True when a decayed callable takes the no-allocation path. */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        using D = std::decay_t<F>;
        return sizeof(D) <= kInlineCapacity &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    InlineEvent() noexcept = default;
    InlineEvent(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineEvent> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InlineEvent(F &&fn)
    {
        using D = std::decay_t<F>;
        if constexpr (fitsInline<F>()) {
            ::new (static_cast<void *>(storage_)) D(std::forward<F>(fn));
            vt_ = &inlineVTable<D>;
        } else {
            ptr() = new D(std::forward<F>(fn));
            vt_ = &heapVTable<D>;
            heapFallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    InlineEvent(InlineEvent &&o) noexcept { take(o); }

    InlineEvent &
    operator=(InlineEvent &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    InlineEvent(const InlineEvent &) = delete;
    InlineEvent &operator=(const InlineEvent &) = delete;

    ~InlineEvent() { reset(); }

    explicit operator bool() const noexcept { return vt_ != nullptr; }

    /** Invoke the callable (must be non-empty). */
    void
    operator()()
    {
        vt_->invoke(storage_);
    }

    /** True when the stored callable lives in the inline buffer. */
    bool
    isInline() const noexcept
    {
        return vt_ != nullptr && vt_->isInline;
    }

    /**
     * Process-wide count of callables that were too large for the
     * inline buffer and heap-allocated instead. Benchmarks and tests
     * snapshot this around a run to verify hot paths stay inline.
     */
    static std::uint64_t
    heapFallbacks() noexcept
    {
        return heapFallbacks_.load(std::memory_order_relaxed);
    }

  private:
    struct VTable
    {
        void (*invoke)(void *);
        /** Move-construct dst from src and destroy src; null: memcpy. */
        void (*relocate)(void *dst, void *src) noexcept;
        /** Null when there is nothing to destroy. */
        void (*destroy)(void *) noexcept;
        bool isInline;
    };

    template <typename D>
    static constexpr bool kTrivial = std::is_trivially_copyable_v<D>;

    template <typename D>
    static constexpr VTable inlineVTable = {
        [](void *s) { (*std::launder(reinterpret_cast<D *>(s)))(); },
        kTrivial<D> ? nullptr
                    : +[](void *dst, void *src) noexcept {
                          D *from = std::launder(reinterpret_cast<D *>(src));
                          ::new (dst) D(std::move(*from));
                          from->~D();
                      },
        kTrivial<D> ? nullptr
                    : +[](void *s) noexcept {
                          std::launder(reinterpret_cast<D *>(s))->~D();
                      },
        true,
    };

    /** The buffer holds only the pointer, so relocation is a memcpy. */
    template <typename D>
    static constexpr VTable heapVTable = {
        [](void *s) { (**static_cast<D **>(s))(); },
        nullptr,
        [](void *s) noexcept { delete *static_cast<D **>(s); },
        false,
    };

    void *&ptr() { return *reinterpret_cast<void **>(storage_); }

    /** Move @p o's callable into this (empty) event; @p o ends empty. */
    void
    take(InlineEvent &o) noexcept
    {
        vt_ = o.vt_;
        if (!vt_)
            return;
        if (vt_->relocate)
            vt_->relocate(storage_, o.storage_);
        else
            std::memcpy(storage_, o.storage_, kInlineCapacity);
        o.vt_ = nullptr;
    }

    void
    reset() noexcept
    {
        if (vt_) {
            if (vt_->destroy)
                vt_->destroy(storage_);
            vt_ = nullptr;
        }
    }

    const VTable *vt_ = nullptr;
    alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];

    inline static std::atomic<std::uint64_t> heapFallbacks_{0};
};

} // namespace widir::sim

#endif // WIDIR_SIM_INLINE_EVENT_H
