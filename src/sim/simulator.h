/**
 * @file
 * Simulator: the top-level object that owns the event queue and the
 * root random seed; run(limit) reports whether the queue drained, so
 * callers can treat the limit as a forward-progress watchdog.
 *
 * Components receive a Simulator& at construction, schedule events
 * through it, and derive their private Rng streams from it.
 */

#ifndef WIDIR_SIM_SIMULATOR_H
#define WIDIR_SIM_SIMULATOR_H

#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace widir::sim {

/** Top-level discrete-event simulation driver. */
class Simulator
{
  public:
    /**
     * @param seed Root seed. Every derived Rng stream mixes this with a
     *             caller-chosen stream id.
     */
    explicit Simulator(std::uint64_t seed = 1) : seed_(seed)
    {
        tracer_.setClock(&queue_);
    }

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** The simulator's event queue. */
    EventQueue &queue() { return queue_; }

    /** Current simulated cycle. */
    Tick now() const { return queue_.now(); }

    /** Events executed so far. */
    std::uint64_t executedEvents() const { return queue_.executedEvents(); }

    /** Root seed of this run. */
    std::uint64_t seed() const { return seed_; }

    /**
     * This run's trace hub (disabled by default). Components check
     * `tracer().enabled()` before building records; sinks are attached
     * by the system layer (see src/system/trace_sinks.h).
     */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /**
     * Derive an independent random stream. Stream ids should be stable
     * across runs (e.g. node id, or a small enum) for reproducibility.
     */
    Rng
    makeRng(std::uint64_t stream) const
    {
        return Rng(seed_, stream);
    }

    /** Convenience: schedule @p fn @p delay cycles from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        queue_.schedule(delay, std::forward<F>(fn));
    }

    /** Convenience: schedule @p fn at absolute cycle @p when. */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        queue_.scheduleAt(when, std::forward<F>(fn));
    }

    /**
     * Hot-path schedule: like schedule(), but the callable's captures
     * must fit the event queue's inline buffer. Protocol fast paths
     * (L1 hits, mesh hops, wireless frames, message delivery) use this
     * so a capture that grows past the budget -- and would silently
     * start heap-allocating on every simulated cycle -- breaks the
     * build instead (docs/PERF.md).
     */
    template <typename F>
    void
    scheduleInline(Tick delay, F &&fn)
    {
        static_assert(InlineEvent::fitsInline<F>(),
                      "hot-path event capture exceeds the 48-byte "
                      "inline budget; shrink the capture (pool the "
                      "payload) or use schedule()");
        queue_.schedule(delay, std::forward<F>(fn));
    }

    /** Absolute-time variant of scheduleInline(). */
    template <typename F>
    void
    scheduleAtInline(Tick when, F &&fn)
    {
        static_assert(InlineEvent::fitsInline<F>(),
                      "hot-path event capture exceeds the 48-byte "
                      "inline budget; shrink the capture (pool the "
                      "payload) or use scheduleAt()");
        queue_.scheduleAt(when, std::forward<F>(fn));
    }

    /**
     * Run until the event queue drains or @p limit is reached.
     *
     * A drained queue means the simulated system is quiescent: in a
     * full-system run, all thread programs have completed and all
     * in-flight protocol transactions have settled.
     *
     * @return true if the queue drained within the limit.
     */
    bool
    run(Tick limit = kTickNever)
    {
        // Publish this simulator's tracer as the thread's active one
        // so sim::warn() fired from component code lands in this
        // run's trace; restore afterwards so nested/serial runs on
        // the same thread stay correctly attributed.
        Tracer *prev = Tracer::setThreadActive(&tracer_);
        bool drained = queue_.run(limit);
        Tracer::setThreadActive(prev);
        return drained;
    }

  private:
    EventQueue queue_;
    std::uint64_t seed_;
    Tracer tracer_;
};

} // namespace widir::sim

#endif // WIDIR_SIM_SIMULATOR_H
