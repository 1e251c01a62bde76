/**
 * @file
 * Tracer: low-overhead, per-simulator structured tracing.
 *
 * Components emit typed TraceRecords (message send/recv, L1/directory
 * state transitions, wireless arbitration wins/backoffs, MSHR
 * alloc/retire, core op retirement) through their Simulator's Tracer.
 * The hot-path contract is:
 *
 *   sim::Tracer &tr = sim_.tracer();
 *   if (sim::kTraceCompiled && tr.enabled()) {
 *       sim::TraceRecord r;
 *       ... fill ...
 *       tr.emit(r);
 *   }
 *
 * When tracing is disabled (the default) the cost per instrumentation
 * site is one predicted-not-taken branch on a plain bool; no record is
 * constructed, no allocation happens, and no RNG stream is touched, so
 * traced-off runs are bit-identical to builds that predate tracing.
 * Defining WIDIR_TRACE_DISABLED at compile time turns kTraceCompiled
 * into a constant false and lets the compiler delete the sites
 * entirely.
 *
 * Records carry both raw enum values (for machine checking, see
 * sys::checkTraceLegality) and static name strings (for exporters, see
 * src/system/trace_sinks.h). The sim layer deliberately knows nothing
 * about the core-layer enums: components pass their own values and
 * name strings, keeping the dependency arrow core -> sim.
 *
 * Thread-safety: a Tracer belongs to one Simulator and is only touched
 * from the thread running that simulation, exactly like every other
 * per-simulator object — safe under a parallel sys::SweepRunner
 * because each worker owns its simulator outright. The only
 * cross-simulator hook is the *thread-local* active-tracer pointer
 * (set by Simulator::run) that routes sim::warn() records into the
 * trace of whichever simulation this thread is currently running.
 *
 * Schema: widir-trace-v1 — field meanings per kind are documented in
 * docs/TRACING.md; the legal transition tables the checker enforces
 * are in docs/PROTOCOL.md.
 */

#ifndef WIDIR_SIM_TRACE_H
#define WIDIR_SIM_TRACE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.h"

namespace widir::sim {

class EventQueue;

/** Compile-time kill switch; see file comment. */
inline constexpr bool kTraceCompiled =
#ifdef WIDIR_TRACE_DISABLED
    false;
#else
    true;
#endif

/** Which component emitted a record (Chrome export: the "process"). */
enum class TraceComponent : std::uint8_t {
    L1,          ///< core::L1Controller
    Directory,   ///< core::DirectoryController
    DataChannel, ///< wireless::DataChannel (BRS MAC)
    ToneChannel, ///< wireless::ToneChannel (wired-OR ToneAck)
    Mesh,        ///< noc::Mesh (wired 2D mesh)
    Core,        ///< cpu::Core (ROB retirement)
    Log,         ///< sim::warn() routed into the trace
};

const char *traceComponentName(TraceComponent c);

/** What happened. One enumerator per instrumented event class. */
enum class TraceKind : std::uint8_t {
    MsgSend,        ///< wired coherence message enters the mesh
    MsgRecv,        ///< wired coherence message delivered
    L1Transition,   ///< L1 line changed stable state (from -> to)
    DirTransition,  ///< directory entry changed stable state
    MshrAlloc,      ///< L1 miss-tracking entry allocated
    MshrRetire,     ///< L1 miss-tracking entry retired
    DirTxnBegin,    ///< directory transient transaction opened
    DirTxnEnd,      ///< directory transient transaction closed
    FrameQueued,    ///< wireless frame handed to the BRS MAC
    FrameWin,       ///< frame acquired the channel (commit scheduled)
    FrameCollision, ///< frame lost arbitration; exponential backoff
    FrameJammed,    ///< frame rejected by selective data-channel jamming
    FrameDelivered, ///< frame payload delivered chip-wide
    FrameCancelled, ///< pending frame withdrawn before acquisition
    ToneCensusBegin,///< ToneAck census opened (BrWirUpgr)
    ToneCensusEnd,  ///< tone went silent; census complete
    NocSend,        ///< mesh-level transfer (hop/flit accounting)
    CoreOp,         ///< core retired a memory op (arg = latency)
    Warn,           ///< sim::warn() fired during this simulation
    FrameCrcError,  ///< injected payload corruption; CRC NACK + retry
    FramePreambleLoss, ///< injected preamble fade; retry via backoff
    ToneRetry,      ///< initiator missed the silence pulse; re-polls
};

const char *traceKindName(TraceKind k);

/**
 * One trace record. Fixed fields cover every kind; unused fields hold
 * their defaults (kNodeNone / kAddrNone / 0 / nullptr). `op`, `from`
 * and `to` are component-local raw enum values with parallel static
 * name strings; see docs/TRACING.md for the per-kind field map.
 */
struct TraceRecord {
    Tick tick = 0;              ///< simulated cycle of the event
    TraceKind kind = TraceKind::Warn;
    TraceComponent comp = TraceComponent::Log;
    NodeId node = kNodeNone;    ///< emitting node (tid in Chrome export)
    NodeId peer = kNodeNone;    ///< other endpoint, where meaningful
    Addr line = kAddrNone;      ///< cache-line address, where meaningful
    std::uint8_t op = 0;        ///< msg type / frame kind / txn type / op
    std::uint8_t from = 0;      ///< previous state (transitions)
    std::uint8_t to = 0;        ///< next state (transitions)
    const char *opName = nullptr;   ///< static string for `op`
    const char *fromName = nullptr; ///< static string for `from`
    const char *toName = nullptr;   ///< static string for `to`
    std::uint64_t arg = 0;      ///< kind-specific scalar (latency, bits, ...)
    const char *note = nullptr; ///< static annotation ("evict", "fwd", ...)
    std::string text;           ///< dynamic payload (Warn message body)
};

/**
 * Per-simulator trace hub: an enabled flag, an inclusive cycle window
 * [windowLo, windowHi], and a list of sinks. emit() applies the window
 * filter and fans the record out to every sink in registration order.
 */
class Tracer
{
  public:
    /** Cheap hot-path check; see the file comment for the idiom. */
    bool enabled() const { return enabled_; }

    void setEnabled(bool on) { enabled_ = on; }

    /** Only records with windowLo <= tick <= windowHi reach the sinks. */
    void
    setWindow(Tick lo, Tick hi)
    {
        windowLo_ = lo;
        windowHi_ = hi;
    }

    Tick windowLo() const { return windowLo_; }
    Tick windowHi() const { return windowHi_; }

    using Sink = std::function<void(const TraceRecord &)>;

    /** Register a sink. Sinks must outlive the simulation. */
    void addSink(Sink sink) { sinks_.push_back(std::move(sink)); }

    void clearSinks() { sinks_.clear(); }

    /** Records that passed the window filter so far. */
    std::uint64_t emitted() const { return emitted_; }

    /** Deliver @p r to every sink (after the window filter). */
    void
    emit(const TraceRecord &r)
    {
        if (r.tick < windowLo_ || r.tick > windowHi_)
            return;
        ++emitted_;
        for (const Sink &sink : sinks_)
            sink(r);
    }

    /**
     * The tracer of the simulation this thread is currently running,
     * or nullptr. Set by Simulator::run so that sim::warn() can route
     * a Warn record into the right trace even from deep inside
     * component code (and from parallel sweep workers, each of which
     * runs its own simulator). Returns the previous value so callers
     * can restore it.
     */
    static Tracer *setThreadActive(Tracer *tracer);
    static Tracer *threadActive();

    /**
     * Attach the owning simulator's event queue so out-of-component
     * emitters (sim::warn) can stamp records with the current cycle.
     * Set by Simulator's constructor; components stamp records
     * themselves via sim_.now().
     */
    void setClock(const EventQueue *queue) { clock_ = queue; }

    /** Current cycle of the attached clock (0 if none). */
    Tick clockNow() const;

  private:
    const EventQueue *clock_ = nullptr;
    bool enabled_ = false;
    Tick windowLo_ = 0;
    Tick windowHi_ = kTickNever;
    std::uint64_t emitted_ = 0;
    std::vector<Sink> sinks_;
};

} // namespace widir::sim

#endif // WIDIR_SIM_TRACE_H
