/**
 * @file
 * System-layer sinks for sim::Tracer (schema widir-trace-v1):
 *
 *  - TraceLegalityChecker: validates every record as it arrives
 *    against the transition tables, per-line continuity and SWMR
 *    (docs/PROTOCOL.md), in O(1) work per record and without keeping
 *    the records.
 *  - TraceRing: bounded in-memory ring buffer that keeps the newest
 *    records, for tests and probes that inspect them afterwards;
 *    sys::checkTraceLegality replays one through the checker.
 *  - ChromeTraceWriter: streams records into a Chrome trace-event JSON
 *    document (the "traceEvents" array format) loadable in
 *    chrome://tracing and https://ui.perfetto.dev. One simulated cycle
 *    is displayed as one microsecond; components map to processes and
 *    nodes to threads. See docs/TRACING.md for the full mapping.
 *
 * All three are plain Sink factories: construct one, register it with
 * Tracer::addSink(obj.sink()), and keep the object alive for the whole
 * simulation.
 */

#ifndef WIDIR_SYSTEM_TRACE_SINKS_H
#define WIDIR_SYSTEM_TRACE_SINKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "mem/flat_addr_map.h"
#include "sim/trace.h"

namespace widir::sys {

/**
 * Fixed-capacity ring of the most recent TraceRecords. Memory is
 * allocated lazily as records arrive, so an unused ring costs nothing.
 * Once full, each new record overwrites the oldest and bumps
 * dropped(); a ring with drops no longer holds the whole history, so
 * only per-record transition legality can be checked on it.
 */
class TraceRing
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 18;

    explicit TraceRing(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity ? capacity : 1)
    {
    }

    /** Sink to register with Tracer::addSink. Must outlive the run. */
    sim::Tracer::Sink
    sink()
    {
        return [this](const sim::TraceRecord &r) { push(r); };
    }

    void
    push(const sim::TraceRecord &r)
    {
        if (buf_.size() < capacity_) {
            buf_.push_back(r);
            return;
        }
        buf_[head_] = r;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }

    std::size_t size() const { return buf_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Records overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** i-th record in arrival order, oldest (still held) first. */
    const sim::TraceRecord &
    at(std::size_t i) const
    {
        return buf_[(head_ + i) % buf_.size()];
    }

    void
    clear()
    {
        buf_.clear();
        head_ = 0;
        dropped_ = 0;
    }

  private:
    std::size_t capacity_;
    std::size_t head_ = 0; ///< oldest record once the ring is full
    std::uint64_t dropped_ = 0;
    std::vector<sim::TraceRecord> buf_;
};

/**
 * Serializes records into Chrome trace-event JSON as they arrive (one
 * growing string, no per-record allocation beyond it), then write()s
 * the finished document. Mapping (docs/TRACING.md):
 *
 *  - pid = component, with process_name metadata ("L1", "Directory",
 *    "DataChannel", "ToneChannel", "Mesh", "Core", "Log");
 *  - tid = node id (0 when the record has no node);
 *  - ts  = simulated cycle, displayed as microseconds;
 *  - CoreOp records become complete ("X") events spanning the op's
 *    ROB-entry-to-retire latency; everything else is an instant ("i").
 */
class ChromeTraceWriter
{
  public:
    ChromeTraceWriter();

    /** Sink to register with Tracer::addSink. Must outlive the run. */
    sim::Tracer::Sink
    sink()
    {
        return [this](const sim::TraceRecord &r) { add(r); };
    }

    /** Serialize one record (called by the sink). */
    void add(const sim::TraceRecord &r);

    std::uint64_t events() const { return events_; }

    /** The complete JSON document (metadata + all events). */
    std::string json() const;

    /** Write json() to @p path, creating parent directories. */
    bool write(const std::string &path) const;

  private:
    std::string body_;      ///< serialized events, comma-separated
    std::uint64_t events_ = 0;
    bool compSeen_[7] = {}; ///< components needing process_name metadata
};

/**
 * Streaming transition-legality checker (docs/PROTOCOL.md §6). Every
 * L1Transition / DirTransition record must be a legal edge of the
 * documented state machines. When @p strict is set (the trace covers
 * the whole run) the checker also enforces per-line continuity (each
 * record's `from` equals the previous record's `to` for the same
 * (node, line)) and trace-level SWMR (while any L1 holds a line in M
 * or E, no other L1 holds it at all).
 *
 * observe() does O(1) work per record: other record kinds return at
 * once, continuity is one FlatAddrMap probe per (node, line), and
 * SWMR keeps per-line counts of valid and exclusive holders, so only
 * reporting a violation walks a line's holders. At most
 * kMaxViolations complaints are kept.
 */
class TraceLegalityChecker
{
  public:
    static constexpr std::size_t kMaxViolations = 16;

    explicit TraceLegalityChecker(bool strict) : strict_(strict) {}
    /** sink() captures `this`: the checker must stay where it is. */
    TraceLegalityChecker(const TraceLegalityChecker &) = delete;
    TraceLegalityChecker &operator=(const TraceLegalityChecker &) = delete;

    /** Sink to register with Tracer::addSink. Must outlive the run. */
    sim::Tracer::Sink
    sink()
    {
        return [this](const sim::TraceRecord &r) { observe(r); };
    }

    void
    observe(const sim::TraceRecord &r)
    {
        if (r.kind == sim::TraceKind::L1Transition)
            observeL1(r);
        else if (r.kind == sim::TraceKind::DirTransition)
            observeDir(r);
    }

    /** Human-readable violations so far (empty == legal). */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

  private:
    /** Trace-visible L1 copies of one line (strict SWMR only). */
    struct Holders
    {
        std::uint32_t valid = 0;     ///< nodes in any state but I
        std::uint32_t exclusive = 0; ///< nodes in M or E
    };

    void observeL1(const sim::TraceRecord &r);
    void observeDir(const sim::TraceRecord &r);
    void reportSwmr(const sim::TraceRecord &r, bool self_exclusive);
    void flag(std::string v);

    bool strict_;
    std::vector<std::string> violations_;
    /** Last traced `to` per (node, line) and per (home, line). */
    mem::FlatAddrMap<std::uint8_t> l1Last_;
    mem::FlatAddrMap<std::uint8_t> dirLast_;
    /** Lines some L1 holds; erased when the last copy goes. */
    mem::FlatAddrMap<Holders> holders_;
    /** Highest L1 node traced: bounds the violation report's walk. */
    sim::NodeId maxL1Node_ = 0;
};

/**
 * Replay a captured ring through a TraceLegalityChecker. Only pass
 * @p strict when the ring holds the whole run (window [0, ∞) and
 * dropped() == 0).
 *
 * @return human-readable violations (empty == trace is legal).
 */
std::vector<std::string> checkTraceLegality(const TraceRing &ring,
                                            bool strict);

} // namespace widir::sys

#endif // WIDIR_SYSTEM_TRACE_SINKS_H
