/**
 * @file
 * widir-mtrace-v1: the versioned, compact binary memory-trace format
 * the recording frontend writes and the replay frontends consume, plus
 * the text-trace ingestion parser for externally recorded traces.
 * The byte-level layout and the fidelity contract of each consumer are
 * specified in docs/FRONTEND.md.
 *
 * A trace is one op stream per thread. Record kinds (OpKind) mirror
 * the Thread awaitables one-to-one, so full-fidelity replay re-drives
 * the core timing model through the identical call sequence. Sync
 * records carry the annotations the workload sync library volunteers:
 * a recorded trace's replayed timing already reproduces their
 * ordering, and a headerless text trace, which has no recorded timing,
 * is serialized through them instead.
 */

#ifndef WIDIR_FRONTEND_MTRACE_H
#define WIDIR_FRONTEND_MTRACE_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cpu/op_sink.h"
#include "sim/types.h"

namespace widir::frontend {

/** One record of a per-thread op stream (docs/FRONTEND.md). */
enum class OpKind : std::uint8_t
{
    Compute, ///< operand: instruction count
    Load,    ///< blocking load; operand: address
    LoadNb,  ///< non-blocking load; operand: address
    Store,   ///< operands: address, value
    Rmw,     ///< operands: address, old value, new value
    Idle,    ///< operand: pause cycles (no retired instructions)
    Fence,   ///< no operands
    Sync,    ///< operands: SyncNote kind, address, ordering key
};

/** Number of OpKind enumerators (reader-side validation). */
inline constexpr std::uint8_t kOpKindCount = 8;

/**
 * One decoded record. Field use per kind is documented on OpKind.
 * Traces are never held as Ops: an OpStream keeps the encoded record
 * bytes and a StreamCursor decodes them one at a time.
 */
struct Op
{
    OpKind kind = OpKind::Compute;
    cpu::SyncNote sync = cpu::SyncNote::External; ///< Sync records only
    sim::Addr addr = 0;
    std::uint64_t a = 0; ///< count | value | old value | cycles | key
    std::uint64_t b = 0; ///< Rmw: new value

    /**
     * Rmw only: modify-function evaluations the L1 performed on values
     * OTHER than the final old value `a` (input -> output, input
     * values distinct). The wireless RMW path may evaluate the modify
     * function speculatively at issue time, get squashed by a remote
     * update, and retry against a new line value; the final (a, b)
     * pair alone cannot reproduce the speculative broadcast decision,
     * so full-fidelity replay needs every distinct evaluation. Empty
     * for the overwhelming majority of RMWs (no squash).
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> evals;

    bool
    operator==(const Op &o) const
    {
        return kind == o.kind && sync == o.sync && addr == o.addr &&
               a == o.a && b == o.b && evals == o.evals;
    }
};

/**
 * Append @p op's widir-mtrace-v1 record to @p out. With the decoder
 * behind OpCursor, the only code that knows each kind's operands.
 */
void encodeOp(std::string &out, const Op &op);

/**
 * Bounds-checked decoder over one stream's record bytes. next()
 * returns false at the end of the bytes, or on a malformed record --
 * then error() holds the reason and every later next() fails too.
 */
class OpCursor
{
  public:
    /**
     * Decode @p bytes. @p base is their offset in the file they came
     * from; error messages report file byte positions.
     */
    explicit OpCursor(std::string_view bytes, std::size_t base = 0)
        : bytes_(bytes), base_(base)
    {
    }

    /** Decode the next record into @p op (every field overwritten). */
    bool next(Op &op);

    /** Bytes consumed by the records decoded so far. */
    std::size_t consumed() const { return pos_; }

    /** Why the last next() failed; empty at a clean end. */
    const std::string &error() const { return err_; }

  private:
    std::string_view bytes_;
    std::size_t base_;
    std::size_t pos_ = 0;
    std::string err_;
};

/**
 * Size at which a writer spills its unflushed records to the store as
 * one piece, and at which the reader cuts a loaded stream into pieces.
 * A piece holds whole records, so it can exceed this by one record.
 */
inline constexpr std::size_t kPieceBytes = 4096;

/**
 * The file a trace's record bytes live in, shared by every stream of
 * the trace: the widir-mtrace-v1 file a reader loaded (kept open, so
 * the trace reads the inode it validated even after an unlink), or an
 * unlinked temporary file that writers spill into.
 */
class TraceStore
{
  public:
    /** An empty temporary store; its file is made at the first append. */
    TraceStore() = default;

    /**
     * @p path opened for reading; null, with a message in @p err, on
     * failure.
     */
    static std::shared_ptr<TraceStore> open(const std::string &path,
                                            std::string &err);

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;
    ~TraceStore();

    /** Bytes in the file. */
    std::uint64_t size() const { return size_; }

    /**
     * Append @p bytes at the end of a temporary store's file, through
     * a 64 KB stdio buffer; returns their offset.
     */
    std::uint64_t append(std::string_view bytes);

    /** Read @p len bytes at @p offset into @p out; false on a short read. */
    bool read(std::uint64_t offset, char *out, std::size_t len);

  private:
    std::FILE *f_ = nullptr;
    std::unique_ptr<char[]> buffer_; ///< stdio buffer of a temp store
    std::uint64_t size_ = 0;
    bool readOnly_ = false;
    bool unflushed_ = false; ///< appended bytes may sit in buffer_
};

/** A byte range of a TraceStore holding whole records. */
struct Piece
{
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
};

/**
 * One thread's records, kept encoded: the pieces in the store, then
 * the writer's unflushed tail, always shorter than kPieceBytes.
 */
struct OpStream
{
    /// Where the pieces live; a stream with no store makes its own
    /// temporary one at its first spill.
    std::shared_ptr<TraceStore> store;
    std::vector<Piece> pieces;
    std::string tail;
    std::uint64_t ops = 0; ///< records in pieces and tail

    OpStream() = default;
    explicit OpStream(std::shared_ptr<TraceStore> s) : store(std::move(s))
    {
    }

    /**
     * Append @p op's record: the one write path of the recorder, the
     * text parser and tests. A tail that reaches kPieceBytes spills to
     * the store as one piece.
     */
    void append(const Op &op);
};

/**
 * Decodes one stream in order: reads each piece from the store into a
 * small buffer and runs an OpCursor over it, then over the tail. The
 * stream must outlive the cursor.
 */
class StreamCursor
{
  public:
    explicit StreamCursor(const OpStream &stream) : stream_(stream) {}

    // cur_ views buf_: a copy would read the original's buffer.
    StreamCursor(const StreamCursor &) = delete;
    StreamCursor &operator=(const StreamCursor &) = delete;

    /** Decode the next record into @p op; false at the end or on error. */
    bool next(Op &op);

    /** Why next() failed; empty at a clean end. */
    const std::string &error() const { return err_; }

  private:
    const OpStream &stream_;
    std::size_t piece_ = 0; ///< next piece to read
    bool tailRead_ = false;
    std::string buf_;
    OpCursor cur_{std::string_view()};
    std::string err_;
};

/**
 * Machine configuration embedded in a recorded trace so a replay run
 * can reconstruct the exact recorded experiment (hasMachine == true).
 * Traces ingested from the text format carry no machine header: the
 * replaying spec supplies the machine instead.
 */
struct TraceHeader
{
    bool hasMachine = false;
    std::string app;         ///< recorded app name (result echo)
    std::uint8_t protocol = 0;
    std::uint8_t homeMap = 0;
    std::uint32_t cores = 0;
    std::uint32_t scale = 1;
    std::uint32_t maxWiredSharers = 3;
    std::uint32_t updateCountThreshold = 0;
    std::uint32_t meshConcentration = 1;
    std::uint32_t wirelessChannels = 1;
    std::uint64_t seed = 1;
};

/** A parsed memory trace: header + one op stream per thread. */
struct MemTrace
{
    TraceHeader header;
    std::vector<OpStream> threads;

    std::uint32_t
    numThreads() const
    {
        return static_cast<std::uint32_t>(threads.size());
    }

    /** Total records across all threads. */
    std::uint64_t
    totalOps() const
    {
        std::uint64_t n = 0;
        for (const auto &stream : threads)
            n += stream.ops;
        return n;
    }

    /** True when any thread carries a Sync record. */
    bool hasSync() const;
};

/**
 * Write @p trace to @p path in widir-mtrace-v1, copying each stream's
 * pieces, then its tail, through a one-piece buffer. @p path must not
 * be the file @p trace was loaded from: opening it truncates the
 * pieces. Returns false (with a message in @p err) on I/O failure.
 */
bool writeMtrace(const std::string &path, const MemTrace &trace,
                 std::string &err);

/**
 * Read the header of a widir-mtrace-v1 file into @p out, and nothing
 * after it. Rejects a bad magic, an unsupported version or unknown
 * header flags with a message in @p err.
 */
bool readMtraceHeader(const std::string &path, TraceHeader &out,
                      std::string &err);

/**
 * Read a widir-mtrace-v1 file. Strict: a bad magic, an unsupported
 * version, an unknown record kind, or a truncated stream is rejected
 * with a message in @p err -- never silently repaired. Every record
 * is decoded once here, in one sequential pass through a 64 KB window,
 * so a corrupt trace fails at load, never partway through a replay.
 * The streams are pieces of the file, which stays open while any of
 * them lives.
 */
bool readMtrace(const std::string &path, MemTrace &out,
                std::string &err);

/**
 * Parse the text ingestion format (docs/FRONTEND.md) from @p in, line
 * by line:
 *
 *   # comment (blank lines ignored)
 *   <thread> R <addr>
 *   <thread> W <addr> [value]
 *   <thread> S <seq>        # optional sync-event extension
 *
 * Numbers are decimal or 0x-hex. The resulting trace has no machine
 * header (header.hasMachine == false); numThreads() is max thread id
 * + 1. Strict like parseEnvInt: any malformed line fails the whole
 * parse with a line-numbered message in @p err.
 */
bool parseTextTrace(std::istream &in, MemTrace &out, std::string &err);

/**
 * Load a trace file of either format: widir-mtrace-v1 when the file
 * starts with the binary magic, the text format otherwise.
 */
bool loadTraceFile(const std::string &path, MemTrace &out,
                   std::string &err);

} // namespace widir::frontend

#endif // WIDIR_FRONTEND_MTRACE_H
