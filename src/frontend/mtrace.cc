#include "frontend/mtrace.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <string_view>

#include "sim/log.h"

namespace widir::frontend {

namespace {

/** File magic; doubles as the format discriminator in loadTraceFile. */
constexpr char kMagic[8] = {'W', 'D', 'M', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint64_t kVersion = 1;
constexpr std::uint64_t kFlagHasMachine = 1;

/** Hard cap against absurd counts from corrupt headers. */
constexpr std::uint64_t kMaxThreads = 1u << 20;

void
putVarint(std::string &out, std::uint64_t v)
{
    // Unsigned LEB128: 7 payload bits per byte, MSB = continuation.
    while (v >= 0x80)
    {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

void
putString(std::string &out, const std::string &s)
{
    putVarint(out, s.size());
    out.append(s);
}

std::string
truncatedAt(std::size_t byte)
{
    return "mtrace: truncated file (unexpected end of stream at byte " +
           std::to_string(byte) + ")";
}

/** Strict bounds-checked reads over a byte range of a file. */
struct ByteReader
{
    std::string_view buf;
    std::size_t pos = 0;
    std::uint64_t base = 0; ///< offset of buf in the file (messages)
    std::string &err;
    bool &ranOut; ///< set when a read failed at the end of buf

    bool
    fail(const std::string &msg)
    {
        err = msg;
        return false;
    }

    /** Fail because the value runs past the end of buf. */
    bool
    failShort(const std::string &msg)
    {
        ranOut = true;
        return fail(msg);
    }

    bool
    getByte(std::uint8_t &v)
    {
        if (pos >= buf.size())
            return failShort(truncatedAt(base + pos));
        v = static_cast<std::uint8_t>(buf[pos++]);
        return true;
    }

    bool
    getVarint(std::uint64_t &v)
    {
        v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7)
        {
            std::uint8_t byte = 0;
            if (!getByte(byte))
                return false;
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return true;
        }
        return fail("mtrace: varint overflows 64 bits at byte " +
                    std::to_string(base + pos));
    }

    bool
    getString(std::string &s)
    {
        std::uint64_t len = 0;
        if (!getVarint(len))
            return false;
        if (len > buf.size() - pos)
            return failShort("mtrace: truncated file (string of " +
                             std::to_string(len) + " bytes at byte " +
                             std::to_string(base + pos) + ")");
        s.assign(buf.substr(pos, static_cast<std::size_t>(len)));
        pos += static_cast<std::size_t>(len);
        return true;
    }
};

bool
hasMagic(std::string_view bytes)
{
    return bytes.size() >= sizeof kMagic &&
           std::memcmp(bytes.data(), kMagic, sizeof kMagic) == 0;
}

/** Size of the load pass's read window. */
constexpr std::size_t kWindowBytes = 1 << 16;

/** Size of the stdio buffer a writer's spills go through. */
constexpr std::size_t kSpillBufferBytes = 1 << 16;

/**
 * Header fields after the magic (version, flags, machine), into
 * @p h. The magic itself is checked by the caller.
 */
bool
decodeHeader(ByteReader &r, TraceHeader &h)
{
    std::uint64_t version = 0;
    if (!r.getVarint(version))
        return false;
    if (version != kVersion)
        return r.fail("mtrace: unsupported version " +
                      std::to_string(version) + " (expected " +
                      std::to_string(kVersion) + ")");

    std::uint64_t flags = 0;
    if (!r.getVarint(flags))
        return false;
    if ((flags & ~kFlagHasMachine) != 0)
    {
        char hex[20];
        std::snprintf(hex, sizeof hex, "%llx",
                      static_cast<unsigned long long>(flags));
        return r.fail(std::string("mtrace: unknown header flags 0x") +
                      hex);
    }

    h = TraceHeader{};
    h.hasMachine = (flags & kFlagHasMachine) != 0;
    if (!h.hasMachine)
        return true;
    std::uint8_t b = 0;
    std::uint64_t v = 0;
    if (!r.getString(h.app) || !r.getByte(b))
        return false;
    h.protocol = b;
    if (!r.getByte(b))
        return false;
    h.homeMap = b;
    if (!r.getVarint(v))
        return false;
    h.cores = static_cast<std::uint32_t>(v);
    if (!r.getVarint(v))
        return false;
    h.scale = static_cast<std::uint32_t>(v);
    if (!r.getVarint(v))
        return false;
    h.maxWiredSharers = static_cast<std::uint32_t>(v);
    if (!r.getVarint(v))
        return false;
    h.updateCountThreshold = static_cast<std::uint32_t>(v);
    if (!r.getVarint(v))
        return false;
    h.meshConcentration = static_cast<std::uint32_t>(v);
    if (!r.getVarint(v))
        return false;
    h.wirelessChannels = static_cast<std::uint32_t>(v);
    return r.getVarint(h.seed);
}

/**
 * Decode one record at @p r's position into @p op (every field
 * overwritten). With encodeOp, the only code that knows each kind's
 * operands.
 */
bool
getOp(ByteReader &r, Op &op)
{
    const std::uint64_t at = r.base + r.pos;
    std::uint8_t kind = 0;
    if (!r.getByte(kind))
        return false;
    if (kind >= kOpKindCount)
        return r.fail("mtrace: unknown record kind " +
                      std::to_string(kind) + " at byte " +
                      std::to_string(at));
    op.kind = static_cast<OpKind>(kind);
    op.sync = cpu::SyncNote::External;
    op.addr = 0;
    op.a = 0;
    op.b = 0;
    op.evals.clear();
    switch (op.kind)
    {
    case OpKind::Compute:
    case OpKind::Idle:
        if (!r.getVarint(op.a))
            return false;
        break;
    case OpKind::Load:
    case OpKind::LoadNb:
        if (!r.getVarint(op.addr))
            return false;
        break;
    case OpKind::Store:
        if (!r.getVarint(op.addr) || !r.getVarint(op.a))
            return false;
        break;
    case OpKind::Rmw:
    {
        std::uint64_t nEvals = 0;
        if (!r.getVarint(op.addr) || !r.getVarint(op.a) ||
            !r.getVarint(op.b) || !r.getVarint(nEvals))
            return false;
        // Two bytes minimum per pair -- a guard against a corrupt
        // count forcing a huge allocation.
        if (nEvals > (r.buf.size() - r.pos) / 2 + 1)
            return r.failShort("mtrace: truncated file (rmw eval count " +
                               std::to_string(nEvals) +
                               " exceeds remaining bytes)");
        for (std::uint64_t e = 0; e < nEvals; ++e)
        {
            std::uint64_t in = 0, result = 0;
            if (!r.getVarint(in) || !r.getVarint(result))
                return false;
            op.evals.emplace_back(in, result);
        }
        break;
    }
    case OpKind::Fence:
        break;
    case OpKind::Sync:
    {
        std::uint8_t note = 0;
        if (!r.getByte(note))
            return false;
        if (note > static_cast<std::uint8_t>(cpu::SyncNote::TaskClaim))
            return r.fail("mtrace: unknown sync note " +
                          std::to_string(note));
        op.sync = static_cast<cpu::SyncNote>(note);
        if (!r.getVarint(op.addr) || !r.getVarint(op.a))
            return false;
        break;
    }
    }
    return true;
}

} // namespace

std::shared_ptr<TraceStore>
TraceStore::open(const std::string &path, std::string &err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr || std::fseek(f, 0, SEEK_END) != 0)
    {
        err = path + ": " + std::strerror(errno);
        if (f != nullptr)
            std::fclose(f);
        return nullptr;
    }
    auto store = std::make_shared<TraceStore>();
    store->f_ = f;
    store->size_ = static_cast<std::uint64_t>(std::ftell(f));
    store->readOnly_ = true;
    return store;
}

TraceStore::~TraceStore()
{
    if (f_ != nullptr)
        std::fclose(f_);
}

std::uint64_t
TraceStore::append(std::string_view bytes)
{
    WIDIR_ASSERT(!readOnly_, "a loaded trace is read-only");
    if (f_ == nullptr)
    {
        // On disk, not in a memfd or tmpfs: the point is to keep the
        // bytes out of memory, not to hide them from the process.
        f_ = std::tmpfile();
        if (f_ == nullptr)
            sim::fatal("trace store: cannot create a temporary file: %s",
                       std::strerror(errno));
        buffer_ = std::make_unique<char[]>(kSpillBufferBytes);
        std::setvbuf(f_, buffer_.get(), _IOFBF, kSpillBufferBytes);
    }
    if (std::fwrite(bytes.data(), 1, bytes.size(), f_) != bytes.size())
        sim::fatal("trace store: write error: %s", std::strerror(errno));
    unflushed_ = true;
    const std::uint64_t offset = size_;
    size_ += bytes.size();
    return offset;
}

bool
TraceStore::read(std::uint64_t offset, char *out, std::size_t len)
{
    if (unflushed_)
    {
        if (std::fflush(f_) != 0)
            return false;
        unflushed_ = false;
    }
    const int fd = fileno(f_);
    while (len > 0)
    {
        const ssize_t n = ::pread(fd, out, len, static_cast<off_t>(offset));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        out += n;
        offset += static_cast<std::uint64_t>(n);
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

namespace {

std::string
readErrorAt(std::uint64_t byte)
{
    return "mtrace: read error at byte " + std::to_string(byte);
}

/**
 * The load pass's sequential view of a store: kWindowBytes of the
 * file, refilled as the pass consumes it. It widens only while a
 * single record straddles it.
 */
class Window
{
  public:
    explicit Window(TraceStore &store) : store_(store) {}

    /** The unconsumed bytes in the window. */
    std::string_view
    view() const
    {
        return std::string_view(buf_).substr(pos_);
    }

    /** File offset of view(). */
    std::uint64_t offset() const { return start_ + pos_; }

    void consume(std::size_t n) { pos_ += n; }

    /**
     * Drop the consumed bytes and read on: up to kWindowBytes, or
     * kWindowBytes more when the unconsumed bytes already fill the
     * window. False at the end of the file, leaving @p err as it is,
     * or on a read error, saying so in @p err.
     */
    bool
    refill(std::string &err)
    {
        buf_.erase(0, pos_);
        start_ += pos_;
        pos_ = 0;
        const std::uint64_t end = start_ + buf_.size();
        if (end == store_.size())
            return false;
        const std::size_t want = buf_.size() < kWindowBytes
                                     ? kWindowBytes - buf_.size()
                                     : kWindowBytes;
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(want, store_.size() - end));
        const std::size_t had = buf_.size();
        buf_.resize(had + n);
        if (!store_.read(end, buf_.data() + had, n))
        {
            err = readErrorAt(end);
            return false;
        }
        return true;
    }

    /**
     * Run @p decode (a ByteReader -> bool) over view(), refilling and
     * retrying while it fails for want of bytes; consume what it read.
     */
    template <typename Decode>
    bool
    decode(std::string &err, Decode &&fn)
    {
        for (;;)
        {
            bool ranOut = false;
            ByteReader r{view(), 0, offset(), err, ranOut};
            if (fn(r))
            {
                consume(r.pos);
                return true;
            }
            if (!ranOut || !refill(err))
                return false;
        }
    }

  private:
    TraceStore &store_;
    std::string buf_;
    std::uint64_t start_ = 0; ///< file offset of buf_[0]
    std::size_t pos_ = 0;
};

/** The magic and header at the start of the window's file. */
bool
readHeader(Window &w, const std::string &path, TraceHeader &h,
           std::string &err)
{
    err.clear();
    if (!w.refill(err) && !err.empty())
        return false;
    if (!hasMagic(w.view()))
    {
        err = "mtrace: bad magic (not a widir-mtrace file): " + path;
        return false;
    }
    w.consume(sizeof kMagic);
    return w.decode(err, [&h](ByteReader &r) { return decodeHeader(r, h); });
}

/**
 * Decode a widir-mtrace-v1 file that @p store holds open. One
 * sequential pass decodes every record and cuts each stream into
 * pieces of the file at record boundaries every kPieceBytes.
 */
bool
decodeMtrace(const std::shared_ptr<TraceStore> &store,
             const std::string &path, MemTrace &out, std::string &err)
{
    out = MemTrace{};
    Window w(*store);
    if (!readHeader(w, path, out.header, err))
        return false;

    std::uint64_t numThreads = 0;
    if (!w.decode(err,
                  [&](ByteReader &r) { return r.getVarint(numThreads); }))
        return false;
    if (numThreads > kMaxThreads)
    {
        err = "mtrace: implausible thread count " +
              std::to_string(numThreads);
        return false;
    }
    out.threads.assign(static_cast<std::size_t>(numThreads),
                       OpStream(store));

    Op op;
    for (OpStream &stream : out.threads)
    {
        std::uint64_t count = 0;
        if (!w.decode(err, [&](ByteReader &r) { return r.getVarint(count); }))
            return false;
        // Every record is >= 1 byte, so a sane count cannot exceed the
        // bytes left -- reject before a corrupt header forces a huge
        // allocation.
        if (count > store->size() - w.offset())
        {
            err = "mtrace: truncated file (op count " +
                  std::to_string(count) + " exceeds remaining bytes)";
            return false;
        }
        std::uint64_t pieceStart = w.offset();
        auto cut = [&](std::uint64_t end) {
            stream.pieces.push_back({pieceStart, end - pieceStart});
            pieceStart = end;
        };
        for (std::uint64_t i = 0; i < count; ++i)
        {
            if (!w.decode(err, [&](ByteReader &r) { return getOp(r, op); }))
                return false;
            if (w.offset() - pieceStart >= kPieceBytes)
                cut(w.offset());
        }
        if (w.offset() > pieceStart)
            cut(w.offset());
        stream.ops = count;
    }

    if (w.offset() != store->size())
    {
        err = "mtrace: trailing garbage after op streams (" +
              std::to_string(store->size() - w.offset()) + " bytes)";
        return false;
    }
    err.clear();
    return true;
}

} // namespace

void
encodeOp(std::string &out, const Op &op)
{
    out.push_back(static_cast<char>(op.kind));
    switch (op.kind)
    {
    case OpKind::Compute:
    case OpKind::Idle:
        putVarint(out, op.a);
        break;
    case OpKind::Load:
    case OpKind::LoadNb:
        putVarint(out, op.addr);
        break;
    case OpKind::Store:
        putVarint(out, op.addr);
        putVarint(out, op.a);
        break;
    case OpKind::Rmw:
        putVarint(out, op.addr);
        putVarint(out, op.a);
        putVarint(out, op.b);
        // Squashed-and-retried speculative evaluations (mtrace.h);
        // count is 0 for almost every RMW.
        putVarint(out, op.evals.size());
        for (const auto &[in, result] : op.evals)
        {
            putVarint(out, in);
            putVarint(out, result);
        }
        break;
    case OpKind::Fence:
        break;
    case OpKind::Sync:
        out.push_back(static_cast<char>(op.sync));
        putVarint(out, op.addr);
        putVarint(out, op.a);
        break;
    }
}

bool
OpCursor::next(Op &op)
{
    if (!err_.empty() || pos_ == bytes_.size())
        return false;
    bool ranOut = false;
    ByteReader r{bytes_, pos_, base_, err_, ranOut};
    if (!getOp(r, op))
        return false;
    pos_ = r.pos;
    return true;
}

void
OpStream::append(const Op &op)
{
    encodeOp(tail, op);
    ++ops;
    if (tail.size() < kPieceBytes)
        return;
    if (!store)
        store = std::make_shared<TraceStore>();
    pieces.push_back({store->append(tail), tail.size()});
    tail.clear();
}

bool
StreamCursor::next(Op &op)
{
    for (;;)
    {
        if (cur_.next(op))
            return true;
        if (!cur_.error().empty())
        {
            err_ = cur_.error();
            return false;
        }
        if (!err_.empty())
            return false;
        if (piece_ < stream_.pieces.size())
        {
            // Records never straddle a piece, so each decodes alone.
            const Piece &piece = stream_.pieces[piece_++];
            buf_.resize(static_cast<std::size_t>(piece.length));
            if (!stream_.store->read(piece.offset, buf_.data(),
                                     buf_.size()))
            {
                err_ = readErrorAt(piece.offset);
                return false;
            }
            cur_ = OpCursor(buf_, piece.offset);
        }
        else if (!tailRead_)
        {
            tailRead_ = true;
            cur_ = OpCursor(stream_.tail);
        }
        else
        {
            return false;
        }
    }
}

bool
MemTrace::hasSync() const
{
    Op op;
    for (const OpStream &stream : threads)
    {
        StreamCursor cur(stream);
        while (cur.next(op))
        {
            if (op.kind == OpKind::Sync)
                return true;
        }
    }
    return false;
}

bool
writeMtrace(const std::string &path, const MemTrace &trace,
            std::string &err)
{
    std::string head;
    head.append(kMagic, sizeof kMagic);
    putVarint(head, kVersion);
    putVarint(head, trace.header.hasMachine ? kFlagHasMachine : 0);
    if (trace.header.hasMachine)
    {
        const TraceHeader &h = trace.header;
        putString(head, h.app);
        head.push_back(static_cast<char>(h.protocol));
        head.push_back(static_cast<char>(h.homeMap));
        putVarint(head, h.cores);
        putVarint(head, h.scale);
        putVarint(head, h.maxWiredSharers);
        putVarint(head, h.updateCountThreshold);
        putVarint(head, h.meshConcentration);
        putVarint(head, h.wirelessChannels);
        putVarint(head, h.seed);
    }
    putVarint(head, trace.threads.size());

    // Like writeResultsJson: create the output directory so
    // `--record runs/traces` works without a mkdir first.
    std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
    {
        err = path + ": " + std::strerror(errno);
        return false;
    }
    auto put = [f](std::string_view bytes) {
        return std::fwrite(bytes.data(), 1, bytes.size(), f) ==
               bytes.size();
    };
    bool ok = put(head);
    std::string piece; // one piece at a time: never a whole stream
    for (const OpStream &stream : trace.threads)
    {
        std::string count;
        putVarint(count, stream.ops);
        ok = ok && put(count);
        for (const Piece &pc : stream.pieces)
        {
            piece.resize(static_cast<std::size_t>(pc.length));
            ok = ok &&
                 stream.store->read(pc.offset, piece.data(),
                                    piece.size()) &&
                 put(piece);
        }
        ok = ok && put(stream.tail);
    }
    const bool closed = std::fclose(f) == 0;
    if (!ok || !closed)
    {
        err = path + ": write error";
        return false;
    }
    return true;
}

bool
readMtraceHeader(const std::string &path, TraceHeader &out,
                 std::string &err)
{
    const auto store = TraceStore::open(path, err);
    if (!store)
        return false;
    Window w(*store);
    return readHeader(w, path, out, err);
}

bool
readMtrace(const std::string &path, MemTrace &out, std::string &err)
{
    const auto store = TraceStore::open(path, err);
    return store && decodeMtrace(store, path, out, err);
}

namespace {

/** Strict u64 token parse (decimal or 0x-hex), parseEnvInt style. */
bool
parseU64(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty())
        return false;
    int base = 10;
    std::size_t start = 0;
    if (tok.size() > 2 && tok[0] == '0' &&
        (tok[1] == 'x' || tok[1] == 'X'))
    {
        base = 16;
        start = 2;
    }
    std::uint64_t v = 0;
    for (std::size_t i = start; i < tok.size(); ++i)
    {
        const char c = tok[i];
        std::uint64_t digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a' + 10);
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = static_cast<std::uint64_t>(c - 'A' + 10);
        else
            return false;
        const std::uint64_t next =
            v * static_cast<std::uint64_t>(base) + digit;
        if (next / static_cast<std::uint64_t>(base) != v)
            return false; // overflow
        v = next;
    }
    out = v;
    return true;
}

} // namespace

bool
parseTextTrace(std::istream &in, MemTrace &out, std::string &err)
{
    out = MemTrace{};
    // One spill file for every thread's stream.
    const auto store = std::make_shared<TraceStore>();
    bool sawOp = false;

    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line))
    {
        ++lineNo;

        // Strip a trailing comment, then tokenize on whitespace.
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::vector<std::string> toks;
        std::size_t i = 0;
        while (i < line.size())
        {
            while (i < line.size() &&
                   (line[i] == ' ' || line[i] == '\t' ||
                    line[i] == '\r'))
                ++i;
            std::size_t j = i;
            while (j < line.size() && line[j] != ' ' &&
                   line[j] != '\t' && line[j] != '\r')
                ++j;
            if (j > i)
                toks.push_back(line.substr(i, j - i));
            i = j;
        }
        if (toks.empty())
            continue;

        auto fail = [&](const std::string &msg) {
            err = "trace line " + std::to_string(lineNo) + ": " + msg;
            return false;
        };

        if (toks.size() < 2)
            return fail("expected '<thread> <R|W|S> ...', got '" +
                        toks[0] + "'");
        std::uint64_t tid = 0;
        if (!parseU64(toks[0], tid))
            return fail("bad thread id '" + toks[0] + "'");
        if (tid >= kMaxThreads)
            return fail("thread id " + toks[0] + " out of range");
        if (toks[1].size() != 1)
            return fail("bad op '" + toks[1] + "' (want R, W or S)");

        Op op;
        switch (toks[1][0])
        {
        case 'R':
            if (toks.size() != 3)
                return fail("R takes exactly one operand: R <addr>");
            if (!parseU64(toks[2], op.addr))
                return fail("bad address '" + toks[2] + "'");
            op.kind = OpKind::Load;
            break;
        case 'W':
            if (toks.size() != 3 && toks.size() != 4)
                return fail("W takes one or two operands: "
                            "W <addr> [value]");
            if (!parseU64(toks[2], op.addr))
                return fail("bad address '" + toks[2] + "'");
            if (toks.size() == 4 && !parseU64(toks[3], op.a))
                return fail("bad value '" + toks[3] + "'");
            op.kind = OpKind::Store;
            break;
        case 'S':
            if (toks.size() != 3)
                return fail("S takes exactly one operand: S <seq>");
            if (!parseU64(toks[2], op.a))
                return fail("bad sequence number '" + toks[2] + "'");
            op.kind = OpKind::Sync;
            op.sync = cpu::SyncNote::External;
            break;
        default:
            return fail("bad op '" + toks[1] + "' (want R, W or S)");
        }

        if (tid + 1 > out.threads.size())
            out.threads.resize(static_cast<std::size_t>(tid) + 1,
                               OpStream(store));
        out.threads[static_cast<std::size_t>(tid)].append(op);
        sawOp = true;
    }

    if (in.bad())
    {
        err = "trace: read error";
        return false;
    }
    if (!sawOp)
    {
        err = "trace: no operations found";
        return false;
    }
    return true;
}

bool
loadTraceFile(const std::string &path, MemTrace &out, std::string &err)
{
    const auto store = TraceStore::open(path, err);
    if (!store)
        return false;
    char magic[sizeof kMagic];
    if (store->size() >= sizeof magic &&
        store->read(0, magic, sizeof magic) &&
        hasMagic(std::string_view(magic, sizeof magic)))
        return decodeMtrace(store, path, out, err);
    std::ifstream in(path);
    if (!in)
    {
        err = path + ": " + std::strerror(errno);
        return false;
    }
    return parseTextTrace(in, out, err);
}

} // namespace widir::frontend
