#include "frontend/mtrace.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>

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

/** Strict bounds-checked reads over a byte range of a file image. */
struct ByteReader
{
    std::string_view buf;
    std::size_t pos = 0;
    std::size_t base = 0; ///< offset of buf in the file (messages)
    std::string &err;

    bool
    fail(const std::string &msg)
    {
        err = msg;
        return false;
    }

    bool
    getByte(std::uint8_t &v)
    {
        if (pos >= buf.size())
            return fail(truncatedAt(base + pos));
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
            return fail("mtrace: truncated file (string of " +
                        std::to_string(len) + " bytes at byte " +
                        std::to_string(base + pos) + ")");
        s.assign(buf.substr(pos, static_cast<std::size_t>(len)));
        pos += static_cast<std::size_t>(len);
        return true;
    }
};

bool
hasMagic(const std::string &image)
{
    return image.size() >= sizeof kMagic &&
           std::memcmp(image.data(), kMagic, sizeof kMagic) == 0;
}

bool
readWholeFile(const std::string &path, std::string &out,
              std::string &err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
    {
        err = path + ": " + std::strerror(errno);
        return false;
    }
    out.clear();
    char chunk[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        out.append(chunk, n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok)
        err = path + ": read error";
    return ok;
}

/**
 * Decode a widir-mtrace-v1 file image that starts with the magic.
 * Every record is walked once with an OpCursor, then each stream's
 * byte range is copied out as it stands.
 */
bool
decodeMtrace(const std::string &image, MemTrace &out, std::string &err)
{
    ByteReader r{image, sizeof kMagic, 0, err};

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

    out = MemTrace{};
    out.header.hasMachine = (flags & kFlagHasMachine) != 0;
    if (out.header.hasMachine)
    {
        TraceHeader &h = out.header;
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
        if (!r.getVarint(h.seed))
            return false;
    }

    std::uint64_t numThreads = 0;
    if (!r.getVarint(numThreads))
        return false;
    if (numThreads > kMaxThreads)
        return r.fail("mtrace: implausible thread count " +
                      std::to_string(numThreads));
    out.threads.resize(static_cast<std::size_t>(numThreads));

    Op op;
    for (OpStream &stream : out.threads)
    {
        std::uint64_t count = 0;
        if (!r.getVarint(count))
            return false;
        // Every record is >= 1 byte, so a sane count cannot exceed the
        // bytes left -- reject before a corrupt header forces a huge
        // allocation.
        if (count > image.size() - r.pos)
            return r.fail("mtrace: truncated file (op count " +
                          std::to_string(count) +
                          " exceeds remaining bytes)");
        OpCursor cur(std::string_view(image).substr(r.pos), r.pos);
        for (std::uint64_t i = 0; i < count; ++i)
        {
            if (!cur.next(op))
                return r.fail(cur.error().empty()
                                  ? truncatedAt(image.size())
                                  : cur.error());
        }
        stream.bytes.assign(image, r.pos, cur.consumed());
        stream.ops = count;
        r.pos += cur.consumed();
    }

    if (r.pos != image.size())
        return r.fail("mtrace: trailing garbage after op streams (" +
                      std::to_string(image.size() - r.pos) +
                      " bytes)");
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
    ByteReader r{bytes_, pos_, base_, err_};
    std::uint8_t kind = 0;
    r.getByte(kind); // cannot fail: pos_ < size
    if (kind >= kOpKindCount)
        return r.fail("mtrace: unknown record kind " +
                      std::to_string(kind) + " at byte " +
                      std::to_string(base_ + pos_));
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
        if (nEvals > (bytes_.size() - r.pos) / 2 + 1)
            return r.fail("mtrace: truncated file (rmw eval count " +
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
    pos_ = r.pos;
    return true;
}

bool
MemTrace::hasSync() const
{
    Op op;
    for (const OpStream &stream : threads)
    {
        OpCursor cur(stream.bytes);
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
    // The streams go out as they are held: no concatenated copy.
    auto put = [f](std::string_view bytes) {
        return std::fwrite(bytes.data(), 1, bytes.size(), f) ==
               bytes.size();
    };
    bool ok = put(head);
    for (const OpStream &stream : trace.threads)
    {
        std::string count;
        putVarint(count, stream.ops);
        ok = ok && put(count) && put(stream.bytes);
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
readMtrace(const std::string &path, MemTrace &out, std::string &err)
{
    std::string image;
    if (!readWholeFile(path, image, err))
        return false;
    if (!hasMagic(image))
    {
        err = "mtrace: bad magic (not a widir-mtrace file): " + path;
        return false;
    }
    return decodeMtrace(image, out, err);
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
parseTextTrace(const std::string &text, MemTrace &out,
               std::string &err)
{
    out = MemTrace{};
    bool sawOp = false;

    std::size_t lineStart = 0;
    std::size_t lineNo = 0;
    while (lineStart <= text.size())
    {
        ++lineNo;
        std::size_t lineEnd = text.find('\n', lineStart);
        if (lineEnd == std::string::npos)
            lineEnd = text.size();
        std::string line =
            text.substr(lineStart, lineEnd - lineStart);
        lineStart = lineEnd + 1;

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
            out.threads.resize(static_cast<std::size_t>(tid) + 1);
        out.threads[static_cast<std::size_t>(tid)].append(op);
        sawOp = true;
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
    std::string buf;
    if (!readWholeFile(path, buf, err))
        return false;
    if (hasMagic(buf))
        return decodeMtrace(buf, out, err);
    return parseTextTrace(buf, out, err);
}

} // namespace widir::frontend
