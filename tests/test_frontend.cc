/**
 * @file
 * Frontend subsystem tests (docs/FRONTEND.md):
 *
 *  - extraction gate: recording is pure observation, and
 *    full-fidelity replay reproduces the recording -- both pinned
 *    across apps x protocols;
 *  - widir-mtrace-v1: every record kind round-trips, the writer's
 *    bytes are pinned, a loaded trace is pieces of its file, and a
 *    recorder holds less than a piece per core; bad magic, version or
 *    flags, unknown kinds, and truncation -- also across the reader's
 *    64 KB window -- are rejected loudly;
 *  - text ingestion: the documented grammar parses, and a garbage
 *    matrix (parseEnvInt style) fails with line-numbered errors;
 *  - an external text trace replays through replayPath alone, named
 *    by its file stem, re-driven through the core model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "frontend/frontend.h"
#include "frontend/mtrace.h"
#include "system/manycore.h"
#include "system/report.h"
#include "temp_path.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using frontend::FrontendKind;
using frontend::MemTrace;
using frontend::Op;
using frontend::OpKind;
using frontend::OpStream;
using sys::ExperimentResult;
using sys::ExperimentSpec;
using test::testTempPath;
using workload::AppInfo;

/** Encode @p ops as one stream. */
OpStream
streamOf(const std::vector<Op> &ops)
{
    OpStream s;
    for (const Op &op : ops)
        s.append(op);
    return s;
}

/** Decode every record of @p stream (production code walks a cursor). */
std::vector<Op>
opsOf(const OpStream &stream)
{
    std::vector<Op> ops;
    frontend::StreamCursor cur(stream);
    Op op;
    while (cur.next(op))
        ops.push_back(op);
    EXPECT_TRUE(cur.error().empty()) << cur.error();
    EXPECT_EQ(ops.size(), stream.ops);
    return ops;
}

/** parseTextTrace over @p text. */
bool
parseText(const std::string &text, MemTrace &out, std::string &err)
{
    std::istringstream in(text);
    return frontend::parseTextTrace(in, out, err);
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

// The app name is a std::string, not a const char *: gtest prints a
// char pointer parameter with its address, which would put a
// per-process pointer into the listed test names.
using IdentityParam = std::tuple<std::string, coherence::Protocol>;

class FrontendIdentity : public ::testing::TestWithParam<IdentityParam>
{
};

TEST_P(FrontendIdentity, RecordThenReplayReproducesTheRun)
{
    auto [app_name, proto] = GetParam();
    const AppInfo *app = workload::findApp(app_name);
    ASSERT_NE(app, nullptr);
    std::string path = testTempPath("identity.mtrace");

    ExperimentSpec base;
    base.app = app;
    base.protocol = proto;
    base.cores = 16;
    base.scale = 1;
    ExperimentResult plain = sys::runExperiment(base);

    // Recording is pure observation: stats byte-identical to plain.
    ExperimentSpec rec_spec = base;
    rec_spec.frontend = FrontendKind::Record;
    rec_spec.recordPath = path;
    ExperimentResult rec = sys::runExperiment(rec_spec);
    EXPECT_EQ(sys::machineJson(plain), sys::machineJson(rec));
    EXPECT_EQ(rec.frontendKind, FrontendKind::Record);
    EXPECT_EQ(rec.recordPath, path);

    // Full-fidelity replay reproduces the recording byte-identically
    // (machine knobs come from the trace header, not this spec).
    ExperimentSpec rep_spec;
    rep_spec.app = app;
    rep_spec.frontend = FrontendKind::ReplayFull;
    rep_spec.replayPath = path;
    rep_spec.protocol = proto;
    rep_spec.cores = 16;
    ExperimentResult full = sys::runExperiment(rep_spec);
    EXPECT_EQ(sys::machineJson(plain), sys::machineJson(full));
    EXPECT_EQ(full.frontendKind, FrontendKind::ReplayFull);
    EXPECT_EQ(full.replayPath, path);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FrontendIdentity,
    ::testing::Combine(::testing::Values(std::string("fft"),
                                         std::string("radiosity")),
                       ::testing::Values(
                           coherence::Protocol::BaselineMESI,
                           coherence::Protocol::WiDir)),
    [](const ::testing::TestParamInfo<IdentityParam> &info) {
        std::string name = std::get<0>(info.param);
        name += std::get<1>(info.param) == coherence::Protocol::WiDir
            ? "_widir"
            : "_baseline";
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/** One stream per thread of everyKindTrace(). */
const std::vector<std::vector<Op>> kEveryKindOps = {
    {{OpKind::Compute, cpu::SyncNote::External, 0, 100, 0, {}},
     {OpKind::Load, cpu::SyncNote::External, 0x10000040, 0, 0, {}},
     {OpKind::LoadNb, cpu::SyncNote::External, 0x10000080, 0, 0, {}},
     {OpKind::Store, cpu::SyncNote::External, 0x100000C0, 42, 0, {}},
     {OpKind::Rmw, cpu::SyncNote::External, 0x10000100, 7, 8, {}},
     // A squashed-and-retried RMW carries its speculative modify
     // evaluations (mtrace.h) -- they must survive the round trip.
     {OpKind::Rmw,
      cpu::SyncNote::External,
      0x10000180,
      3,
      3,
      {{1, 2}, {9, 10}}},
     {OpKind::Idle, cpu::SyncNote::External, 0, 64, 0, {}},
     {OpKind::Fence, cpu::SyncNote::External, 0, 0, 0, {}},
     {OpKind::Sync, cpu::SyncNote::LockAcquire, 0x10000140, 17, 0, {}}},
    {}, // an empty stream must survive too
    {{OpKind::Sync, cpu::SyncNote::BarrierArrive, 0, 33, 0, {}}},
};

/** Every record kind and every header field, none at its default. */
MemTrace
everyKindTrace()
{
    MemTrace t;
    t.header.hasMachine = true;
    t.header.app = "round-trip";
    t.header.protocol = 1;
    t.header.homeMap = 1;
    t.header.cores = 3;
    t.header.scale = 7;
    t.header.maxWiredSharers = 5;
    t.header.updateCountThreshold = 9;
    t.header.meshConcentration = 2;
    t.header.wirelessChannels = 4;
    t.header.seed = 0xDEADBEEFCAFEull;
    for (const auto &ops : kEveryKindOps)
        t.threads.push_back(streamOf(ops));
    return t;
}

TEST(Mtrace, EveryKindRoundTrips)
{
    const MemTrace t = everyKindTrace();
    std::string path = testTempPath("roundtrip.mtrace");
    std::string err;
    ASSERT_TRUE(frontend::writeMtrace(path, t, err)) << err;

    MemTrace back;
    ASSERT_TRUE(frontend::readMtrace(path, back, err)) << err;
    EXPECT_TRUE(back.header.hasMachine);
    EXPECT_EQ(back.header.app, t.header.app);
    EXPECT_EQ(back.header.protocol, t.header.protocol);
    EXPECT_EQ(back.header.homeMap, t.header.homeMap);
    EXPECT_EQ(back.header.cores, t.header.cores);
    EXPECT_EQ(back.header.scale, t.header.scale);
    EXPECT_EQ(back.header.maxWiredSharers, t.header.maxWiredSharers);
    EXPECT_EQ(back.header.updateCountThreshold,
              t.header.updateCountThreshold);
    EXPECT_EQ(back.header.meshConcentration,
              t.header.meshConcentration);
    EXPECT_EQ(back.header.wirelessChannels, t.header.wirelessChannels);
    EXPECT_EQ(back.header.seed, t.header.seed);
    ASSERT_EQ(back.numThreads(), kEveryKindOps.size());
    for (std::uint32_t tid = 0; tid < back.numThreads(); ++tid)
        EXPECT_EQ(opsOf(back.threads[tid]), kEveryKindOps[tid]) << tid;
    EXPECT_TRUE(back.hasSync());
    EXPECT_EQ(back.totalOps(), 10u);

    // loadTraceFile must sniff the binary magic and take this path.
    MemTrace sniffed;
    ASSERT_TRUE(frontend::loadTraceFile(path, sniffed, err)) << err;
    ASSERT_EQ(sniffed.numThreads(), kEveryKindOps.size());
    for (std::uint32_t tid = 0; tid < sniffed.numThreads(); ++tid)
        EXPECT_EQ(opsOf(sniffed.threads[tid]), kEveryKindOps[tid]) << tid;
}

TEST(Mtrace, WriterBytesArePinned)
{
    // everyKindTrace() as serialised by the writer that held traces
    // as decoded Ops, before OpStream: every header field, every
    // record kind's operands, and the stream framing, byte for byte.
    const unsigned char pinned[] = {
        // magic, version 1, flags: machine header
        0x57, 0x44, 0x4d, 0x54, 0x52, 0x41, 0x43, 0x45, 0x01, 0x01,
        // app "round-trip"
        0x0a, 0x72, 0x6f, 0x75, 0x6e, 0x64, 0x2d, 0x74, 0x72, 0x69, 0x70,
        // protocol, homeMap, cores, scale, maxWiredSharers,
        // updateCountThreshold, meshConcentration, wirelessChannels
        0x01, 0x01, 0x03, 0x07, 0x05, 0x09, 0x02, 0x04,
        // seed
        0xfe, 0x95, 0xbf, 0xf7, 0xdb, 0xd5, 0x37,
        // 3 threads; thread 0 has 9 records
        0x03, 0x09,
        0x00, 0x64,                               // Compute 100
        0x01, 0xc0, 0x80, 0x80, 0x80, 0x01,       // Load
        0x02, 0x80, 0x81, 0x80, 0x80, 0x01,       // LoadNb
        0x03, 0xc0, 0x81, 0x80, 0x80, 0x01, 0x2a, // Store 42
        0x04, 0x80, 0x82, 0x80, 0x80, 0x01, 0x07, 0x08, 0x00, // Rmw
        0x04, 0x80, 0x83, 0x80, 0x80, 0x01, 0x03, 0x03, // Rmw 3 -> 3
        0x02, 0x01, 0x02, 0x09, 0x0a, // ... with 2 evals
        0x05, 0x40,                               // Idle 64
        0x06,                                     // Fence
        0x07, 0x01, 0xc0, 0x82, 0x80, 0x80, 0x01, 0x11, // Sync
        // thread 1: no records
        0x00,
        // thread 2: one Sync
        0x01, 0x07, 0x03, 0x00, 0x21,
    };
    const std::string path = testTempPath("pinned.mtrace");
    std::string err;
    ASSERT_TRUE(frontend::writeMtrace(path, everyKindTrace(), err))
        << err;
    EXPECT_EQ(fileBytes(path),
              std::string(reinterpret_cast<const char *>(pinned),
                          sizeof pinned));
}

TEST(Mtrace, RejectsCorruptInput)
{
    // A valid trace to corrupt.
    MemTrace t;
    t.threads = {
        streamOf({{OpKind::Load, cpu::SyncNote::External, 64, 0, 0, {}},
                  {OpKind::Store, cpu::SyncNote::External, 128, 1, 0, {}}})};
    std::string good = testTempPath("good.mtrace");
    std::string err;
    ASSERT_TRUE(frontend::writeMtrace(good, t, err)) << err;
    const std::string bytes = fileBytes(good);
    auto write = [](const std::string &path, const std::string &data) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(data.data(),
                static_cast<std::streamsize>(data.size()));
    };
    MemTrace out;

    // Bad magic: readMtrace rejects it outright (loadTraceFile would
    // route it to the text parser, which also rejects it -- binary
    // garbage is not a valid text trace either).
    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    std::string p = testTempPath("bad_magic.mtrace");
    write(p, bad_magic);
    EXPECT_FALSE(frontend::readMtrace(p, out, err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    EXPECT_FALSE(frontend::loadTraceFile(p, out, err));

    // Unsupported version.
    std::string bad_version = bytes;
    bad_version[8] = 99; // varint version field follows the magic
    p = testTempPath("bad_version.mtrace");
    write(p, bad_version);
    EXPECT_FALSE(frontend::readMtrace(p, out, err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;

    // Unknown header flags, named in hex.
    std::string bad_flags = bytes;
    bad_flags[9] = 0x1a; // varint flags field follows the version
    p = testTempPath("bad_flags.mtrace");
    write(p, bad_flags);
    EXPECT_FALSE(frontend::readMtrace(p, out, err));
    EXPECT_NE(err.find("unknown header flags 0x1a"), std::string::npos)
        << err;

    // Unknown record kind.
    std::string bad_kind = bytes;
    bad_kind[bad_kind.size() - 3] = 0x7f; // the Store record's kind
    p = testTempPath("bad_kind.mtrace");
    write(p, bad_kind);
    EXPECT_FALSE(frontend::readMtrace(p, out, err));

    // Truncation at every byte boundary must fail, never crash or
    // silently succeed with fewer ops.
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        p = testTempPath("truncated.mtrace");
        write(p, bytes.substr(0, cut));
        EXPECT_FALSE(frontend::readMtrace(p, out, err))
            << "cut at " << cut << " bytes";
    }

    // Trailing garbage is rejected too.
    p = testTempPath("trailing.mtrace");
    write(p, bytes + "junk");
    EXPECT_FALSE(frontend::readMtrace(p, out, err));
}

TEST(TextTrace, ParsesTheDocumentedGrammar)
{
    MemTrace t;
    std::string err;
    ASSERT_TRUE(parseText("# demo trace\n"
                          "\n"
                          "0 R 0x1000\n"
                          "1 W 4096 77\n"
                          "1 W 4160\n"
                          "0 S 1\n"
                          "3 R 64\n",
                          t, err))
        << err;
    EXPECT_FALSE(t.header.hasMachine);
    ASSERT_EQ(t.numThreads(), 4u); // max tid 3 -> 4 streams, 2 empty
    const std::vector<Op> t0 = opsOf(t.threads[0]);
    ASSERT_EQ(t0.size(), 2u);
    EXPECT_EQ(t0[0].kind, OpKind::Load);
    EXPECT_EQ(t0[0].addr, 0x1000u);
    EXPECT_EQ(t0[1].kind, OpKind::Sync);
    EXPECT_EQ(t0[1].a, 1u); // user ordering key
    const std::vector<Op> t1 = opsOf(t.threads[1]);
    ASSERT_EQ(t1.size(), 2u);
    EXPECT_EQ(t1[0].kind, OpKind::Store);
    EXPECT_EQ(t1[0].addr, 4096u);
    EXPECT_EQ(t1[0].a, 77u);
    EXPECT_EQ(t1[1].a, 0u); // value defaults to 0
    EXPECT_EQ(t.threads[2].ops, 0u);
    EXPECT_TRUE(t.threads[2].pieces.empty());
    EXPECT_TRUE(t.threads[2].tail.empty());
    EXPECT_TRUE(t.hasSync());
}

TEST(TextTrace, GarbageMatrixFailsWithLineNumbers)
{
    // parseEnvInt style: every malformed input must fail the whole
    // parse -- never be skipped or silently repaired -- and name the
    // offending line.
    const char *bad[] = {
        "R 0x1000",                // missing thread id
        "x R 4096",                // non-numeric thread id
        "-1 R 4096",               // negative thread id
        "0 Q 4096",                // unknown op letter
        "0 R",                     // missing address
        "0 R 64 65",               // excess operand on a read
        "0 W",                     // missing address
        "0 W 64 1 2",              // excess operand on a write
        "0 S",                     // missing sequence key
        "0 S 1 2",                 // excess operand on a sync
        "0 R 0x",                  // empty hex literal
        "0 R 12abc",               // trailing garbage in a number
        "0 R 99999999999999999999", // u64 overflow
        "1048577 R 64",            // thread id over the cap
        "",                        // no operations at all
        "# only a comment\n\n",    // still no operations
    };
    for (const char *text : bad) {
        MemTrace t;
        std::string err;
        EXPECT_FALSE(parseText(text, t, err)) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
    // Line numbers point at the offending line, not the file start.
    MemTrace t;
    std::string err;
    EXPECT_FALSE(parseText("0 R 64\n1 W 64 1\nbogus line\n", t, err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(Frontend, ValidateTraceRejectsUnreplayable)
{
    MemTrace t;
    EXPECT_FALSE(frontend::validateTrace(t, 4).empty()) << "no threads";

    t.threads.assign(8, {});
    t.threads[0].append({OpKind::Load, cpu::SyncNote::External, 64, 0, 0, {}});
    EXPECT_FALSE(frontend::validateTrace(t, 4).empty())
        << "more streams than cores";
    EXPECT_TRUE(frontend::validateTrace(t, 8).empty());

    // A machine-stamped trace must match its machine exactly.
    t.header.hasMachine = true;
    t.header.cores = 16;
    EXPECT_FALSE(frontend::validateTrace(t, 8).empty());
    t.header.cores = 8;
    EXPECT_TRUE(frontend::validateTrace(t, 8).empty());

    // Non-monotone per-thread sync keys would deadlock the gate.
    t.threads[1].append({OpKind::Sync, cpu::SyncNote::External, 0, 5, 0, {}});
    t.threads[1].append({OpKind::Sync, cpu::SyncNote::External, 0, 4, 0, {}});
    EXPECT_FALSE(frontend::validateTrace(t, 8).empty());
}

TEST(Frontend, RecordedTraceStaysEncoded)
{
    // A loaded trace is exactly the file's record bytes, one stream
    // per thread, each cut into contiguous pieces of the file, and
    // writes back out unchanged.
    const std::string path = testTempPath("encoded.mtrace");
    ExperimentSpec rec;
    rec.app = workload::findApp("fft");
    ASSERT_NE(rec.app, nullptr);
    rec.protocol = coherence::Protocol::WiDir;
    rec.cores = 16;
    rec.scale = 1;
    rec.frontend = FrontendKind::Record;
    rec.recordPath = path;
    sys::runExperiment(rec);
    const std::string file = fileBytes(path);

    MemTrace t;
    std::string err;
    ASSERT_TRUE(frontend::loadTraceFile(path, t, err)) << err;
    ASSERT_EQ(t.numThreads(), 16u);
    std::uint64_t record_bytes = 0;
    for (const OpStream &stream : t.threads) {
        EXPECT_TRUE(stream.tail.empty());
        ASSERT_FALSE(stream.pieces.empty());
        for (std::size_t i = 0; i < stream.pieces.size(); ++i) {
            const frontend::Piece &piece = stream.pieces[i];
            record_bytes += piece.length;
            if (i + 1 == stream.pieces.size())
                continue;
            // Cut at the first record boundary past kPieceBytes; only
            // a stream's last piece is shorter.
            EXPECT_GE(piece.length, frontend::kPieceBytes);
            EXPECT_EQ(piece.offset + piece.length,
                      stream.pieces[i + 1].offset);
        }
    }
    EXPECT_GT(t.totalOps(), 0u);

    // Everything else in the file is the header and one op-count
    // varint per stream: a copy with the records dropped measures it.
    MemTrace framing;
    framing.header = t.header;
    for (const OpStream &stream : t.threads) {
        OpStream counted;
        counted.ops = stream.ops;
        framing.threads.push_back(counted);
    }
    const std::string framing_path = testTempPath("framing.mtrace");
    ASSERT_TRUE(frontend::writeMtrace(framing_path, framing, err)) << err;
    EXPECT_EQ(record_bytes + std::filesystem::file_size(framing_path),
              file.size());

    const std::string back = testTempPath("encoded_back.mtrace");
    ASSERT_TRUE(frontend::writeMtrace(back, t, err)) << err;
    EXPECT_EQ(fileBytes(back), file);
}

TEST(Mtrace, LoadStraddlesItsReadWindow)
{
    // The reader decodes through a 64 KB window that it refills as it
    // goes and widens only while one record straddles it. Three
    // streams of 100K records make a file of many windows. An RMW with
    // 2,000 evaluation pairs starts 10 bytes before the first window
    // ends, and one with 10,000 pairs is wider than a whole window.
    constexpr std::size_t kWindow = 1 << 16;
    constexpr std::size_t kRecords = 100'000;
    constexpr std::uint64_t kWide = 0xFFFFFFFFull; // a 5-byte varint
    auto wideRmw = [](std::uint64_t evals) {
        Op op{OpKind::Rmw, cpu::SyncNote::External, 0x10000000, kWide,
              kWide - 1, {}};
        for (std::uint64_t e = 0; e < evals; ++e)
            op.evals.emplace_back(kWide + e, kWide - e);
        return op;
    };
    std::vector<std::vector<Op>> want(3);
    // A headerless trace: 11 header bytes, then thread 0's 3-byte op
    // count, then its 2-byte Compute records up to the straddling RMW.
    const std::size_t rmw_at = kWindow - 10;
    for (std::size_t at = 14; at < rmw_at; at += 2)
        want[0].push_back({OpKind::Compute, cpu::SyncNote::External, 0,
                           at % 100, 0, {}});
    want[0].push_back(wideRmw(2'000));
    while (want[0].size() < kRecords)
        want[0].push_back(
            {OpKind::Idle, cpu::SyncNote::External, 0, 7, 0, {}});
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        want[1].push_back({OpKind::Load, cpu::SyncNote::External,
                           64 * i * 977, 0, 0, {}});
        if (i == kRecords / 2)
            want[1].push_back(wideRmw(10'000));
        want[2].push_back({OpKind::Store, cpu::SyncNote::External,
                           0x20000000 + 64 * i, i, 0, {}});
    }
    MemTrace t;
    for (const auto &ops : want)
        t.threads.push_back(streamOf(ops));
    const std::string path = testTempPath("windows.mtrace");
    std::string err;
    ASSERT_TRUE(frontend::writeMtrace(path, t, err)) << err;
    const std::string file = fileBytes(path);
    ASSERT_GT(file.size(), 16 * kWindow);
    ASSERT_EQ(file[rmw_at - 2], static_cast<char>(OpKind::Compute));
    ASSERT_EQ(file[rmw_at], static_cast<char>(OpKind::Rmw));

    MemTrace back;
    ASSERT_TRUE(frontend::readMtrace(path, back, err)) << err;
    ASSERT_EQ(back.numThreads(), 3u);
    for (std::uint32_t tid = 0; tid < 3; ++tid)
        EXPECT_EQ(opsOf(back.threads[tid]), want[tid]) << tid;
    const std::string again = testTempPath("windows_back.mtrace");
    ASSERT_TRUE(frontend::writeMtrace(again, back, err)) << err;
    EXPECT_EQ(fileBytes(again), file);

    // Cut around the first 16 window boundaries, inside the straddling
    // RMW, and one byte short of the end: every cut is rejected.
    std::vector<std::size_t> cuts = {rmw_at + 1, rmw_at + 9000,
                                     file.size() - 1};
    for (std::size_t k = 1; k <= 16; ++k) {
        cuts.push_back(k * kWindow - 1);
        cuts.push_back(k * kWindow);
        cuts.push_back(k * kWindow + 1);
    }
    const std::string cut_path = testTempPath("windows_cut.mtrace");
    for (std::size_t cut : cuts) {
        {
            std::ofstream f(cut_path, std::ios::binary | std::ios::trunc);
            f.write(file.data(), static_cast<std::streamsize>(cut));
        }
        MemTrace out;
        EXPECT_FALSE(frontend::readMtrace(cut_path, out, err))
            << "cut at " << cut << " bytes";
        EXPECT_NE(err.find("truncated"), std::string::npos)
            << "cut at " << cut << ": " << err;
    }
}

TEST(Frontend, ReplayOutlivesUnlinkedRecording)
{
    // A loaded trace keeps its file open, so it replays the recording
    // it validated after the path is unlinked and reused.
    const std::string path = testTempPath("unlinked.mtrace");
    ExperimentSpec rec;
    rec.app = workload::findApp("fft");
    ASSERT_NE(rec.app, nullptr);
    rec.protocol = coherence::Protocol::WiDir;
    rec.cores = 16;
    rec.scale = 1;
    rec.frontend = FrontendKind::Record;
    rec.recordPath = path;
    const ExperimentResult recorded = sys::runExperiment(rec);
    const std::string file = fileBytes(path);

    MemTrace t;
    std::string err;
    ASSERT_TRUE(frontend::loadTraceFile(path, t, err)) << err;
    ASSERT_TRUE(std::filesystem::remove(path));
    {
        std::ofstream f(path, std::ios::trunc);
        f << "0 R 64\n";
    }

    const std::string back = testTempPath("unlinked_back.mtrace");
    ASSERT_TRUE(frontend::writeMtrace(back, t, err)) << err;
    EXPECT_EQ(fileBytes(back), file);

    // machineJson needs an ExperimentResult, which only runExperiment
    // builds, and it loads by path: compare the machine's own totals.
    sys::SystemConfig cfg = sys::SystemConfig::widir(16);
    cfg.seed = recorded.seed;
    sys::Manycore m(cfg);
    m.installFrontend({FrontendKind::ReplayFull, &t});
    EXPECT_EQ(m.run({}, 2'000'000'000ull), recorded.cycles);
    EXPECT_EQ(m.simulator().executedEvents(), recorded.executedEvents);
    const auto cpu = m.cpuTotals();
    EXPECT_EQ(cpu.instructions, recorded.instructions);
    EXPECT_EQ(cpu.loads, recorded.loads);
    EXPECT_EQ(cpu.stores + cpu.rmws, recorded.stores);
    EXPECT_EQ(m.l1Totals().readMisses, recorded.readMisses);
    EXPECT_EQ(m.mesh().messages(), recorded.wiredMessages);
}

TEST(Frontend, RecorderHoldsUnderOnePiecePerThread)
{
    // Each core's stream spills every full piece to one temporary file
    // that all cores share, so the recorder holds less than
    // kPieceBytes of records per core however long the run.
    constexpr std::uint32_t kThreads = 4;
    frontend::Recorder rec(kThreads);
    std::vector<std::vector<Op>> want(kThreads);
    for (std::uint64_t i = 0; i < 20'000; ++i) {
        for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
            const sim::Addr addr = 64 * (i * kThreads + tid);
            rec.sink(tid).store(addr, i);
            want[tid].push_back(
                {OpKind::Store, cpu::SyncNote::External, addr, i, 0, {}});
        }
    }
    const MemTrace t = rec.finish({});
    ASSERT_EQ(t.numThreads(), kThreads);
    // A Store record is at most 21 bytes: kind and two varints.
    constexpr std::size_t kMaxStoreRecord = 21;
    for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
        const OpStream &s = t.threads[tid];
        EXPECT_EQ(s.store, t.threads[0].store) << tid;
        EXPECT_LT(s.tail.size(), frontend::kPieceBytes) << tid;
        EXPECT_GT(s.pieces.size(), 10u) << tid;
        for (const frontend::Piece &piece : s.pieces) {
            EXPECT_GE(piece.length, frontend::kPieceBytes);
            EXPECT_LT(piece.length, frontend::kPieceBytes + kMaxStoreRecord);
        }
        EXPECT_EQ(opsOf(s), want[tid]) << tid;
    }
}

TEST(Frontend, RecorderKeepsRecordsBehindAnInFlightRmw)
{
    // An RMW's values arrive after it is issued; records issued in
    // between must still follow it in the stream. An RMW still in
    // flight at finish() is kept with old == new == 0.
    frontend::Recorder rec(1);
    cpu::OpSink &sink = rec.sink(0);
    sink.load(64, true);
    sink.rmw(128);
    sink.rmwEval(5, 6); // squashed speculative attempt
    sink.compute(3);
    sink.rmwEval(1, 2);
    sink.rmwResult(1, 2);
    sink.fence();
    sink.rmw(192);
    sink.idle(4);
    MemTrace t = rec.finish({});
    ASSERT_EQ(t.numThreads(), 1u);
    const std::vector<Op> want = {
        {OpKind::Load, cpu::SyncNote::External, 64, 0, 0, {}},
        {OpKind::Rmw, cpu::SyncNote::External, 128, 1, 2, {{5, 6}}},
        {OpKind::Compute, cpu::SyncNote::External, 0, 3, 0, {}},
        {OpKind::Fence, cpu::SyncNote::External, 0, 0, 0, {}},
        {OpKind::Rmw, cpu::SyncNote::External, 192, 0, 0, {}},
        {OpKind::Idle, cpu::SyncNote::External, 0, 4, 0, {}},
    };
    EXPECT_EQ(opsOf(t.threads[0]), want);
}

TEST(Frontend, SpecValidationCatchesBadCombinations)
{
    const AppInfo *fft = workload::findApp("fft");
    ASSERT_NE(fft, nullptr);

    ExperimentSpec s;
    s.app = fft;
    s.frontend = FrontendKind::Record;
    EXPECT_NE(s.validate().find("recordPath"), std::string::npos);
    s.recordPath = "x.mtrace";
    EXPECT_TRUE(s.validate().empty()) << s.validate();

    s = ExperimentSpec{};
    s.app = fft;
    s.recordPath = "x.mtrace"; // without frontend=record
    EXPECT_FALSE(s.validate().empty());

    s = ExperimentSpec{};
    s.app = fft;
    s.replayPath = "x.mtrace"; // without a replay frontend
    EXPECT_FALSE(s.validate().empty());

    s = ExperimentSpec{};
    s.app = fft;
    s.frontend = FrontendKind::ReplayFull; // no trace at all
    EXPECT_FALSE(s.validate().empty());

    s = ExperimentSpec{};
    s.frontend = FrontendKind::ReplayFull; // a replay needs no app
    s.replayPath = "x.mtrace";
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    s.frontend = FrontendKind::Coroutine; // ...but a kernel run does
    s.replayPath.clear();
    EXPECT_FALSE(s.validate().empty());
}

TEST(TextTrace, ReplaysThroughReplayPath)
{
    // An external text trace is a stimulus, not an app: replayPath
    // alone runs it, the core model re-drives it honoring the S-token
    // global order, and the result is named after the file's stem.
    std::string path = testTempPath("external.txt");
    {
        std::ofstream f(path, std::ios::trunc);
        f << "# two producers, one consumer line\n"
             "0 W 0x11000000 1\n"
             "0 S 1\n"
             "1 S 2\n"
             "1 R 0x11000000\n"
             "2 R 0x11000040\n"
             "2 W 0x11000040 9\n";
    }
    const std::string name =
        "trace:" + std::filesystem::path(path).stem().string();
    ExperimentSpec full;
    full.frontend = FrontendKind::ReplayFull;
    full.replayPath = path;
    full.protocol = coherence::Protocol::WiDir;
    full.cores = 4;
    ExperimentResult r = sys::runExperiment(full);
    EXPECT_EQ(r.frontendKind, FrontendKind::ReplayFull);
    EXPECT_EQ(r.replayPath, path);
    EXPECT_EQ(r.app, name);
    EXPECT_EQ(r.loads, 2u);
    EXPECT_EQ(r.stores, 2u);
    EXPECT_GT(r.cycles, 0u);

    // A replay ignores spec.app: the trace still names the run.
    full.app = workload::findApp("fft");
    EXPECT_EQ(sys::runExperiment(full).app, name);
}

} // namespace
