/**
 * @file
 * Frontend subsystem tests (docs/FRONTEND.md):
 *
 *  - extraction gate: recording is pure observation, and
 *    full-fidelity replay reproduces the recording -- both pinned
 *    across apps x protocols;
 *  - widir-mtrace-v1: every record kind round-trips; bad magic, bad
 *    version, unknown kinds, and truncation are rejected loudly;
 *  - text ingestion: the documented grammar parses, and a garbage
 *    matrix (parseEnvInt style) fails with line-numbered errors;
 *  - external text traces run as first-class registry workloads,
 *    replayed through the core model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "frontend/frontend.h"
#include "frontend/mtrace.h"
#include "system/report.h"
#include "temp_path.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using frontend::FrontendKind;
using frontend::MemTrace;
using frontend::Op;
using frontend::OpKind;
using sys::ExperimentResult;
using sys::ExperimentSpec;
using test::testTempPath;
using workload::AppInfo;

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

TEST(Mtrace, EveryKindRoundTrips)
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
    t.threads = {
        {{OpKind::Compute, cpu::SyncNote::External, 0, 100, 0},
         {OpKind::Load, cpu::SyncNote::External, 0x10000040, 0, 0},
         {OpKind::LoadNb, cpu::SyncNote::External, 0x10000080, 0, 0},
         {OpKind::Store, cpu::SyncNote::External, 0x100000C0, 42, 0},
         {OpKind::Rmw, cpu::SyncNote::External, 0x10000100, 7, 8},
         // A squashed-and-retried RMW carries its speculative modify
         // evaluations (mtrace.h) -- they must survive the round trip.
         {OpKind::Rmw,
          cpu::SyncNote::External,
          0x10000180,
          3,
          3,
          {{1, 2}, {9, 10}}},
         {OpKind::Idle, cpu::SyncNote::External, 0, 64, 0},
         {OpKind::Fence, cpu::SyncNote::External, 0, 0, 0},
         {OpKind::Sync, cpu::SyncNote::LockAcquire, 0x10000140, 17, 0}},
        {}, // an empty stream must survive too
        {{OpKind::Sync, cpu::SyncNote::BarrierArrive, 0, 33, 0}},
    };
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
    ASSERT_EQ(back.threads, t.threads);
    EXPECT_TRUE(back.hasSync());
    EXPECT_EQ(back.totalOps(), 10u);

    // loadTraceFile must sniff the binary magic and take this path.
    MemTrace sniffed;
    ASSERT_TRUE(frontend::loadTraceFile(path, sniffed, err)) << err;
    EXPECT_EQ(sniffed.threads, t.threads);
}

TEST(Mtrace, RejectsCorruptInput)
{
    // A valid trace to corrupt.
    MemTrace t;
    t.threads = {{{OpKind::Load, cpu::SyncNote::External, 64, 0, 0},
                  {OpKind::Store, cpu::SyncNote::External, 128, 1, 0}}};
    std::string good = testTempPath("good.mtrace");
    std::string err;
    ASSERT_TRUE(frontend::writeMtrace(good, t, err)) << err;
    std::string bytes;
    {
        std::ifstream f(good, std::ios::binary);
        ASSERT_TRUE(f.good());
        bytes.assign(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
    }
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
    ASSERT_TRUE(frontend::parseTextTrace("# demo trace\n"
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
    ASSERT_EQ(t.threads[0].size(), 2u);
    EXPECT_EQ(t.threads[0][0].kind, OpKind::Load);
    EXPECT_EQ(t.threads[0][0].addr, 0x1000u);
    EXPECT_EQ(t.threads[0][1].kind, OpKind::Sync);
    EXPECT_EQ(t.threads[0][1].a, 1u); // user ordering key
    ASSERT_EQ(t.threads[1].size(), 2u);
    EXPECT_EQ(t.threads[1][0].kind, OpKind::Store);
    EXPECT_EQ(t.threads[1][0].addr, 4096u);
    EXPECT_EQ(t.threads[1][0].a, 77u);
    EXPECT_EQ(t.threads[1][1].a, 0u); // value defaults to 0
    EXPECT_TRUE(t.threads[2].empty());
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
        EXPECT_FALSE(frontend::parseTextTrace(text, t, err)) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
    // Line numbers point at the offending line, not the file start.
    MemTrace t;
    std::string err;
    EXPECT_FALSE(
        frontend::parseTextTrace("0 R 64\n1 W 64 1\nbogus line\n", t,
                                 err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(Frontend, ValidateTraceRejectsUnreplayable)
{
    MemTrace t;
    EXPECT_FALSE(frontend::validateTrace(t, 4).empty()) << "no threads";

    t.threads.assign(8, {});
    t.threads[0].push_back(
        {OpKind::Load, cpu::SyncNote::External, 64, 0, 0});
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
    t.threads[1].push_back(
        {OpKind::Sync, cpu::SyncNote::External, 0, 5, 0});
    t.threads[1].push_back(
        {OpKind::Sync, cpu::SyncNote::External, 0, 4, 0});
    EXPECT_FALSE(frontend::validateTrace(t, 8).empty());
}

TEST(Frontend, SpecValidationCatchesBadCombinations)
{
    const AppInfo *fft = workload::findApp("fft");
    ASSERT_NE(fft, nullptr);
    const AppInfo *tapp = workload::registerTraceApp(
        "trace:validation", testTempPath("nonexistent.trc"));

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
    s.app = tapp; // trace app: replay path comes from the registry
    EXPECT_TRUE(s.validate().empty()) << s.validate();
    s.replayPath = "other.trc"; // ...so an explicit one is ambiguous
    EXPECT_FALSE(s.validate().empty());

    s = ExperimentSpec{};
    s.app = tapp;
    s.frontend = FrontendKind::Record; // nothing to record
    s.recordPath = "x.mtrace";
    EXPECT_FALSE(s.validate().empty());
}

TEST(TextTrace, RunsAsRegistryWorkloadUnderBothReplayers)
{
    // An external text trace is a first-class workload: registered,
    // found, and runnable both ways -- explicitly as replay-full, and
    // through the default frontend's auto-upgrade. Either way the core
    // model re-drives it, honoring the S-token global order.
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
    const AppInfo *app =
        workload::registerTraceApp("trace:external", path);
    ASSERT_NE(app, nullptr);
    ASSERT_EQ(workload::findApp("trace:external"), app);

    ExperimentSpec full;
    full.app = app;
    full.frontend = FrontendKind::ReplayFull;
    full.protocol = coherence::Protocol::WiDir;
    full.cores = 4;
    ExperimentResult r = sys::runExperiment(full);
    EXPECT_EQ(r.frontendKind, FrontendKind::ReplayFull);
    EXPECT_EQ(r.replayPath, path);
    EXPECT_EQ(r.app, "trace:external");
    EXPECT_EQ(r.loads, 2u);
    EXPECT_EQ(r.stores, 2u);
    EXPECT_GT(r.cycles, 0u);

    // The default frontend auto-upgrades to full replay for trace
    // apps -- `--trace-in` workloads run without any extra flags.
    ExperimentSpec s;
    s.app = app;
    s.cores = 4;
    ExperimentResult def = sys::runExperiment(s);
    EXPECT_EQ(def.frontendKind, FrontendKind::ReplayFull);
}

} // namespace
