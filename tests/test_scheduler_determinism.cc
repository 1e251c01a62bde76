/**
 * @file
 * Cross-scheduler determinism: the hybrid calendar-wheel/heap event
 * queue must produce byte-identical simulation results to a pure
 * (tick, seq) heap. EventQueue::setForceHeapForTest routes every
 * schedule to the far-future heap; running whole experiments in both
 * modes and comparing the serialized widir-sweep-v1 result objects
 * pins the wheel's ordering (including same-tick wheel/heap ties) to
 * the reference semantics.
 *
 * The host_* wall-clock fields are the one legitimate difference
 * between two runs, so they are zeroed before serializing -- exactly
 * the rule docs/PERF.md gives for diffing sweep outputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "sim/event_queue.h"
#include "sim/log.h"
#include "system/report.h"
#include "temp_path.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using sys::ExperimentResult;
using sys::ExperimentSpec;

ExperimentSpec
specFor(const std::string &app, coherence::Protocol proto)
{
    ExperimentSpec spec;
    spec.app = workload::findApp(app);
    spec.protocol = proto;
    spec.cores = 16;
    spec.scale = 1;
    spec.seed = 7;
    return spec;
}

/** Run @p spec and serialize with the wall-clock fields zeroed. */
std::string
statsJson(const ExperimentSpec &spec, bool force_heap)
{
    sim::EventQueue::setForceHeapForTest(force_heap);
    ExperimentResult r = sys::runExperiment(spec);
    sim::EventQueue::setForceHeapForTest(false);
    r.hostSeconds = 0.0;
    r.hostEventsPerSec = 0.0;
    return sys::resultToJson(r);
}

/** Same, but through the bound/weave kernel with @p threads workers. */
std::string
statsJsonThreaded(ExperimentSpec spec, unsigned threads)
{
    spec.simThreads = threads;
    ExperimentResult r = sys::runExperiment(spec);
    r.hostSeconds = 0.0;
    r.hostEventsPerSec = 0.0;
    return sys::resultToJson(r);
}

/** 64-bit FNV-1a of @p bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Empty when @p a and @p b are equal, else their sizes, digests and
 * first differing byte offset. Chrome traces run to tens of MB, so a
 * failure must not print them whole.
 */
std::string
describeMismatch(const std::string &a, const std::string &b)
{
    if (a == b)
        return "";
    auto diff = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    return sim::strfmt(
        "sizes %zu vs %zu, fnv1a %016llx vs %016llx, first difference "
        "at byte %zu",
        a.size(), b.size(), static_cast<unsigned long long>(fnv1a(a)),
        static_cast<unsigned long long>(fnv1a(b)),
        static_cast<std::size_t>(diff.first - a.begin()));
}

// The app name is a std::string: gtest would print a const char *
// parameter with its address, a per-process pointer in the test name.
class SchedulerDeterminism
    : public ::testing::TestWithParam<
          std::tuple<std::string, coherence::Protocol>>
{
};

TEST_P(SchedulerDeterminism, HybridMatchesPureHeapByteForByte)
{
    auto [app, proto] = GetParam();
    ASSERT_NE(workload::findApp(app), nullptr);
    ExperimentSpec spec = specFor(app, proto);
    std::string hybrid = statsJson(spec, false);
    std::string heap_only = statsJson(spec, true);
    // executed_events, cycles, every histogram, every energy figure:
    // all of it must agree, not just the headline cycle count.
    EXPECT_EQ(hybrid, heap_only);
}

/**
 * The bound/weave kernel (sim/domains.h) defines one canonical event
 * schedule for all simThreads >= 1; the host thread count must be
 * invisible in the results. This is the determinism contract
 * docs/PERF.md states and the one the WIDIR_SIM_THREADS CI lane
 * relies on: stats at 1, 2, and 4 threads are byte-identical.
 */
TEST_P(SchedulerDeterminism, BoundWeaveThreadCountInvisible)
{
    auto [app, proto] = GetParam();
    ASSERT_NE(workload::findApp(app), nullptr);
    ExperimentSpec spec = specFor(app, proto);
    std::string one = statsJsonThreaded(spec, 1);
    std::string two = statsJsonThreaded(spec, 2);
    std::string four = statsJsonThreaded(spec, 4);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, four);
}

/**
 * Same contract for the protocol trace: the record stream (which the
 * legality checker consumes and the Chrome exporter serializes) must
 * not change with the host thread count either. Export the Chrome
 * trace-event JSON at each thread count and compare the files byte
 * for byte -- the exporter serializes records in emission order, so
 * equal files mean an equal stream. Each case writes its own files,
 * so the cases can run side by side under `ctest -j`.
 */
TEST_P(SchedulerDeterminism, BoundWeaveTraceThreadCountInvisible)
{
    auto [app, proto] = GetParam();
    ASSERT_NE(workload::findApp(app), nullptr);
    auto traced = [&](unsigned threads) {
        std::string path = test::testTempPath(
            "threads" + std::to_string(threads) + ".json");
        ExperimentSpec spec = specFor(app, proto);
        spec.simThreads = threads;
        spec.trace.enabled = true;
        spec.trace.file = path;
        sys::runExperiment(spec);
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << "missing trace file " << path;
        std::ostringstream body;
        body << in.rdbuf();
        std::remove(path.c_str());
        return body.str();
    };
    std::string one = traced(1);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(describeMismatch(one, traced(2)), "") << "1 vs 2 threads";
    EXPECT_EQ(describeMismatch(one, traced(4)), "") << "1 vs 4 threads";
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndProtocols, SchedulerDeterminism,
    ::testing::Values(
        std::make_tuple(std::string("radiosity"),
                        coherence::Protocol::WiDir),
        std::make_tuple(std::string("radiosity"),
                        coherence::Protocol::BaselineMESI),
        std::make_tuple(std::string("fft"), coherence::Protocol::WiDir),
        std::make_tuple(std::string("fft"),
                        coherence::Protocol::BaselineMESI)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        name += std::get<1>(info.param) == coherence::Protocol::WiDir
                    ? "_widir"
                    : "_baseline";
        return name;
    });

} // namespace
