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

#include <string>
#include <tuple>

#include "sim/event_queue.h"
#include "system/report.h"
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

ExperimentResult
runWith(const ExperimentSpec &spec, bool force_heap)
{
    sim::EventQueue::setForceHeapForTest(force_heap);
    ExperimentResult r = sys::runExperiment(spec);
    sim::EventQueue::setForceHeapForTest(false);
    return r;
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
    ExperimentResult hybrid = runWith(spec, false);
    ExperimentResult heap_only = runWith(spec, true);
    // executed_events, cycles, every histogram, every energy figure:
    // all of it must agree, not just the headline cycle count.
    EXPECT_EQ(sys::machineJson(hybrid), sys::machineJson(heap_only));
    EXPECT_EQ(hybrid.hostMsgpoolGrew, heap_only.hostMsgpoolGrew);
    EXPECT_EQ(hybrid.hostMapRehashes, heap_only.hostMapRehashes);
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
