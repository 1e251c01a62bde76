/**
 * @file
 * Liveness and coherence of whole WiDir runs on small machines.
 *
 *  - Pinned repros of the W->S downgrade ack double count: a node that
 *    acked the WirDwgr and then evicted its S copy was subtracted from
 *    the expected acks a second time, so the downgrade finished one ack
 *    early and the last survivor was lost (docs/PROTOCOL.md, "The
 *    W->S ack-then-PutS race"). Each case failed before the fix with
 *    the symptom named in its comment.
 *  - A fixed-seed liveness sweep: every app x {Interleave, Hash} at
 *    8 tiles, traced (strict legality checking), seeds including the
 *    repro seeds. tests/liveness_fuzz.cc runs the long version
 *    (`ctest -C fuzz`).
 *  - The watchdog dumps every outstanding transaction and pending
 *    wireless frame before its fatal.
 *
 * runExperiment() is fatal on a hang, an incoherent machine or an
 * illegal trace, so each case simply has to return.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "system/experiment.h"
#include "system/manycore.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using sys::ExperimentSpec;

ExperimentSpec
widirSpec(const char *app, std::uint64_t seed, mem::HomeMap map,
          bool traced)
{
    ExperimentSpec spec;
    spec.app = workload::findApp(app);
    spec.protocol = coherence::Protocol::WiDir;
    spec.cores = 8;
    spec.scale = 1;
    spec.seed = seed;
    spec.homeMap = map;
    spec.trace.enabled = traced;
    return spec;
}

void
runOk(const ExperimentSpec &spec)
{
    ASSERT_NE(spec.app, nullptr);
    sys::ExperimentResult r = sys::runExperiment(spec);
    EXPECT_GT(r.cycles, 0u);
}

// Before the fix: fatal "line 0x10000040: SharerCount 7 but 8 W copies".
TEST(DowngradeRace, BarnesSeed38InterleaveTraced)
{
    runOk(widirSpec("barnes", 38, mem::HomeMap::Interleave, true));
}

// The same run untraced: the end-of-run coherence check alone fails.
TEST(DowngradeRace, BarnesSeed38InterleaveUntraced)
{
    runOk(widirSpec("barnes", 38, mem::HomeMap::Interleave, false));
}

// Before the fix: watchdog hang (a downgrade waiting for a lost ack).
TEST(DowngradeRace, LuNcSeed5HashTraced)
{
    runOk(widirSpec("lu-nc", 5, mem::HomeMap::Hash, true));
}

// Before the fix: SWMR violation at tick 24550, seen only by the
// streaming legality checker.
TEST(DowngradeRace, BarnesSeed5HashTraced)
{
    runOk(widirSpec("barnes", 5, mem::HomeMap::Hash, true));
}

// A watchdog far shorter than one memory fetch: the dump names core
// 0's open miss and its home's Fetch before the fatal.
TEST(WatchdogDeathTest, DumpsOutstandingStateBeforeFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            sys::Manycore m(sys::SystemConfig::widir(4));
            m.run(
                [](cpu::Thread &t) -> cpu::Task {
                    if (t.id() == 0)
                        co_await t.load(0x100000);
                    co_return;
                },
                40);
        },
        ::testing::ExitedWithCode(1),
        "watchdog: outstanding at tick 40\n"
        "  L1 0: line 0x100000 GetS ops 1 retries 0\n"
        "  dir 0: line 0x100000 Fetch requester 0 acksExpected 0 "
        "acksReceived 0 ackIds \\{\\}\n"
        ".*did not quiesce within 40 cycles");
}

/** Every registered app, by name (parameter of the liveness sweep). */
std::vector<std::string>
appNames()
{
    std::vector<std::string> names;
    for (const workload::AppInfo &a : workload::allApps())
        names.push_back(a.name);
    return names;
}

class LivenessSweep : public ::testing::TestWithParam<std::string>
{};

// Every seed that failed before the downgrade fix, on both home maps.
TEST_P(LivenessSweep, EightTilesTraced)
{
    for (mem::HomeMap map : {mem::HomeMap::Interleave, mem::HomeMap::Hash})
        for (std::uint64_t seed : {5, 6, 7, 23, 26, 35, 38})
            runOk(widirSpec(GetParam().c_str(), seed, map, true));
}

INSTANTIATE_TEST_SUITE_P(
    Apps, LivenessSweep, ::testing::ValuesIn(appNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string id = info.param;
        for (char &c : id)
            if (c == '-')
                c = '_';
        return id;
    });

} // namespace
