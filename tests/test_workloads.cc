/**
 * @file
 * Full-system workload tests: every application kernel runs to
 * completion on both protocols, leaves the machine coherent, and
 * shows the qualitative characteristics its model claims (miss-rate
 * ordering, wireless usage for the high-sharing apps).
 */

#include <gtest/gtest.h>

#include "system/checker.h"
#include "system/manycore.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using sys::Manycore;
using sys::SystemConfig;
using workload::allApps;
using workload::AppInfo;
using workload::WorkloadParams;

struct RunResult
{
    sim::Tick cycles;
    double mpki;
    std::uint64_t wirelessWrites;
    std::uint64_t toWireless;
};

RunResult
runApp(const AppInfo &app, bool wireless, std::uint32_t cores,
       std::uint32_t scale = 1)
{
    SystemConfig cfg = wireless ? SystemConfig::widir(cores)
                                : SystemConfig::baseline(cores);
    Manycore m(cfg);
    WorkloadParams p;
    p.scale = scale;
    RunResult r{};
    r.cycles = m.run(workload::makeProgram(app, p), 200'000'000);
    auto violations = sys::checkCoherence(m);
    for (const auto &v : violations)
        ADD_FAILURE() << app.name << ": " << v;
    auto cpu = m.cpuTotals();
    auto l1 = m.l1Totals();
    r.mpki = cpu.instructions == 0
        ? 0.0
        : 1000.0 *
              static_cast<double>(l1.readMisses + l1.writeMisses) /
              static_cast<double>(cpu.instructions);
    r.wirelessWrites = l1.wirelessWrites;
    r.toWireless = m.dirTotals().toWireless;
    return r;
}

class AppP : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(AppP, RunsCoherentlyOnBothProtocols)
{
    const AppInfo &app = allApps().at(GetParam());
    RunResult base = runApp(app, false, 16);
    RunResult widir = runApp(app, true, 16);
    EXPECT_GT(base.cycles, 0u) << app.name;
    EXPECT_GT(widir.cycles, 0u) << app.name;
    EXPECT_EQ(base.wirelessWrites, 0u);
    EXPECT_EQ(base.toWireless, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppP, ::testing::Range<std::size_t>(0, 21),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string name = allApps().at(info.param).name;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(Workloads, RegistryIsComplete)
{
    ASSERT_EQ(allApps().size(), 21u);
    int splash = 0, parsec = 0, server = 0;
    for (const auto &app : allApps()) {
        std::string suite(app.suite);
        if (suite == "SPLASH-3")
            ++splash;
        else if (suite == "PARSEC")
            ++parsec;
        else if (suite == "SERVER")
            ++server;
        // Table IV tabulates MPKI for the paper suites only; the
        // server additions are off-table by design.
        if (suite == "SPLASH-3" || suite == "PARSEC") {
            EXPECT_GT(app.paperMpki, 0.0) << app.name;
        }
        EXPECT_NE(app.kernel, nullptr) << app.name;
    }
    EXPECT_EQ(splash, 13);
    EXPECT_EQ(parsec, 7);
    EXPECT_EQ(server, 1);
    EXPECT_NE(workload::findApp("radiosity"), nullptr);
    EXPECT_NE(workload::findApp("kvstore"), nullptr);
    EXPECT_EQ(workload::findApp("nonesuch"), nullptr);
}

TEST(Workloads, HighSharingAppsGoWireless)
{
    // The apps the paper calls out as high-benefit must actually move
    // lines to W and broadcast updates at 64 cores.
    for (const char *name :
         {"radiosity", "ocean-nc", "barnes", "raytrace"}) {
        const AppInfo *app = workload::findApp(name);
        ASSERT_NE(app, nullptr);
        RunResult r = runApp(*app, true, 64);
        EXPECT_GT(r.toWireless, 0u) << name;
        EXPECT_GT(r.wirelessWrites, 0u) << name;
    }
}

TEST(Workloads, PrivateComputeAppsBarelyUseWireless)
{
    const AppInfo *bs = workload::findApp("blackscholes");
    ASSERT_NE(bs, nullptr);
    RunResult r = runApp(*bs, true, 64);
    const AppInfo *rad = workload::findApp("radiosity");
    RunResult rr = runApp(*rad, true, 64);
    EXPECT_LT(r.wirelessWrites, rr.wirelessWrites / 4 + 1)
        << "blackscholes should use far fewer wireless writes";
}

TEST(Workloads, MpkiOrderingMatchesTableIV)
{
    // Coarse sanity: the highest-MPKI apps in Table IV must be well
    // above the lowest ones in our models too (Baseline, 16 cores).
    RunResult ocean = runApp(*workload::findApp("ocean-nc"), false, 16);
    RunResult lunc = runApp(*workload::findApp("lu-nc"), false, 16);
    RunResult water = runApp(*workload::findApp("water-spa"), false, 16);
    RunResult bs = runApp(*workload::findApp("blackscholes"), false, 16);
    EXPECT_GT(ocean.mpki, 3 * water.mpki);
    EXPECT_GT(lunc.mpki, 3 * bs.mpki);
    EXPECT_LT(bs.mpki, 3.0); // cold-start floor at tiny scale
    EXPECT_GT(ocean.mpki, 4.0);
}

} // namespace
