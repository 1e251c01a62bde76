/**
 * @file
 * Tests of the energy model and the experiment runner: component
 * accounting, parameter monotonicity, calibration properties (the
 * Baseline share targets of Fig. 9), and the ExperimentResult metric
 * plumbing including the Table VI configuration rules.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "energy/energy_model.h"
#include "system/experiment.h"
#include "system/report.h"

namespace {

using namespace widir;
using energy::computeEnergy;
using energy::EnergyInputs;
using energy::EnergyParams;

EnergyInputs
someInputs()
{
    EnergyInputs in;
    in.cycles = 10'000;
    in.numCores = 64;
    in.instructions = 1'000'000;
    in.l1Accesses = 900'000;
    in.l2Accesses = 30'000;
    in.l2DataAccesses = 20'000;
    in.routerTraversals = 120'000;
    in.flitHops = 300'000;
    return in;
}

TEST(EnergyModel, ZeroInputsZeroEnergy)
{
    EnergyInputs in;
    auto e = computeEnergy(in);
    EXPECT_DOUBLE_EQ(e.total(), 0.0);
}

TEST(EnergyModel, ComponentsAreAdditive)
{
    auto e = computeEnergy(someInputs());
    EXPECT_DOUBLE_EQ(e.total(),
                     e.core + e.l1 + e.l2dir + e.noc + e.wnoc);
    EXPECT_GT(e.core, 0.0);
    EXPECT_GT(e.l1, 0.0);
    EXPECT_GT(e.l2dir, 0.0);
    EXPECT_GT(e.noc, 0.0);
    EXPECT_DOUBLE_EQ(e.wnoc, 0.0); // no WNoC present
}

TEST(EnergyModel, WnocOnlyWhenPresent)
{
    EnergyInputs in = someInputs();
    in.wnocPresent = true;
    in.wnocBusyCycles = 1'000;
    in.wnocFrames = 200;
    auto with = computeEnergy(in);
    EXPECT_GT(with.wnoc, 0.0);
    in.wnocBusyCycles = 2'000;
    auto more = computeEnergy(in);
    EXPECT_GT(more.wnoc, with.wnoc);
}

TEST(EnergyModel, MoreEventsMoreEnergy)
{
    EnergyInputs a = someInputs();
    EnergyInputs b = a;
    b.instructions *= 2;
    b.flitHops *= 2;
    auto ea = computeEnergy(a);
    auto eb = computeEnergy(b);
    EXPECT_GT(eb.core, ea.core);
    EXPECT_GT(eb.noc, ea.noc);
    EXPECT_DOUBLE_EQ(eb.l1, ea.l1); // untouched component unchanged
}

TEST(EnergyModel, StaticEnergyScalesWithCyclesAndTiles)
{
    EnergyInputs a = someInputs();
    a.instructions = 0;
    a.l1Accesses = 0;
    a.l2Accesses = 0;
    a.l2DataAccesses = 0;
    a.routerTraversals = 0;
    a.flitHops = 0;
    auto e1 = computeEnergy(a);
    a.cycles *= 3;
    auto e3 = computeEnergy(a);
    EXPECT_NEAR(e3.total(), 3.0 * e1.total(), 1e-6);
}

TEST(Experiment, MetricsDeriveFromCounts)
{
    sys::ExperimentResult r;
    r.instructions = 100'000;
    r.readMisses = 120;
    r.writeMisses = 80;
    EXPECT_DOUBLE_EQ(r.mpki(), 2.0);
    EXPECT_DOUBLE_EQ(r.readMpki(), 1.2);
    EXPECT_DOUBLE_EQ(r.writeMpki(), 0.8);
    r.totalCoreCycles = 1000;
    r.memStallCycles = 250;
    EXPECT_DOUBLE_EQ(r.memStallFraction(), 0.25);
}

TEST(Experiment, RunsAnAppAndFillsEverything)
{
    sys::ExperimentSpec spec;
    spec.app = workload::findApp("volrend");
    ASSERT_NE(spec.app, nullptr);
    spec.cores = 16;
    spec.scale = 1;
    spec.protocol = coherence::Protocol::WiDir;
    auto r = sys::runExperiment(spec);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_EQ(r.cores, 16u);
    EXPECT_EQ(r.hopBinCounts.size(), 5u);
    EXPECT_EQ(r.sharersUpdatedBins.size(), 5u);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_GT(r.energy.wnoc, 0.0);
    EXPECT_GE(r.collisionProbability, 0.0);
    EXPECT_LE(r.collisionProbability, 1.0);
}

TEST(Experiment, BaselineHasNoWirelessActivity)
{
    sys::ExperimentSpec spec;
    spec.app = workload::findApp("volrend");
    spec.cores = 16;
    spec.scale = 1;
    spec.protocol = coherence::Protocol::BaselineMESI;
    auto r = sys::runExperiment(spec);
    EXPECT_EQ(r.wirelessWrites, 0u);
    EXPECT_EQ(r.toWireless, 0u);
    EXPECT_DOUBLE_EQ(r.energy.wnoc, 0.0);
}

TEST(Experiment, DeterministicAcrossRuns)
{
    sys::ExperimentSpec spec;
    spec.app = workload::findApp("fmm");
    spec.cores = 16;
    spec.scale = 1;
    spec.protocol = coherence::Protocol::WiDir;
    auto a = sys::runExperiment(spec);
    auto b = sys::runExperiment(spec);
    EXPECT_EQ(sys::machineJson(a), sys::machineJson(b));
    spec.seed = 99;
    auto c = sys::runExperiment(spec);
    EXPECT_NE(a.cycles, c.cycles); // timing is seed-sensitive
}

TEST(Experiment, MaxWiredSharersSweepGrowsPointers)
{
    // Table VI: thresholds 4 and 5 require Dir_4B / Dir_5B; the run
    // must not trip the configuration assert and must still work.
    sys::ExperimentSpec spec;
    spec.app = workload::findApp("volrend");
    spec.cores = 16;
    spec.scale = 1;
    spec.protocol = coherence::Protocol::WiDir;
    for (std::uint32_t mws : {2u, 3u, 4u, 5u}) {
        spec.maxWiredSharers = mws;
        auto r = sys::runExperiment(spec);
        EXPECT_GT(r.cycles, 0u) << "mws=" << mws;
    }
    // The directory's sharer pointers are inline (SharerPtrs): the
    // widest threshold they hold validates, the next one is refused
    // up front instead of panicking in the directory's constructor.
    spec.maxWiredSharers = 8;
    EXPECT_EQ(spec.validate(), "");
    spec.maxWiredSharers = 9;
    EXPECT_NE(spec.validate().find("maxWiredSharers"), std::string::npos);
}

TEST(Experiment, ValidateBoundsCoresBySharerBitsWidth)
{
    // Every node id must fit the directory's sharer bitset: the
    // widest machine validates, one more tile is refused up front
    // (naming the limit) instead of panicking mid-run.
    sys::ExperimentSpec spec;
    spec.app = workload::findApp("fft");
    spec.cores = sys::kMaxCores;
    EXPECT_EQ(spec.validate(), "");
    spec.cores = sys::kMaxCores + 1;
    const std::string err = spec.validate();
    EXPECT_NE(err.find("cores must be at most 1024"), std::string::npos)
        << err;
}

TEST(Experiment, BenchScaleReadsEnvironment)
{
    unsetenv("WIDIR_BENCH_SCALE");
    EXPECT_EQ(sys::benchScale(3), 3u);
    setenv("WIDIR_BENCH_SCALE", "7", 1);
    EXPECT_EQ(sys::benchScale(3), 7u);
    setenv("WIDIR_BENCH_SCALE", "bogus", 1);
    EXPECT_EQ(sys::benchScale(3), 3u);
    unsetenv("WIDIR_BENCH_SCALE");
}

} // namespace
