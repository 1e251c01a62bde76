/**
 * @file
 * Fault-injection subsystem tests (docs/FAULTS.md): FaultSpec
 * validation, FaultModel determinism, channel-level
 * detect/retry/drop behaviour, tone-pulse loss, and full-experiment
 * resilience. runExperiment runs the coherence checker and -- when
 * tracing -- the trace-legality checker fatally, so every faulted
 * experiment below doubles as an end-to-end protocol-safety check.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "system/experiment.h"
#include "system/report.h"
#include "wireless/data_channel.h"
#include "wireless/tone_channel.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using fault::FaultModel;
using fault::FaultSpec;
using fault::FrameFate;

// ---------------------------------------------------------------------
// FaultSpec validation
// ---------------------------------------------------------------------

TEST(FaultSpec, DefaultIsValidAndDisabled)
{
    FaultSpec spec;
    EXPECT_EQ(spec.validate(), "");
    EXPECT_FALSE(spec.enabled());
}

TEST(FaultSpec, FullyPopulatedIsValidAndEnabled)
{
    FaultSpec spec;
    spec.ber = 1e-4;
    spec.preambleLossProb = 0.01;
    spec.toneLossProb = 0.01;
    spec.burstBer = 1e-2;
    spec.burstEnterProb = 0.001;
    spec.burstExitProb = 0.25;
    EXPECT_EQ(spec.validate(), "");
    EXPECT_TRUE(spec.enabled());
}

TEST(FaultSpec, RejectsOutOfRangeProbabilities)
{
    FaultSpec spec;
    spec.ber = -0.1;
    EXPECT_NE(spec.validate(), "");
    spec.ber = 1.5;
    EXPECT_NE(spec.validate(), "");
    spec.ber = std::nan("");
    EXPECT_NE(spec.validate(), "");
    spec.ber = 1.0; // inclusive upper bound is allowed
    EXPECT_EQ(spec.validate(), "");
}

TEST(FaultSpec, RejectsInconsistentKnobs)
{
    FaultSpec spec;
    spec.burstEnterProb = 0.1;
    spec.burstBer = 0.5;
    spec.burstExitProb = 0.0; // bursts could start but never end
    EXPECT_NE(spec.validate(), "");

    FaultSpec bits;
    bits.ber = 1e-3;
    bits.frameBits = 0;
    EXPECT_NE(bits.validate(), "");

    FaultSpec budget;
    budget.ber = 1e-3;
    budget.retryBudget = 0;
    EXPECT_NE(budget.validate(), "");
}

TEST(FaultSpec, JoinsMultipleProblems)
{
    FaultSpec spec;
    spec.ber = -1.0;
    spec.toneLossProb = 2.0;
    std::string err = spec.validate();
    EXPECT_NE(err.find(';'), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// FaultModel sampling
// ---------------------------------------------------------------------

TEST(FaultModel, DeterministicForEqualSeeds)
{
    FaultSpec spec;
    spec.ber = 1e-3;
    spec.preambleLossProb = 0.05;
    spec.toneLossProb = 0.05;
    spec.burstBer = 0.1;
    spec.burstEnterProb = 0.01;
    spec.burstExitProb = 0.2;
    FaultModel a(spec, sim::Rng(42, 7));
    FaultModel b(spec, sim::Rng(42, 7));
    for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(a.sampleFrame(), b.sampleFrame()) << "draw " << i;
        ASSERT_EQ(a.sampleToneLoss(), b.sampleToneLoss()) << i;
    }
    EXPECT_EQ(a.framesSampled(), 2000u);
    EXPECT_EQ(a.burstsEntered(), b.burstsEntered());
}

TEST(FaultModel, BerOneCorruptsEveryFrame)
{
    FaultSpec spec;
    spec.ber = 1.0;
    FaultModel m(spec, sim::Rng(1, 0));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(m.sampleFrame(), FrameFate::Corrupt);
    EXPECT_FALSE(m.sampleToneLoss()); // toneLossProb defaults to 0
}

TEST(FaultModel, PreambleLossBeatsCorruption)
{
    FaultSpec spec;
    spec.ber = 1.0;
    spec.preambleLossProb = 1.0;
    FaultModel m(spec, sim::Rng(1, 0));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(m.sampleFrame(), FrameFate::PreambleLoss);
}

TEST(FaultModel, GilbertElliottBurstsRaiseTheErrorRate)
{
    FaultSpec spec;
    spec.burstBer = 1.0;      // certain corruption inside a burst
    spec.burstEnterProb = 1.0; // enter immediately...
    spec.burstExitProb = 1.0;  // ...but only one frame per burst
    FaultModel m(spec, sim::Rng(3, 1));
    EXPECT_TRUE(spec.enabled());
    // enter/exit alternate: odd samples are in-burst and corrupt.
    EXPECT_EQ(m.sampleFrame(), FrameFate::Corrupt);
    EXPECT_EQ(m.sampleFrame(), FrameFate::Clean);
    EXPECT_EQ(m.sampleFrame(), FrameFate::Corrupt);
    EXPECT_GE(m.burstsEntered(), 2u);
}

// ---------------------------------------------------------------------
// DataChannel resilience
// ---------------------------------------------------------------------

wireless::Frame
updFrame(sim::NodeId src, sim::Addr line)
{
    wireless::Frame f;
    f.src = src;
    f.kind = wireless::FrameKind::WirUpd;
    f.lineAddr = line;
    f.wordAddr = line;
    f.value = 1;
    return f;
}

TEST(DataChannelFault, RetriesThenDropsAtBerOne)
{
    sim::Simulator s;
    wireless::DataChannelConfig cfg;
    cfg.numNodes = 4;
    wireless::DataChannel ch(s, cfg);
    FaultSpec spec;
    spec.ber = 1.0;
    spec.retryBudget = 3;
    FaultModel model(spec, s.makeRng(99));
    ch.setFaultModel(&model);

    int commits = 0, fails = 0;
    int delivered = 0;
    for (sim::NodeId n = 0; n < 4; ++n)
        ch.setReceiver(n, [&delivered](const wireless::Frame &) {
            ++delivered;
        });
    ch.transmit(updFrame(0, 0x1000), [&] { ++commits; },
                [&] { ++fails; });
    s.run();

    EXPECT_EQ(commits, 0);
    EXPECT_EQ(fails, 1);
    EXPECT_EQ(delivered, 0); // a corrupted frame never delivers
    // budget retries plus the final budget-exceeded attempt.
    EXPECT_EQ(ch.crcErrors(), 4u);
    EXPECT_EQ(ch.faultRetries(), 3u);
    EXPECT_EQ(ch.faultDrops(), 1u);
    EXPECT_EQ(ch.successes(), 0u);
}

TEST(DataChannelFault, PreambleLossAlsoRetries)
{
    sim::Simulator s;
    wireless::DataChannelConfig cfg;
    cfg.numNodes = 4;
    wireless::DataChannel ch(s, cfg);
    FaultSpec spec;
    spec.preambleLossProb = 1.0;
    spec.retryBudget = 2;
    FaultModel model(spec, s.makeRng(5));
    ch.setFaultModel(&model);

    int fails = 0;
    ch.transmit(updFrame(1, 0x2000), [] {}, [&] { ++fails; });
    s.run();
    EXPECT_EQ(fails, 1);
    EXPECT_EQ(ch.preambleLosses(), 3u);
    EXPECT_EQ(ch.crcErrors(), 0u);
    EXPECT_EQ(ch.faultDrops(), 1u);
}

TEST(DataChannelFault, CleanChannelIgnoresOnFail)
{
    sim::Simulator s;
    wireless::DataChannelConfig cfg;
    cfg.numNodes = 4;
    wireless::DataChannel ch(s, cfg);
    int commits = 0, fails = 0;
    ch.transmit(updFrame(0, 0x1000), [&] { ++commits; },
                [&] { ++fails; });
    s.run();
    EXPECT_EQ(commits, 1);
    EXPECT_EQ(fails, 0);
    EXPECT_EQ(ch.crcErrors(), 0u);
    EXPECT_EQ(ch.faultRetries(), 0u);
}

// ---------------------------------------------------------------------
// ToneChannel resilience
// ---------------------------------------------------------------------

TEST(ToneChannelFault, MissedSilencePulseRepolls)
{
    sim::Simulator s;
    wireless::ToneChannel tone(s, 4);
    FaultSpec spec;
    spec.toneLossProb = 1.0; // every observation misses...
    spec.retryBudget = 3;    // ...until the budget caps the re-polls
    FaultModel model(spec, s.makeRng(11));
    tone.setFaultModel(&model);

    sim::Tick done_at = 0;
    int fired = 0;
    tone.beginCensus(2, [&] {
        ++fired;
        done_at = s.now();
    });
    s.schedule(3, [&tone] { tone.drop(); });
    s.schedule(5, [&tone] { tone.drop(); });
    s.run();

    EXPECT_EQ(fired, 1); // latency only: the census still completes
    EXPECT_EQ(tone.toneRetries(), 3u);
    // Clean delivery would be at drop(5) + 1 cycle of tone latency.
    EXPECT_GT(done_at, 6u);
}

TEST(ToneChannelFault, CleanChannelTimingUnchanged)
{
    sim::Simulator s;
    wireless::ToneChannel tone(s, 4);
    sim::Tick done_at = 0;
    tone.beginCensus(1, [&] { done_at = s.now(); });
    s.schedule(3, [&tone] { tone.drop(); });
    s.run();
    EXPECT_EQ(done_at, 4u);
    EXPECT_EQ(tone.toneRetries(), 0u);
}

// ---------------------------------------------------------------------
// Full-experiment resilience
// ---------------------------------------------------------------------

sys::ExperimentSpec
widirSpec(const char *app, std::uint32_t cores)
{
    sys::ExperimentSpec spec;
    spec.app = workload::findApp(app);
    EXPECT_NE(spec.app, nullptr);
    spec.protocol = coherence::Protocol::WiDir;
    spec.cores = cores;
    spec.scale = 1;
    return spec;
}

TEST(FaultExperiment, ModerateBerDegradesGracefully)
{
    sys::ExperimentSpec spec = widirSpec("fft", 8);
    spec.fault.ber = 0.02;     // ~80% per-frame corruption at 80 bits
    spec.fault.retryBudget = 1; // force frequent budget exhaustion
    spec.trace.enabled = true;  // trace-legality checker runs fatally

    sys::ExperimentResult r = sys::runExperiment(spec);
    EXPECT_TRUE(r.faultInjection);
    EXPECT_GT(r.frameCrcErrors, 0u);
    EXPECT_GT(r.faultRetries, 0u);
    EXPECT_GT(r.frameFaultDrops, 0u);
    EXPECT_GT(r.wirelessFallbacks, 0u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(FaultExperiment, TotalLossStillCompletes)
{
    // BER 1.0: no wireless frame ever gets through; every wireless
    // transaction must re-route onto the wired mesh and the program
    // must still finish coherent.
    sys::ExperimentSpec spec = widirSpec("fft", 8);
    spec.fault.ber = 1.0;
    spec.fault.retryBudget = 2;
    spec.trace.enabled = true;

    sys::ExperimentResult r = sys::runExperiment(spec);
    EXPECT_EQ(r.wirelessWrites, 0u); // nothing ever committed
    EXPECT_GT(r.wirelessFallbacks, 0u);
    EXPECT_GT(r.frameFaultDrops, 0u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(FaultExperiment, FaultedRunsAreDeterministic)
{
    sys::ExperimentSpec spec = widirSpec("fft", 8);
    spec.fault.ber = 0.01;
    spec.fault.preambleLossProb = 0.02;
    spec.fault.toneLossProb = 0.02;
    sys::ExperimentResult a = sys::runExperiment(spec);
    sys::ExperimentResult b = sys::runExperiment(spec);
    EXPECT_EQ(sys::machineJson(a), sys::machineJson(b));
    EXPECT_EQ(a.hostMsgpoolGrew, b.hostMsgpoolGrew);
    EXPECT_EQ(a.hostMapRehashes, b.hostMapRehashes);
}

TEST(FaultExperiment, DisabledSpecIsByteIdenticalToDefault)
{
    // An explicitly written all-zero FaultSpec arms nothing: the run
    // must match a default-constructed spec bit for bit, fault seed
    // and retry budget included (they only matter once enabled).
    sys::ExperimentSpec plain = widirSpec("fft", 8);
    sys::ExperimentSpec zeroed = widirSpec("fft", 8);
    zeroed.fault.ber = 0.0;
    zeroed.fault.seed = 1234;
    zeroed.fault.retryBudget = 2;
    sys::ExperimentResult a = sys::runExperiment(plain);
    sys::ExperimentResult b = sys::runExperiment(zeroed);
    EXPECT_FALSE(a.faultInjection);
    EXPECT_FALSE(b.faultInjection);
    std::string ja = sys::machineJson(a);
    std::string jb = sys::machineJson(b);
    EXPECT_EQ(ja, jb);
    EXPECT_EQ(a.hostMsgpoolGrew, b.hostMsgpoolGrew);
    EXPECT_EQ(a.hostMapRehashes, b.hostMapRehashes);
    EXPECT_EQ(ja.find("\"fault\""), std::string::npos)
        << "clean runs must not emit the fault block";
}

TEST(FaultExperiment, BaselineIgnoresFaultSpec)
{
    // Wired-only protocols have no wireless channel to disturb; a
    // sweep-wide FaultSpec must be harmless there.
    sys::ExperimentSpec spec = widirSpec("fft", 8);
    spec.protocol = coherence::Protocol::BaselineMESI;
    spec.fault.ber = 1.0;
    sys::ExperimentResult r = sys::runExperiment(spec);
    EXPECT_FALSE(r.faultInjection);
    EXPECT_EQ(r.frameCrcErrors, 0u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(FaultExperiment, InvalidSpecIsRejected)
{
    sys::ExperimentSpec spec = widirSpec("fft", 8);
    spec.fault.ber = 2.0;
    EXPECT_NE(spec.validate(), "");
    spec.fault.ber = 0.5;
    spec.trace.file = "somewhere.json"; // file without enabled
    EXPECT_NE(spec.validate(), "");
    spec.trace.enabled = true;
    EXPECT_EQ(spec.validate(), "");
}

} // namespace
