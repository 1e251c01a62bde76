/**
 * @file
 * Fault-injection subsystem tests (docs/FAULTS.md): FaultSpec
 * validation, FaultModel determinism, channel-level detect/retry
 * behaviour (a faulted frame retries until it is delivered), tone-pulse
 * loss, and full-experiment resilience. runExperiment runs the coherence checker and -- when
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
    spec.ber = 0.1;
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
}

TEST(FaultSpec, RejectsSpecsUnderWhichNoFrameGetsThrough)
{
    // A faulted frame retries until it is delivered, so a spec that
    // faults every frame would never finish a run.
    FaultSpec ber_one;
    ber_one.ber = 1.0;
    EXPECT_NE(ber_one.validate(), "");

    FaultSpec ber_half;
    ber_half.ber = 0.5; // 1 - 0.5^80 rounds to certain corruption
    EXPECT_NE(ber_half.validate(), "");

    FaultSpec preamble;
    preamble.preambleLossProb = 1.0;
    EXPECT_NE(preamble.validate(), "");

    // Certain loss inside bursts, or of every silence pulse, still
    // lets frames and censuses through.
    FaultSpec burst;
    burst.burstBer = 1.0;
    burst.burstEnterProb = 1.0;
    burst.burstExitProb = 0.5;
    EXPECT_EQ(burst.validate(), "");
    FaultSpec tone;
    tone.toneLossProb = 1.0;
    EXPECT_EQ(tone.validate(), "");
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
    // BER 1 in a burst that practically never ends. (BER 1 in the good
    // state is refused, since no frame would ever get through; a burst
    // always ends.)
    FaultSpec spec;
    spec.burstBer = 1.0;
    spec.burstEnterProb = 1.0;
    spec.burstExitProb = 1e-9;
    FaultModel m(spec, sim::Rng(1, 0));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(m.sampleFrame(), FrameFate::Corrupt);
    EXPECT_FALSE(m.sampleToneLoss()); // toneLossProb defaults to 0
}

TEST(FaultModel, CorruptionRateFollowsBer)
{
    FaultSpec spec;
    spec.ber = 0.02; // 1 - 0.98^80: about 80% of frames corrupt
    FaultModel m(spec, sim::Rng(1, 0));
    int corrupt = 0;
    for (int i = 0; i < 2000; ++i) {
        FrameFate fate = m.sampleFrame();
        EXPECT_NE(fate, FrameFate::PreambleLoss); // probability 0
        corrupt += fate == FrameFate::Corrupt;
    }
    EXPECT_NEAR(corrupt, 1602, 100);
}

TEST(FaultModel, PreambleLossBeatsCorruption)
{
    // Every sample draws the same three values whatever the rates, so
    // two models on one seed see the same corruption draws: adding
    // preamble loss may only turn a fate into PreambleLoss, and does so
    // for some corrupted frames.
    FaultSpec corrupt_only;
    corrupt_only.ber = 0.02;
    FaultSpec both = corrupt_only;
    both.preambleLossProb = 0.5;
    FaultModel a(corrupt_only, sim::Rng(1, 0));
    FaultModel b(both, sim::Rng(1, 0));
    int hidden = 0;
    for (int i = 0; i < 200; ++i) {
        FrameFate fa = a.sampleFrame();
        FrameFate fb = b.sampleFrame();
        if (fb != fa) {
            EXPECT_EQ(fb, FrameFate::PreambleLoss) << "draw " << i;
            hidden += fa == FrameFate::Corrupt;
        }
    }
    EXPECT_GT(hidden, 0);
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

TEST(DataChannelFault, CorruptFramesRetryUntilDelivered)
{
    sim::Simulator s;
    wireless::DataChannelConfig cfg;
    cfg.numNodes = 4;
    wireless::DataChannel ch(s, cfg);
    FaultSpec spec;
    spec.ber = 0.02; // about 80% of acquisitions corrupt
    FaultModel model(spec, s.makeRng(99));
    ch.setFaultModel(&model);

    int commits = 0;
    int delivered = 0;
    for (sim::NodeId n = 0; n < 4; ++n)
        ch.setReceiver(n, [&delivered](const wireless::Frame &) {
            ++delivered;
        });
    for (sim::NodeId n = 0; n < 4; ++n)
        ch.transmit(updFrame(n, 0x1000 + 0x40 * n), [&] { ++commits; });
    s.run();

    // Every frame commits once and reaches every receiver once; a
    // corrupted attempt reaches nobody and only costs a retry.
    EXPECT_EQ(commits, 4);
    EXPECT_EQ(delivered, 16);
    EXPECT_EQ(ch.successes(), 4u);
    EXPECT_GT(ch.crcErrors(), 0u);
    EXPECT_EQ(ch.faultRetries(), ch.crcErrors());
    EXPECT_EQ(ch.faultDrops(), 0u);
}

TEST(DataChannelFault, PreambleLossAlsoRetries)
{
    sim::Simulator s;
    wireless::DataChannelConfig cfg;
    cfg.numNodes = 4;
    wireless::DataChannel ch(s, cfg);
    FaultSpec spec;
    spec.preambleLossProb = 0.9;
    FaultModel model(spec, s.makeRng(5));
    ch.setFaultModel(&model);

    int commits = 0;
    ch.transmit(updFrame(1, 0x2000), [&] { ++commits; });
    s.run();
    EXPECT_EQ(commits, 1);
    EXPECT_GT(ch.preambleLosses(), 0u);
    EXPECT_EQ(ch.faultRetries(), ch.preambleLosses());
    EXPECT_EQ(ch.crcErrors(), 0u);
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
    // ...until the re-poll cap takes the silence as observed.
    EXPECT_EQ(tone.toneRetries(), wireless::ToneChannel::kMaxRepolls);
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
    // About 80% of frames corrupt at 80 bits: every wireless write
    // still commits over the air, after retries, and nothing is
    // dropped.
    sys::ExperimentSpec spec = widirSpec("fft", 8);
    spec.fault.ber = 0.02;
    spec.trace.enabled = true; // trace-legality checker runs fatally

    sys::ExperimentResult r = sys::runExperiment(spec);
    EXPECT_TRUE(r.faultInjection);
    EXPECT_GT(r.frameCrcErrors, 0u);
    EXPECT_EQ(r.faultRetries, r.frameCrcErrors);
    EXPECT_GT(r.wirelessWrites, 0u);
    EXPECT_EQ(r.frameFaultDrops, 0u);
    EXPECT_EQ(r.wirelessFallbacks, 0u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(FaultExperiment, TotalLossIsRejected)
{
    // BER 1.0 or certain preamble loss: no frame could ever get
    // through, so the spec is refused before anything runs.
    sys::ExperimentSpec spec = widirSpec("fft", 8);
    spec.fault.ber = 1.0;
    EXPECT_NE(spec.validate(), "");
    spec.fault.ber = 0.0;
    spec.fault.preambleLossProb = 1.0;
    EXPECT_NE(spec.validate(), "");
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
    // included (it only matters once enabled).
    sys::ExperimentSpec plain = widirSpec("fft", 8);
    sys::ExperimentSpec zeroed = widirSpec("fft", 8);
    zeroed.fault.ber = 0.0;
    zeroed.fault.seed = 1234;
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
    spec.fault.ber = 0.1;
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
    spec.fault.ber = 0.01;
    spec.trace.file = "somewhere.json"; // file without enabled
    EXPECT_NE(spec.validate(), "");
    spec.trace.enabled = true;
    EXPECT_EQ(spec.validate(), "");
}

} // namespace
