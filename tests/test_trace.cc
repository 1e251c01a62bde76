/**
 * @file
 * Tracer and trace-sink tests (schema widir-trace-v1):
 *
 *  - disabled tracing emits zero records and perturbs no stats field
 *    (traced and untraced runs serialize to identical JSON);
 *  - a scripted two-core false-sharing run produces exactly the
 *    documented transition sequence (docs/PROTOCOL.md);
 *  - the Chrome exporter produces valid trace-event JSON;
 *  - the window filter, warn() routing, ring overflow and the
 *    transition-legality checker behave as documented in
 *    docs/TRACING.md;
 *  - the streaming legality checker is strict over arbitrarily long
 *    traces and agrees with a replay of the same records from a ring;
 *  - the legality checker strictly accepts the traces of every
 *    registered workload under both protocols at 8 and 64 tiles.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/directory_controller.h"
#include "core/l1_controller.h"
#include "mem/address.h"
#include "system/experiment.h"
#include "system/manycore.h"
#include "system/report.h"
#include "system/trace_sinks.h"
#include "temp_path.h"
#include "workload/registry.h"

namespace {

using namespace widir;
using coherence::DirState;
using coherence::L1State;
using cpu::Task;
using cpu::Thread;
using sim::Addr;
using sim::TraceComponent;
using sim::TraceKind;
using sim::TraceRecord;
using sim::Tracer;
using sys::Manycore;
using sys::SystemConfig;
using sys::TraceLegalityChecker;
using sys::TraceRing;

constexpr Addr kA = 0x100000; // line-aligned shared word

/** A hand-built L1 transition record on @p line. */
TraceRecord
l1Transition(sim::NodeId node, Addr line, L1State from, L1State to)
{
    TraceRecord r;
    r.kind = TraceKind::L1Transition;
    r.comp = TraceComponent::L1;
    r.node = node;
    r.line = line;
    r.from = static_cast<std::uint8_t>(from);
    r.to = static_cast<std::uint8_t>(to);
    r.fromName = coherence::l1StateName(from);
    r.toName = coherence::l1StateName(to);
    return r;
}

TEST(Tracer, DisabledEmitsNothing)
{
    Manycore m(SystemConfig::baseline(4));
    std::uint64_t seen = 0;
    m.simulator().tracer().addSink(
        [&seen](const TraceRecord &) { ++seen; });
    // Tracer deliberately NOT enabled.
    m.run([](Thread &t) -> Task {
        if (t.id() == 0) {
            co_await t.store(kA, 1);
            co_await t.fence();
        }
        co_return;
    });
    EXPECT_EQ(seen, 0u);
    EXPECT_EQ(m.simulator().tracer().emitted(), 0u);
}

TEST(Tracer, WindowFilterIsInclusive)
{
    Tracer tracer;
    tracer.setEnabled(true);
    tracer.setWindow(10, 20);
    std::vector<sim::Tick> seen;
    tracer.addSink(
        [&seen](const TraceRecord &r) { seen.push_back(r.tick); });
    for (sim::Tick t : {5, 10, 15, 20, 25}) {
        TraceRecord r;
        r.tick = t;
        tracer.emit(r);
    }
    EXPECT_EQ(seen, (std::vector<sim::Tick>{10, 15, 20}));
    EXPECT_EQ(tracer.emitted(), 3u);
}

TEST(Tracer, ScriptedFalseSharingTransitionSequence)
{
    Manycore m(SystemConfig::baseline(4));
    TraceRing ring;
    TraceLegalityChecker checker(true);
    Tracer &tracer = m.simulator().tracer();
    tracer.setEnabled(true);
    tracer.addSink(ring.sink());
    tracer.addSink(checker.sink());

    // Core 0 writes the line, then core 1 steals ownership: the
    // documented Table I / Table II sequence is
    //   L1(0)  I->M  (fill)      dir I->EM (memory fetch for GetX)
    //   L1(0)  M->I  (FwdGetX)   dir EM->EM (owner hand-off)
    //   L1(1)  I->M  (fill)
    constexpr Addr kFlag = kA + 64; // separate line
    m.run([](Thread &t) -> Task {
        if (t.id() == 0) {
            co_await t.store(kA, 7);
            co_await t.fence();
            co_await t.store(kFlag, 1);
            co_await t.fence();
        } else if (t.id() == 1) {
            for (;;) {
                std::uint64_t v = co_await t.load(kFlag);
                if (v != 0)
                    break;
                co_await t.compute(10);
            }
            co_await t.store(kA, 8);
            co_await t.fence();
        }
        co_return;
    });

    struct Step
    {
        sim::NodeId node;
        std::uint8_t from, to;
        std::string note;
    };
    std::vector<Step> l1, dir;
    for (std::size_t i = 0; i < ring.size(); ++i) {
        const TraceRecord &r = ring.at(i);
        if (r.line != kA)
            continue;
        if (r.kind == TraceKind::L1Transition)
            l1.push_back({r.node, r.from, r.to,
                          r.note ? r.note : ""});
        else if (r.kind == TraceKind::DirTransition)
            dir.push_back({r.node, r.from, r.to,
                           r.note ? r.note : ""});
    }

    auto l1s = [](L1State s) { return static_cast<std::uint8_t>(s); };
    auto dls = [](DirState s) { return static_cast<std::uint8_t>(s); };
    ASSERT_EQ(l1.size(), 3u);
    EXPECT_EQ(l1[0].node, 0u);
    EXPECT_EQ(l1[0].from, l1s(L1State::I));
    EXPECT_EQ(l1[0].to, l1s(L1State::M));
    EXPECT_EQ(l1[0].note, "fill");
    EXPECT_EQ(l1[1].node, 0u);
    EXPECT_EQ(l1[1].from, l1s(L1State::M));
    EXPECT_EQ(l1[1].to, l1s(L1State::I));
    EXPECT_EQ(l1[1].note, "FwdGetX");
    EXPECT_EQ(l1[2].node, 1u);
    EXPECT_EQ(l1[2].from, l1s(L1State::I));
    EXPECT_EQ(l1[2].to, l1s(L1State::M));
    EXPECT_EQ(l1[2].note, "fill");

    ASSERT_EQ(dir.size(), 2u);
    EXPECT_EQ(dir[0].from, dls(DirState::I));
    EXPECT_EQ(dir[0].to, dls(DirState::EM));
    EXPECT_EQ(dir[0].note, "fetch");
    EXPECT_EQ(dir[1].from, dls(DirState::EM));
    EXPECT_EQ(dir[1].to, dls(DirState::EM));
    EXPECT_EQ(dir[1].note, "FwdGetX");

    // The full scripted trace is strictly legal, streamed or replayed.
    EXPECT_EQ(ring.dropped(), 0u);
    auto violations = sys::checkTraceLegality(ring, true);
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations.front());
    EXPECT_EQ(checker.violations(), violations);

    // Forge a third writer while core 1 still holds the line in M, and
    // an illegal W->E edge: both paths report the same complaints.
    TraceRecord forged = l1Transition(2, kA, L1State::I, L1State::M);
    TraceRecord illegal = l1Transition(3, kA, L1State::W, L1State::E);
    for (const TraceRecord &r : {forged, illegal}) {
        ring.push(r);
        checker.observe(r);
    }
    auto replayed = sys::checkTraceLegality(ring, true);
    EXPECT_EQ(checker.violations(), replayed);
    // Node 3's E also conflicts with the M copies at nodes 1 and 2.
    ASSERT_EQ(replayed.size(), 4u);
    EXPECT_NE(replayed[0].find("is M at node 2 while M at node 1"),
              std::string::npos)
        << replayed[0];
    EXPECT_NE(replayed[1].find("illegal L1 transition W->E"),
              std::string::npos)
        << replayed[1];
    EXPECT_NE(replayed[2].find("is E at node 3 while M at node 1"),
              std::string::npos)
        << replayed[2];
    EXPECT_NE(replayed[3].find("is E at node 3 while M at node 2"),
              std::string::npos)
        << replayed[3];
}

TEST(Tracer, TracingDoesNotPerturbStats)
{
    sys::ExperimentSpec spec;
    spec.app = workload::findApp("fft");
    ASSERT_NE(spec.app, nullptr);
    spec.protocol = coherence::Protocol::WiDir;
    spec.cores = 8;
    spec.scale = 1;

    sys::ExperimentResult untraced = sys::runExperiment(spec);
    spec.trace.enabled = true;
    sys::ExperimentResult traced = sys::runExperiment(spec);

    // Tracing must not touch the RNG streams or any timing: every
    // simulated field the sweep schema serializes is bit-identical,
    // and so are the host-side allocator watermarks.
    EXPECT_EQ(sys::machineJson(untraced), sys::machineJson(traced));
    EXPECT_EQ(untraced.hostMsgpoolGrew, traced.hostMsgpoolGrew);
    EXPECT_EQ(untraced.hostMapRehashes, traced.hostMapRehashes);
    EXPECT_GT(traced.traceRecords, 0u);
    EXPECT_EQ(untraced.traceRecords, 0u);
}

TEST(Tracer, ChromeExportIsValidTraceEventJson)
{
    std::string path = test::testTempPath("chrome.json");
    sys::ExperimentSpec spec;
    spec.app = workload::findApp("fft");
    ASSERT_NE(spec.app, nullptr);
    spec.protocol = coherence::Protocol::WiDir;
    spec.cores = 8;
    spec.scale = 1;
    spec.trace.enabled = true;
    spec.trace.file = path;
    sys::runExperiment(spec);

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    std::string text;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    sys::json::Value doc;
    std::string err;
    ASSERT_TRUE(sys::json::parse(text, doc, &err)) << err;
    const sys::json::Value *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "widir-trace-v1");
    const sys::json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->array.size(), 100u);

    bool meta_l1 = false, instant = false, complete = false;
    for (const auto &e : events->array) {
        const sys::json::Value *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "M") {
            const sys::json::Value *args = e.find("args");
            ASSERT_NE(args, nullptr);
            const sys::json::Value *name = args->find("name");
            if (name && name->string == "L1")
                meta_l1 = true;
        } else if (ph->string == "i") {
            instant = true;
            EXPECT_NE(e.find("ts"), nullptr);
        } else if (ph->string == "X") {
            complete = true;
            EXPECT_NE(e.find("dur"), nullptr);
        }
    }
    EXPECT_TRUE(meta_l1);
    EXPECT_TRUE(instant);
    EXPECT_TRUE(complete);
}

TEST(Tracer, WarnRoutesIntoActiveTrace)
{
    // Print threshold set to Error: the warning is suppressed on
    // stderr yet still lands in the trace (docs in sim/log.h).
    sim::LogLevel prev = sim::setLogThreshold(sim::LogLevel::Error);
    sim::Simulator simulator;
    simulator.tracer().setEnabled(true);
    std::vector<TraceRecord> seen;
    simulator.tracer().addSink(
        [&seen](const TraceRecord &r) { seen.push_back(r); });
    simulator.schedule(42, [] { sim::warn("probe %d", 7); });
    simulator.run();
    sim::setLogThreshold(prev);

    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].kind, TraceKind::Warn);
    EXPECT_EQ(seen[0].comp, TraceComponent::Log);
    EXPECT_EQ(seen[0].tick, 42u);
    EXPECT_EQ(seen[0].text, "probe 7");
}

TEST(TraceRing, OverflowKeepsNewestAndCountsDrops)
{
    TraceRing ring(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        TraceRecord r;
        r.arg = i;
        ring.push(r);
    }
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 6u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(ring.at(i).arg, 6u + i);
}

TEST(TraceLegality, RejectsIllegalAndBrokenTraces)
{
    {
        // W->E is not an edge of Table I: flagged even non-strict.
        TraceRing ring;
        ring.push(l1Transition(0, kA, L1State::W, L1State::E));
        EXPECT_FALSE(sys::checkTraceLegality(ring, false).empty());
    }
    {
        // Continuity break: node 0 traced to M, next record claims
        // it was in S. Legal edges, so only strict mode flags it.
        TraceRing ring;
        ring.push(l1Transition(0, kA, L1State::I, L1State::M));
        ring.push(l1Transition(0, kA, L1State::S, L1State::I));
        EXPECT_TRUE(sys::checkTraceLegality(ring, false).empty());
        EXPECT_FALSE(sys::checkTraceLegality(ring, true).empty());
    }
    {
        // SWMR: two nodes in M on the same line at once.
        TraceRing ring;
        ring.push(l1Transition(0, kA, L1State::I, L1State::M));
        ring.push(l1Transition(1, kA, L1State::I, L1State::M));
        EXPECT_FALSE(sys::checkTraceLegality(ring, true).empty());
    }
    {
        // The same sequence with a hand-off in between is fine.
        TraceRing ring;
        ring.push(l1Transition(0, kA, L1State::I, L1State::M));
        ring.push(l1Transition(0, kA, L1State::M, L1State::I));
        ring.push(l1Transition(1, kA, L1State::I, L1State::M));
        EXPECT_TRUE(sys::checkTraceLegality(ring, true).empty());
    }
}

TEST(TraceLegality, StreamingCheckerStaysStrictPastRingCapacity)
{
    // More legal records than the default ring holds, then a
    // continuity break: a ring would have dropped the history the
    // break contradicts, the streaming checker still flags it.
    TraceLegalityChecker checker(true);
    std::size_t n = 0;
    for (Addr line = kA; n < TraceRing::kDefaultCapacity; line += 64) {
        checker.observe(l1Transition(n % 8, line, L1State::I, L1State::E));
        checker.observe(l1Transition(n % 8, line, L1State::E, L1State::M));
        n += 2;
    }
    EXPECT_TRUE(checker.violations().empty());
    checker.observe(l1Transition(0, kA, L1State::S, L1State::I));
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_NE(checker.violations()[0].find("L1 continuity break: node 0"),
              std::string::npos)
        << checker.violations()[0];
}

TEST(TraceLegality, StreamingCheckerFlagsSwmrViolations)
{
    {
        // A reader joins while another node holds the line in M.
        TraceLegalityChecker checker(true);
        checker.observe(l1Transition(0, kA, L1State::I, L1State::M));
        checker.observe(l1Transition(1, kA, L1State::I, L1State::S));
        ASSERT_EQ(checker.violations().size(), 1u);
        EXPECT_NE(checker.violations()[0].find(
                      "is S at node 1 while M at node 0"),
                  std::string::npos)
            << checker.violations()[0];
    }
    {
        // A writer takes E while two readers still hold S: one
        // complaint per conflicting holder.
        TraceLegalityChecker checker(true);
        checker.observe(l1Transition(3, kA, L1State::I, L1State::S));
        checker.observe(l1Transition(1, kA, L1State::I, L1State::S));
        checker.observe(l1Transition(2, kA, L1State::I, L1State::E));
        ASSERT_EQ(checker.violations().size(), 2u);
        EXPECT_NE(checker.violations()[0].find("while S at node 1"),
                  std::string::npos);
        EXPECT_NE(checker.violations()[1].find("while S at node 3"),
                  std::string::npos);
    }
    {
        // Release then acquire, W copies coexisting, and readers
        // draining before an upgrade are all clean.
        TraceLegalityChecker checker(true);
        checker.observe(l1Transition(0, kA, L1State::I, L1State::M));
        checker.observe(l1Transition(0, kA, L1State::M, L1State::I));
        checker.observe(l1Transition(1, kA, L1State::I, L1State::M));
        checker.observe(l1Transition(1, kA, L1State::M, L1State::S));
        checker.observe(l1Transition(2, kA, L1State::I, L1State::S));
        checker.observe(l1Transition(1, kA, L1State::S, L1State::W));
        checker.observe(l1Transition(2, kA, L1State::S, L1State::W));
        checker.observe(l1Transition(1, kA, L1State::W, L1State::I));
        checker.observe(l1Transition(2, kA, L1State::W, L1State::S));
        checker.observe(l1Transition(2, kA, L1State::S, L1State::M));
        EXPECT_TRUE(checker.violations().empty())
            << checker.violations().front();
    }
    {
        // Non-strict checking keeps no per-line state.
        TraceLegalityChecker checker(false);
        checker.observe(l1Transition(0, kA, L1State::I, L1State::M));
        checker.observe(l1Transition(1, kA, L1State::I, L1State::M));
        EXPECT_TRUE(checker.violations().empty());
    }
}

TEST(TraceLegality, AllWorkloadsProduceLegalTraces)
{
    // Every registered workload, traced over the whole run on both
    // protocols: the checker is strict (continuity and SWMR) and
    // runExperiment fatal()s on an illegal trace, so reaching the end
    // is the pass.
    for (coherence::Protocol protocol : {coherence::Protocol::BaselineMESI,
                                         coherence::Protocol::WiDir}) {
        for (std::uint32_t cores : {8u, 64u}) {
            for (const auto &app : workload::allApps()) {
                sys::ExperimentSpec spec;
                spec.app = &app;
                spec.protocol = protocol;
                spec.cores = cores;
                spec.scale = 1;
                spec.trace.enabled = true;
                sys::ExperimentResult r = sys::runExperiment(spec);
                EXPECT_GT(r.traceRecords, 0u)
                    << app.name << " " << cores << " tiles";
            }
        }
    }
}

} // namespace
