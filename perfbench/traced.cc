/**
 * @file
 * The traced pass and the mesh capture pass. Both assemble each machine
 * themselves from the simulator's public calls, in the order
 * sys::runExperiment uses, so a traced experiment is the same
 * experiment as its product-path run -- which runTracedPass checks.
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <system_error>

#include "bench.h"
#include "frontend/mtrace.h"
#include "noc/mesh.h"
#include "sim/inline_event.h"
#include "system/checker.h"
#include "system/manycore.h"
#include "system/report.h"
#include "system/sweep.h"
#include "system/trace_sinks.h"

namespace perfbench {

namespace {

using namespace widir;
using coherence::Protocol;
using frontend::FrontendKind;

/** Watchdog runExperiment passes to Manycore::run. */
constexpr sim::Tick kWatchdog = 2'000'000'000ull;

/** Machine knobs of one experiment, resolved as runExperiment does. */
struct Knobs
{
    std::string app;
    Protocol protocol;
    std::uint32_t cores;
    std::uint32_t scale;
    std::uint64_t seed;
    std::uint32_t maxWired;
    std::uint32_t updateCountThreshold;
    std::uint32_t meshConcentration;
    std::uint32_t wirelessChannels;
    mem::HomeMap homeMap;
};

/** The spec's knobs, overridden by a recorded trace's machine header. */
Knobs
knobsFor(const sys::ExperimentSpec &spec, const frontend::MemTrace &trace)
{
    Knobs k{spec.app->name,       spec.protocol,
            spec.cores,           spec.scale,
            spec.seed,            spec.maxWiredSharers,
            spec.updateCountThreshold, spec.meshConcentration,
            spec.wirelessChannels, spec.homeMap};
    if (trace.header.hasMachine) {
        const frontend::TraceHeader &h = trace.header;
        k.app = h.app;
        k.protocol = static_cast<Protocol>(h.protocol);
        k.homeMap = static_cast<mem::HomeMap>(h.homeMap);
        k.cores = h.cores;
        k.scale = h.scale;
        k.seed = h.seed;
        k.maxWired = h.maxWiredSharers;
        k.updateCountThreshold = h.updateCountThreshold;
        k.meshConcentration = h.meshConcentration;
        k.wirelessChannels = h.wirelessChannels;
    }
    return k;
}

sys::SystemConfig
configFor(const Knobs &k)
{
    sys::SystemConfig cfg = k.protocol == Protocol::WiDir
        ? sys::SystemConfig::widir(k.cores)
        : sys::SystemConfig::baseline(k.cores);
    cfg.seed = k.seed;
    cfg.protocol.maxWiredSharers = k.maxWired;
    if (k.updateCountThreshold > 0)
        cfg.protocol.updateCountThreshold = k.updateCountThreshold;
    cfg.protocol.dirPointers =
        std::max(cfg.protocol.dirPointers, k.maxWired);
    cfg.mesh.concentration = k.meshConcentration;
    cfg.wnoc.numChannels = k.wirelessChannels;
    cfg.protocol.homeMap = k.homeMap;
    return cfg;
}

/**
 * Read every statistic off a finished machine into an ExperimentResult
 * exactly as runExperiment does, and add the layer counters to @p c.
 */
sys::ExperimentResult
collect(sys::Manycore &m, const Knobs &k, const sys::ExperimentSpec &spec,
        sim::Tick cycles, Counters &c)
{
    sys::ExperimentResult r;
    r.app = k.app;
    r.protocol = k.protocol;
    r.cores = k.cores;
    r.seed = k.seed;
    r.scale = k.scale;
    r.maxWiredSharers = k.maxWired;
    r.updateCountThreshold = m.config().protocol.updateCountThreshold;
    r.meshConcentration = k.meshConcentration;
    r.wirelessChannels = k.wirelessChannels;
    r.homeMap = k.homeMap;
    r.cycles = cycles;
    r.executedEvents = m.simulator().executedEvents();
    r.hostMsgpoolGrew = m.hostMsgpoolGrew();
    r.hostMapRehashes = m.hostMapRehashes();

    const auto cpu = m.cpuTotals();
    const auto l1 = m.l1Totals();
    const auto dir = m.dirTotals();
    r.instructions = cpu.instructions;
    r.loads = cpu.loads;
    r.stores = cpu.stores + cpu.rmws;
    r.readMisses = l1.readMisses;
    r.writeMisses = l1.writeMisses;
    r.memStallCycles = cpu.memStallCycles;
    r.totalCoreCycles = static_cast<std::uint64_t>(r.cycles) * k.cores;
    r.loadLatencySum = cpu.loadLatencySum;
    r.storeLatencySum = cpu.storeLatencySum;
    for (const auto &bin : m.mesh().hopHistogram().bins())
        r.hopBinCounts.push_back(bin.count);
    r.wiredMessages = m.mesh().messages();
    const auto sharers = m.sharersUpdatedTotals();
    for (const auto &bin : sharers.bins())
        r.sharersUpdatedBins.push_back(bin.count);
    r.wirelessWrites = l1.wirelessWrites;
    r.selfInvalidations = l1.selfInvalidations;
    r.toWireless = dir.toWireless;
    r.toShared = dir.toShared;
    r.faultInjection = m.faultModel() != nullptr;
    r.fault = spec.fault;
    wireless::DataChannel *ch = m.dataChannel();
    if (ch != nullptr) {
        r.collisionProbability = ch->collisionProbability();
        r.frameCrcErrors = ch->crcErrors();
        r.framePreambleLosses = ch->preambleLosses();
        r.faultRetries = ch->faultRetries();
        r.frameFaultDrops = ch->faultDrops();
    }
    if (auto *tc = m.toneChannel())
        r.toneRetries = tc->toneRetries();
    r.wirelessFallbacks = l1.wirelessFallbacks + dir.wirelessFallbacks;

    energy::EnergyInputs ein;
    ein.cycles = r.cycles;
    ein.numCores = k.cores;
    ein.instructions = cpu.instructions;
    ein.l1Accesses = l1.loads + l1.stores + l1.rmws;
    ein.l2Accesses = dir.dirAccesses;
    ein.l2DataAccesses = dir.getS + dir.getX + dir.memFetches +
                         dir.memWritebacks + dir.updatesObserved;
    ein.routerTraversals = m.mesh().routerTraversals();
    ein.flitHops = m.mesh().flitHops();
    if (ch != nullptr) {
        ein.wnocBusyCycles = ch->busyCycles();
        ein.wnocFrames = ch->successes();
        ein.wnocPresent = true;
    }
    r.energy = energy::computeEnergy(ein);

    const noc::Mesh &mesh = m.mesh();
    c["sim.events"] += static_cast<double>(r.executedEvents);
    c["noc.messages"] += static_cast<double>(mesh.messages());
    c["noc.flit_hops"] += static_cast<double>(mesh.flitHops());
    c["_noc.latency_sum"] +=
        mesh.meanLatency() * static_cast<double>(mesh.messages());
    c["mem.map_rehashes"] += static_cast<double>(r.hostMapRehashes);
    c["mem.fetches"] += static_cast<double>(dir.memFetches);
    c["mem.writebacks"] += static_cast<double>(dir.memWritebacks);
    c["core.fabric.msgpool_grew"] += static_cast<double>(r.hostMsgpoolGrew);
    c["cpu.instructions"] += static_cast<double>(cpu.instructions);
    c["cpu.mem_ops"] +=
        static_cast<double>(cpu.loads + cpu.stores + cpu.rmws);
    c["_cpu.stall_cycles"] += static_cast<double>(cpu.memStallCycles);
    c["_cpu.core_cycles"] += static_cast<double>(r.totalCoreCycles);
    c["_cpu.latency_sum"] +=
        static_cast<double>(cpu.loadLatencySum + cpu.storeLatencySum);
    c["core.l1.accesses"] +=
        static_cast<double>(l1.loads + l1.stores + l1.rmws);
    c["_l1.misses"] += static_cast<double>(l1.readMisses + l1.writeMisses);
    c["_l1.nacks_seen"] += static_cast<double>(l1.nacksSeen);
    c["core.l1.evictions"] += static_cast<double>(l1.evictions);
    c["core.l1.wireless_writes"] += static_cast<double>(l1.wirelessWrites);
    c["core.l1.wireless_squashes"] +=
        static_cast<double>(l1.wirelessSquashes);
    c["core.dir.requests"] += static_cast<double>(dir.getS + dir.getX);
    c["core.dir.nacks_sent"] += static_cast<double>(dir.nacksSent);
    c["core.dir.invs_sent"] += static_cast<double>(dir.invsSent);
    c["core.dir.fwds"] += static_cast<double>(dir.fwds);
    c["core.dir.llc_recalls"] += static_cast<double>(dir.llcRecalls);
    c["core.dir.to_wireless"] += static_cast<double>(dir.toWireless);
    if (ch != nullptr) {
        c["wireless.frames"] += static_cast<double>(ch->successes());
        c["wireless.tx_attempts"] += static_cast<double>(ch->txAttempts());
        c["_wireless.collisions"] +=
            static_cast<double>(ch->collisionEvents());
        c["_wireless.busy_cycles"] += static_cast<double>(ch->busyCycles());
        c["_wireless.cycles"] += static_cast<double>(r.cycles);
    }
    if (auto *tc = m.toneChannel())
        c["wireless.censuses"] += static_cast<double>(tc->censuses());
    return r;
}

/** One traced experiment: @p problem is left empty when it passed. */
sys::ExperimentResult
tracedExperiment(const sys::ExperimentSpec &spec, SpanLog &log,
                 Counters &c, std::string &problem)
{
    const bool replay = spec.frontend == FrontendKind::ReplayFull;
    const bool record = spec.frontend == FrontendKind::Record;
    return log.time("experiment", [&] {
        frontend::MemTrace trace;
        if (replay) {
            std::string err;
            bool loaded = log.time("frontend.mtrace_read", [&] {
                return frontend::loadTraceFile(spec.replayPath, trace, err);
            });
            if (!loaded) {
                problem = err;
                return sys::ExperimentResult{};
            }
        }
        const Knobs k = knobsFor(spec, trace);
        if (replay) {
            if (std::string err = frontend::validateTrace(trace, k.cores);
                !err.empty()) {
                problem = err;
                return sys::ExperimentResult{};
            }
        }

        auto m = log.time("system.build", [&] {
            return std::make_unique<sys::Manycore>(configFor(k));
        });
        if (spec.frontend != FrontendKind::Coroutine) {
            log.time("frontend.install", [&] {
                m->installFrontend({spec.frontend, replay ? &trace : nullptr});
            });
        }
        cpu::Program program;
        if (!replay) {
            program = log.time("workload.make_program", [&] {
                workload::WorkloadParams params;
                params.scale = k.scale;
                return workload::makeProgram(*spec.app, params);
            });
        }
        sys::TraceRing ring;
        sim::Tracer &tracer = m->simulator().tracer();
        if (spec.trace.enabled) {
            tracer.setEnabled(true);
            tracer.addSink(ring.sink());
        }

        sim::Tick cycles =
            log.time(replay ? "frontend.replay_run" : "system.run",
                     [&] { return m->run(program, kWatchdog); });

        if (record) {
            log.time("frontend.mtrace_write", [&] {
                frontend::TraceHeader h;
                h.hasMachine = true;
                h.app = k.app;
                h.protocol = static_cast<std::uint8_t>(k.protocol);
                h.homeMap = static_cast<std::uint8_t>(k.homeMap);
                h.cores = k.cores;
                h.scale = k.scale;
                h.maxWiredSharers = k.maxWired;
                h.updateCountThreshold =
                    m->config().protocol.updateCountThreshold;
                h.meshConcentration = k.meshConcentration;
                h.wirelessChannels = k.wirelessChannels;
                h.seed = k.seed;
                frontend::MemTrace rec =
                    m->frontend()->recorder()->finish(h);
                std::string err;
                if (!frontend::writeMtrace(spec.recordPath, rec, err))
                    problem = err;
            });
            std::error_code ec;
            auto bytes = std::filesystem::file_size(spec.recordPath, ec);
            if (!ec)
                c["frontend.mtrace_bytes"] += static_cast<double>(bytes);
        }

        auto violations =
            log.time("system.check", [&] { return sys::checkCoherence(*m); });
        if (!violations.empty())
            problem = "incoherent: " + violations.front();

        if (spec.trace.enabled) {
            const bool strict = ring.dropped() == 0;
            auto illegal = log.time("sim.trace.legality", [&] {
                return sys::checkTraceLegality(ring, strict);
            });
            if (!illegal.empty())
                problem = "illegal trace: " + illegal.front();
            c["sim.trace.records"] += static_cast<double>(tracer.emitted());
            c["_trace.dropped"] += static_cast<double>(ring.dropped());
            c["_trace.experiments"] += 1.0;
            c["_trace.strict"] += strict ? 1.0 : 0.0;
        }

        auto r = log.time("system.stats",
                          [&] { return collect(*m, k, spec, cycles, c); });
        r.frontendKind = spec.frontend;
        log.time("system.teardown", [&] { m.reset(); });
        return r;
    });
}

/** Median cost of one back-to-back pair of clock reads, in ns. */
double
clockPairNs()
{
    std::vector<double> v(201);
    for (double &x : v) {
        auto t0 = Clock::now();
        auto t1 = Clock::now();
        x = std::chrono::duration<double, std::nano>(t1 - t0).count();
    }
    std::nth_element(v.begin(), v.begin() + 100, v.end());
    return v[100];
}

struct SendRecord
{
    sim::Tick tick;
    sim::NodeId src;
    sim::NodeId dst;
    std::uint32_t bits;
};

/** Capture one experiment's wired sends, then time them in isolation. */
std::pair<std::uint64_t, double>
captureAndReplaySends(const sys::ExperimentSpec &spec)
{
    const Knobs k = knobsFor(spec, frontend::MemTrace{});
    const sys::SystemConfig cfg = configFor(k);
    std::vector<SendRecord> sends;
    {
        sys::Manycore m(cfg);
        sim::Tracer &tracer = m.simulator().tracer();
        tracer.setEnabled(true);
        tracer.addSink([&sends](const sim::TraceRecord &r) {
            if (r.kind == sim::TraceKind::MsgSend)
                sends.push_back({r.tick, r.node, r.peer,
                                 static_cast<std::uint32_t>(r.arg)});
        });
        workload::WorkloadParams params;
        params.scale = k.scale;
        m.run(workload::makeProgram(*spec.app, params), kWatchdog);
    }

    // Replay at the recorded ticks so link occupancy evolves as in the
    // run; only the send calls themselves are timed, one clock pair per
    // tick, less the measured cost of a pair.
    sim::Simulator sim(k.seed);
    noc::MeshConfig mesh_cfg = cfg.mesh;
    mesh_cfg.numNodes = k.cores;
    noc::Mesh mesh(sim, mesh_cfg);
    const double pair_ns = clockPairNs();
    double ns = 0.0;
    for (std::size_t i = 0; i < sends.size();) {
        const sim::Tick tick = sends[i].tick;
        if (tick > sim.now()) {
            sim.scheduleAt(tick, [] {});
            sim.run(tick);
        }
        std::size_t end = i;
        while (end < sends.size() && sends[end].tick == tick)
            ++end;
        auto t0 = Clock::now();
        for (std::size_t j = i; j < end; ++j)
            mesh.send(sends[j].src, sends[j].dst, sends[j].bits, [] {});
        ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count() -
              pair_ns;
        i = end;
    }
    sim.run();
    return {sends.size(), std::max(ns, 0.0)};
}

/** Append one experiment's spans, rebasing parents to @p all's indices. */
void
appendSpans(std::vector<Span> &all, const std::vector<Span> &more)
{
    const int offset = static_cast<int>(all.size());
    for (Span s : more) {
        if (s.parent >= 0)
            s.parent += offset;
        all.push_back(s);
    }
}

} // namespace

TracedPass
runTracedPass(const RunSettings &rs,
              const std::vector<sys::ExperimentResult> &product)
{
    TracedPass out;
    std::vector<std::vector<sys::ExperimentSpec>> batches;
    batches.push_back(workloadSpecs(rs, "traced"));
    if (rs.workload->recordReplay)
        batches.push_back(replaySpecs(batches.front()));

    std::vector<sys::ExperimentResult> traced; // recordings, then replays
    const std::uint64_t heap_before = sim::InlineEvent::heapFallbacks();
    const auto origin = Clock::now();
    sys::SweepRunner runner(rs.workers);
    for (const auto &batch : batches) {
        struct Slot
        {
            std::vector<Span> spans;
            Counters counters;
            std::string problem;
        };
        std::vector<Slot> slots(batch.size());
        const std::size_t base = traced.size();
        auto results =
            runner.run(batch, [&](const sys::ExperimentSpec &spec) {
                const std::size_t i = &spec - batch.data();
                SpanLog log(static_cast<std::uint32_t>(base + i), origin);
                auto r = tracedExperiment(spec, log, slots[i].counters,
                                          slots[i].problem);
                slots[i].spans = log.spans();
                return r;
            });
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const sys::ExperimentResult &got = results[i];
            std::string problem = slots[i].problem;
            const sys::ExperimentResult &want = product[base + peer(rs, i)];
            if (problem.empty() && simulatedJson(got) != simulatedJson(want))
                problem = "traced-pass statistics differ from the "
                          "product path";
            if (base > 0) {
                // A replay must reproduce its own recording.
                const bool match =
                    simulatedJson(got) ==
                    simulatedJson(traced[peer(rs, i)]);
                out.counters["_replay.matches"] += match ? 1.0 : 0.0;
                out.counters["_replay.count"] += 1.0;
                if (problem.empty() && !match)
                    problem = "replay differs from its recording";
            }
            if (!problem.empty()) {
                out.problems.push_back(std::string(results[i].app) + "/" +
                                       coherence::protocolName(
                                           batch[i].protocol) +
                                       ": " + problem);
            }
            appendSpans(out.spans, slots[i].spans);
            for (const auto &[name, value] : slots[i].counters)
                out.counters[name] += value;
        }
        out.attempted += batch.size();
        traced.insert(traced.end(), results.begin(),
                           results.end());
    }

    SpanLog report_log(static_cast<std::uint32_t>(traced.size()),
                       origin);
    report_log.time("system.report", [&] {
        return sys::resultsToJson(rs.workload->name, traced).size();
    });
    appendSpans(out.spans, report_log.spans());
    out.wallSeconds = secondsSince(origin);
    out.counters["sim.inline_heap_fallbacks"] = static_cast<double>(
        sim::InlineEvent::heapFallbacks() - heap_before);
    return out;
}

std::pair<std::uint64_t, double>
runMeshCapture(const RunSettings &rs)
{
    const auto specs = workloadSpecs(rs, "capture");
    std::vector<std::pair<std::uint64_t, double>> per(specs.size());
    sys::SweepRunner runner(rs.workers);
    runner.run(specs, [&](const sys::ExperimentSpec &spec) {
        per[&spec - specs.data()] = captureAndReplaySends(spec);
        return sys::ExperimentResult{};
    });
    std::pair<std::uint64_t, double> total{0, 0.0};
    for (const auto &[sends, ns] : per) {
        total.first += sends;
        total.second += ns;
    }
    return total;
}

} // namespace perfbench
