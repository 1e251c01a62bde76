#include "system/experiment.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>

#include <memory>

#include "core/sharer_set.h"
#include "frontend/mtrace.h"
#include "sim/log.h"
#include "system/checker.h"
#include "system/manycore.h"
#include "system/trace_sinks.h"

namespace widir::sys {

double
ExperimentResult::mpki() const
{
    return instructions == 0
        ? 0.0
        : 1000.0 * static_cast<double>(readMisses + writeMisses) /
              static_cast<double>(instructions);
}

double
ExperimentResult::readMpki() const
{
    return instructions == 0
        ? 0.0
        : 1000.0 * static_cast<double>(readMisses) /
              static_cast<double>(instructions);
}

double
ExperimentResult::writeMpki() const
{
    return instructions == 0
        ? 0.0
        : 1000.0 * static_cast<double>(writeMisses) /
              static_cast<double>(instructions);
}

double
ExperimentResult::memStallFraction() const
{
    return totalCoreCycles == 0
        ? 0.0
        : static_cast<double>(memStallCycles) /
              static_cast<double>(totalCoreCycles);
}

std::string
TraceOptions::validate() const
{
    std::string err;
    auto add = [&err](const char *msg) {
        if (!err.empty())
            err += "; ";
        err += msg;
    };
    if (start > end)
        add("trace.start is past trace.end");
    if (!enabled && !file.empty())
        add("trace.file set but trace.enabled is false");
    return err;
}

std::string
ExperimentSpec::validate() const
{
    std::string err;
    auto add = [&err](const std::string &msg) {
        if (msg.empty())
            return;
        if (!err.empty())
            err += "; ";
        err += msg;
    };
    // A replay's stimulus is its trace, so only the other frontends
    // need an app.
    const bool is_replay = frontend == frontend::FrontendKind::ReplayFull;
    if (app == nullptr && !is_replay)
        add("no app selected");
    if (cores == 0)
        add("cores must be positive");
    else if (cores > kMaxCores)
        add(sim::strfmt("cores must be at most %u (the directory's "
                        "sharer bitset width)",
                        kMaxCores));
    if (scale == 0)
        add("scale must be positive");
    if (meshConcentration == 0)
        add("meshConcentration must be positive");
    else if (cores % meshConcentration != 0)
        add("meshConcentration must divide cores");
    if (wirelessChannels == 0)
        add("wirelessChannels must be positive");
    // runExperiment grows Dir_iB to maxWiredSharers pointers, which
    // must fit the directory's inline sharer-pointer array.
    if (maxWiredSharers > coherence::SharerPtrs::kCapacity)
        add(sim::strfmt("maxWiredSharers must be at most %u",
                        coherence::SharerPtrs::kCapacity));
    if (frontend == frontend::FrontendKind::Record) {
        if (recordPath.empty())
            add("frontend=record needs a recordPath");
    } else if (!recordPath.empty()) {
        add("recordPath set but frontend is not record");
    }
    if (is_replay) {
        if (replayPath.empty())
            add("replay frontend needs a replayPath");
    } else if (!replayPath.empty()) {
        add("replayPath set but frontend is not replay-full");
    }
    add(trace.validate());
    add(fault.validate());
    return err;
}

bool
parseEnvInt(const char *text, long min, long max, long &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    // end == text catches "abc"; *end != '\0' catches "4abc" and
    // "4 " (strtol stops at the first non-digit and reports success);
    // ERANGE catches values strtol saturated to LONG_MIN/LONG_MAX.
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    if (v < min || v > max)
        return false;
    out = v;
    return true;
}

std::uint32_t
benchScale(std::uint32_t fallback)
{
    if (const char *env = std::getenv("WIDIR_BENCH_SCALE")) {
        long v = 0;
        if (parseEnvInt(env, 1, 1'000'000, v))
            return static_cast<std::uint32_t>(v);
        sim::warn("ignoring invalid WIDIR_BENCH_SCALE='%s'", env);
    }
    return fallback;
}

namespace {

/**
 * Name of a replay before its header is read: "trace:<stem>" of
 * @p path, which a recorded machine header then overrides.
 */
std::string
traceName(const std::string &path)
{
    std::string stem = path.substr(path.find_last_of('/') + 1);
    if (std::size_t dot = stem.find_last_of('.');
        dot != std::string::npos && dot > 0)
        stem.erase(dot);
    return "trace:" + stem;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    if (std::string err = spec.validate(); !err.empty())
        sim::fatal("invalid ExperimentSpec: %s", err.c_str());

    const frontend::FrontendKind fk = spec.frontend;
    const bool is_replay = fk == frontend::FrontendKind::ReplayFull;

    // Effective machine knobs: the spec's, unless a replayed trace
    // carries the recorded machine -- then the recording wins so the
    // replay reproduces the recorded run (docs/FRONTEND.md). A replay
    // is named by its trace, never by spec.app.
    std::string app_name =
        is_replay ? traceName(spec.replayPath) : spec.app->name;
    coherence::Protocol protocol = spec.protocol;
    std::uint32_t cores = spec.cores;
    std::uint32_t scale = spec.scale;
    std::uint64_t seed = spec.seed;
    std::uint32_t max_wired = spec.maxWiredSharers;
    std::uint32_t uct = spec.updateCountThreshold;
    std::uint32_t mesh_conc = spec.meshConcentration;
    std::uint32_t wchan = spec.wirelessChannels;
    mem::HomeMap home_map = spec.homeMap;

    frontend::MemTrace trace;
    if (is_replay) {
        std::string terr;
        if (!frontend::loadTraceFile(spec.replayPath, trace, terr))
            sim::fatal("experiment %s: %s", app_name.c_str(),
                       terr.c_str());
        if (trace.header.hasMachine) {
            const frontend::TraceHeader &h = trace.header;
            app_name = h.app;
            protocol = static_cast<coherence::Protocol>(h.protocol);
            home_map = static_cast<mem::HomeMap>(h.homeMap);
            cores = h.cores;
            scale = h.scale;
            seed = h.seed;
            max_wired = h.maxWiredSharers;
            uct = h.updateCountThreshold;
            mesh_conc = h.meshConcentration;
            wchan = h.wirelessChannels;
        }
        if (std::string verr = frontend::validateTrace(trace, cores);
            !verr.empty())
            sim::fatal("experiment %s: %s", app_name.c_str(),
                       verr.c_str());
    }

    SystemConfig cfg = protocol == coherence::Protocol::WiDir
        ? SystemConfig::widir(cores)
        : SystemConfig::baseline(cores);
    cfg.seed = seed;
    cfg.protocol.maxWiredSharers = max_wired;
    if (uct > 0)
        cfg.protocol.updateCountThreshold = uct;
    // Table VI sweeps the threshold; the paper's constraint is
    // MaxWiredSharers <= sharer pointers, so grow Dir_iB accordingly.
    cfg.protocol.dirPointers =
        std::max(cfg.protocol.dirPointers, max_wired);
    cfg.fault = spec.fault;
    cfg.mesh.concentration = mesh_conc;
    cfg.wnoc.numChannels = wchan;
    cfg.protocol.homeMap = home_map;

    auto build_start = std::chrono::steady_clock::now();
    Manycore m(cfg);
    const double build_seconds = secondsSince(build_start);
    if (fk != frontend::FrontendKind::Coroutine) {
        frontend::FrontendSpec fs;
        fs.kind = fk;
        fs.trace = is_replay ? &trace : nullptr;
        m.installFrontend(fs);
    }
    workload::WorkloadParams params;
    params.scale = scale;

    // Tracing: the legality checker sees every record as it is emitted,
    // and is strict (continuity and SWMR) whenever the window covers
    // the whole run; the Chrome exporter is attached only when an
    // output path was given. Tracing never touches the RNG streams, so
    // a traced run's stats are bit-identical to the same run untraced.
    std::unique_ptr<TraceLegalityChecker> legality;
    std::unique_ptr<ChromeTraceWriter> chrome;
    if (spec.trace.enabled) {
        sim::Tracer &tracer = m.simulator().tracer();
        tracer.setEnabled(true);
        tracer.setWindow(spec.trace.start, spec.trace.end);
        legality = std::make_unique<TraceLegalityChecker>(
            spec.trace.start == 0 && spec.trace.end == sim::kTickNever);
        tracer.addSink(legality->sink());
        if (!spec.trace.file.empty()) {
            chrome = std::make_unique<ChromeTraceWriter>();
            tracer.addSink(chrome->sink());
        }
    }

    ExperimentResult r;
    r.app = app_name;
    r.protocol = protocol;
    r.cores = cores;
    r.seed = seed;
    r.scale = scale;
    r.maxWiredSharers = max_wired;
    r.updateCountThreshold = cfg.protocol.updateCountThreshold;
    r.meshConcentration = mesh_conc;
    r.wirelessChannels = wchan;
    r.homeMap = home_map;
    r.frontendKind = fk;
    r.recordPath = spec.recordPath;
    r.replayPath = spec.replayPath;
    // The replay frontend ignores the program (and a replay spec need
    // not name an app), so only build one when it will actually run.
    cpu::Program program;
    if (!is_replay)
        program = workload::makeProgram(*spec.app, params);
    auto host_start = std::chrono::steady_clock::now();
    r.cycles = m.run(program, 2'000'000'000ull);
    r.executedEvents = m.simulator().executedEvents();
    r.hostSeconds = secondsSince(host_start);
    r.hostBuildSeconds = build_seconds;
    r.hostEventsPerSec = r.hostSeconds > 0.0
        ? static_cast<double>(r.executedEvents) / r.hostSeconds
        : 0.0;
    r.hostMsgpoolGrew = m.hostMsgpoolGrew();
    r.hostMapRehashes = m.hostMapRehashes();

    if (fk == frontend::FrontendKind::Record) {
        frontend::TraceHeader h;
        h.hasMachine = true;
        h.app = app_name;
        h.protocol = static_cast<std::uint8_t>(protocol);
        h.homeMap = static_cast<std::uint8_t>(home_map);
        h.cores = cores;
        h.scale = scale;
        h.maxWiredSharers = max_wired;
        h.updateCountThreshold = cfg.protocol.updateCountThreshold;
        h.meshConcentration = mesh_conc;
        h.wirelessChannels = wchan;
        h.seed = seed;
        frontend::MemTrace rec = m.frontend()->recorder()->finish(h);
        std::string werr;
        if (!frontend::writeMtrace(spec.recordPath, rec, werr))
            sim::fatal("experiment %s: %s", app_name.c_str(),
                       werr.c_str());
    }

    auto check_start = std::chrono::steady_clock::now();
    auto violations = checkCoherence(m);
    r.hostCheckSeconds = secondsSince(check_start);
    if (!violations.empty()) {
        sim::fatal("experiment %s left the machine incoherent: %s",
                   app_name.c_str(), violations.front().c_str());
    }

    if (legality) {
        const auto &trace_violations = legality->violations();
        if (!trace_violations.empty()) {
            sim::fatal("experiment %s produced an illegal trace: %s",
                       app_name.c_str(),
                       trace_violations.front().c_str());
        }
        if (chrome)
            chrome->write(spec.trace.file);
        r.traceRecords = m.simulator().tracer().emitted();
    }

    auto cpu = m.cpuTotals();
    auto l1 = m.l1Totals();
    auto dir = m.dirTotals();

    r.instructions = cpu.instructions;
    r.loads = cpu.loads;
    r.stores = cpu.stores + cpu.rmws;
    r.readMisses = l1.readMisses;
    r.writeMisses = l1.writeMisses;
    r.memStallCycles = cpu.memStallCycles;
    r.totalCoreCycles =
        static_cast<std::uint64_t>(r.cycles) * cores;
    r.loadLatencySum = cpu.loadLatencySum;
    r.storeLatencySum = cpu.storeLatencySum;

    for (const auto &bin : m.mesh().hopHistogram().bins())
        r.hopBinCounts.push_back(bin.count);
    r.wiredMessages = m.mesh().messages();

    auto sharers = m.sharersUpdatedTotals();
    for (const auto &bin : sharers.bins())
        r.sharersUpdatedBins.push_back(bin.count);
    r.wirelessWrites = l1.wirelessWrites;
    r.selfInvalidations = l1.selfInvalidations;
    r.toWireless = dir.toWireless;
    r.toShared = dir.toShared;
    if (auto *ch = m.dataChannel())
        r.collisionProbability = ch->collisionProbability();

    r.faultInjection = m.faultModel() != nullptr;
    r.fault = spec.fault;
    if (auto *ch = m.dataChannel()) {
        r.frameCrcErrors = ch->crcErrors();
        r.framePreambleLosses = ch->preambleLosses();
        r.faultRetries = ch->faultRetries();
    }
    if (auto *tc = m.toneChannel())
        r.toneRetries = tc->toneRetries();

    energy::EnergyInputs ein;
    ein.cycles = r.cycles;
    ein.numCores = cores;
    ein.instructions = cpu.instructions;
    ein.l1Accesses = l1.loads + l1.stores + l1.rmws;
    ein.l2Accesses = dir.dirAccesses;
    ein.l2DataAccesses = dir.getS + dir.getX + dir.memFetches +
                         dir.memWritebacks + dir.updatesObserved;
    ein.routerTraversals = m.mesh().routerTraversals();
    ein.flitHops = m.mesh().flitHops();
    if (auto *ch = m.dataChannel()) {
        ein.wnocBusyCycles = ch->busyCycles();
        ein.wnocFrames = ch->successes();
        ein.wnocPresent = true;
    }
    r.energy = energy::computeEnergy(ein);
    return r;
}

} // namespace widir::sys
