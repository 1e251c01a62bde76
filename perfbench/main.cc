/**
 * @file
 * perfbench: the repository's end-to-end benchmark binary.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
 *             [--smoke] [--forge-mismatch]
 *
 * --trace 0 measures the end-to-end metrics on the product path
 * (sys::SweepRunner over sys::runExperiment): set-up cost, then the
 * workload's batch repeated for S seconds. --trace 1 runs the batch
 * once, then the traced pass (spans around every layer call) and the
 * mesh capture pass, and reports the per-layer metrics. Both write a
 * widir-bench-v1 report to DIR; perfbench/run.py prints it. Every
 * experiment is one operation; a failed check counts it as failed.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "sim/log.h"
#include "system/report.h"
#include "system/sweep.h"
#include "workload/registry.h"

extern char **environ;

namespace perfbench {

using namespace widir;
using coherence::Protocol;

const Workload *
findWorkload(const std::string &name)
{
    // Why each workload is in the set: perfbench/README.md.
    static const std::vector<Workload> table = {
        {"sweep64", {}, 64, 4, true, false, false},
        {"fft256", {"fft"}, 256, 1, false, false, false},
        {"traced64", {"radiosity", "fft", "kvstore"}, 64, 4, false, true,
         false},
        {"record_replay64", {"radiosity", "fft", "kvstore"}, 64, 4, false,
         false, true},
    };
    for (const Workload &w : table) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

namespace {

/** Set-up probe: a kernel that returns at once. */
cpu::Task
emptyKernel(cpu::Thread &, const workload::WorkloadParams &)
{
    co_return;
}

const workload::AppInfo kEmptyApp{"perfbench-empty", "BENCH", 0.0,
                                  emptyKernel,
                                  "no work: machine set-up cost only"};

std::uint32_t
coresOf(const RunSettings &rs)
{
    return rs.smoke ? 16 : rs.workload->cores;
}

const char *
protocolTag(Protocol p)
{
    return p == Protocol::WiDir ? "widir" : "baseline";
}

} // namespace

std::vector<sys::ExperimentSpec>
workloadSpecs(const RunSettings &rs, const std::string &tag)
{
    const Workload &w = *rs.workload;
    std::vector<const workload::AppInfo *> apps;
    if (w.apps.empty()) {
        for (const auto &app : workload::allApps())
            apps.push_back(&app);
    } else {
        for (const auto &name : w.apps)
            apps.push_back(workload::findApp(name));
    }
    if (rs.smoke && apps.size() > 2)
        apps.resize(2);

    std::vector<sys::ExperimentSpec> specs;
    for (const workload::AppInfo *app : apps) {
        for (Protocol p : {Protocol::BaselineMESI, Protocol::WiDir}) {
            sys::ExperimentSpec s;
            s.app = app;
            s.protocol = p;
            s.cores = coresOf(rs);
            s.scale = rs.smoke ? 1 : w.scale;
            s.seed = rs.seed;
            s.trace.enabled = w.traced;
            if (w.recordReplay) {
                s.frontend = frontend::FrontendKind::Record;
                // The pid keeps concurrent runs off each other's files.
                s.recordPath = rs.outDir + "/" + w.name + "_" +
                               std::to_string(getpid()) + "_" + tag + "_" +
                               std::to_string(specs.size()) + "_" +
                               app->name + "_" + protocolTag(p) +
                               ".mtrace";
            }
            specs.push_back(std::move(s));
        }
    }
    return specs;
}

std::vector<sys::ExperimentSpec>
replaySpecs(const std::vector<sys::ExperimentSpec> &records)
{
    std::vector<sys::ExperimentSpec> specs = records;
    for (sys::ExperimentSpec &s : specs) {
        s.frontend = frontend::FrontendKind::ReplayFull;
        s.replayPath = s.recordPath;
        s.recordPath.clear();
    }
    return specs;
}

std::string
simulatedJson(sys::ExperimentResult r)
{
    r.hostSeconds = 0.0;
    r.hostEventsPerSec = 0.0;
    r.hostMsgpoolGrew = 0;
    r.hostMapRehashes = 0;
    r.frontendKind = frontend::FrontendKind::Coroutine;
    r.recordPath.clear();
    r.replayPath.clear();
    return sys::resultToJson(r);
}

namespace {

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident set of this process (Linux VmHWM) in KiB, 0 if unknown. */
std::uint64_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

/** One pass of the workload on the product path. */
struct Rep
{
    double wall = 0.0;
    std::vector<double> experimentSeconds; ///< spec order, then replays
    std::vector<sys::ExperimentResult> results; ///< recordings, replays
};

Rep
productRep(const sys::SweepRunner &runner,
           const std::vector<sys::ExperimentSpec> &specs,
           const std::vector<sys::ExperimentSpec> &replays)
{
    Rep rep;
    rep.experimentSeconds.resize(specs.size() + replays.size());
    auto run_batch = [&](const std::vector<sys::ExperimentSpec> &batch,
                         std::size_t base) {
        return runner.run(batch, [&](const sys::ExperimentSpec &spec) {
            const auto t0 = Clock::now();
            sys::ExperimentResult r = sys::runExperiment(spec);
            rep.experimentSeconds[base + (&spec - batch.data())] =
                secondsSince(t0);
            return r;
        });
    };
    const auto t0 = Clock::now();
    rep.results = run_batch(specs, 0);
    if (!replays.empty()) {
        auto more = run_batch(replays, specs.size());
        rep.results.insert(rep.results.end(), more.begin(), more.end());
    }
    rep.wall = secondsSince(t0);
    return rep;
}

/** Failure accounting shared by every check. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::vector<std::string> problems;

    void
    fail(const sys::ExperimentResult &r, const std::string &what)
    {
        problems.push_back(r.app + "/" + coherence::protocolName(r.protocol) +
                           ": " + what);
    }
};

/** Replays (second half of @p results) must equal their recordings. */
void
checkReplays(const RunSettings &rs,
             const std::vector<sys::ExperimentResult> &results, Tally &t)
{
    if (!rs.workload->recordReplay)
        return;
    const std::size_t n = results.size() / 2;
    for (std::size_t i = 0; i < n; ++i) {
        if (simulatedJson(results[n + i]) !=
            simulatedJson(results[peer(rs, i)]))
            t.fail(results[n + i], "replay differs from its recording");
    }
}

/** Mean over apps of WiDir / Baseline of @p metric (pairs adjacent). */
template <typename F>
double
widirOverBaseline(const std::vector<sys::ExperimentResult> &results,
                  F metric)
{
    double sum = 0.0;
    std::size_t apps = 0;
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        sum += metric(results[i + 1]) / metric(results[i]);
        ++apps;
    }
    return sum / static_cast<double>(apps);
}

double
memOpLatency(const sys::ExperimentResult &r)
{
    return static_cast<double>(r.loadLatencySum + r.storeLatencySum) /
           static_cast<double>(r.loads + r.stores);
}

/**
 * Set-up probe: every machine config of the workload (protocol x
 * tiles) run through runExperiment with a kernel that returns at once,
 * so one sample covers validate, build, start/quiesce, coherence check
 * and teardown.
 */
std::vector<sys::ExperimentSpec>
setupSpecs(const RunSettings &rs)
{
    std::vector<sys::ExperimentSpec> specs;
    for (Protocol p : {Protocol::BaselineMESI, Protocol::WiDir}) {
        sys::ExperimentSpec s;
        s.app = &kEmptyApp;
        s.protocol = p;
        s.cores = coresOf(rs);
        s.seed = rs.seed;
        s.trace.enabled = rs.workload->traced;
        specs.push_back(s);
    }
    return specs;
}

double
setupSeconds(const std::vector<sys::ExperimentSpec> &specs)
{
    const auto t0 = Clock::now();
    for (const auto &s : specs)
        sys::runExperiment(s);
    return secondsSince(t0);
}

/** Set-up samples taken before each repetition of the batch. */
constexpr int kSetupSetsPerRep = 3;

using Metrics = std::map<std::string, double>;

void
writeMetrics(std::FILE *f, const char *key, const Metrics &m)
{
    std::fprintf(f, "  \"%s\": {", key);
    const char *sep = "";
    for (const auto &[name, value] : m) {
        std::fprintf(f, "%s\n    \"%s\": %.17g", sep, name.c_str(), value);
        sep = ",";
    }
    std::fprintf(f, "\n  },\n");
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            out += ' ';
        else
            out += ch;
    }
    return out + "\"";
}

/** Per-layer self time: span duration minus its children's. */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans, std::vector<double> &self)
{
    self.assign(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double duration = spans[i].end - spans[i].start;
        self[i] += duration;
        if (spans[i].parent >= 0)
            self[spans[i].parent] -= duration;
    }
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_layer[spans[i].name] += self[i];
    return by_layer;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::vector<double> self;
    const auto by_layer = selfTimes(spans, self);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        sim::fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\n  \"schema\": \"widir-bench-spans-v1\",\n"
                    "  \"self_seconds_by_layer\": {");
    const char *sep = "";
    for (const auto &[name, secs] : by_layer) {
        std::fprintf(f, "%s\n    \"%s\": %.9f", sep, name.c_str(), secs);
        sep = ",";
    }
    std::fprintf(f, "\n  },\n  \"spans\": [");
    sep = "";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n    {\"experiment\": %u, \"id\": %zu, "
                     "\"parent\": %d, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"self\": %.9f}",
                     sep, s.experiment, i, s.parent, s.name, s.start, s.end,
                     self[i]);
        sep = ",";
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
}

double
sumSpans(const std::vector<Span> &spans, const char *name)
{
    double total = 0.0;
    for (const Span &s : spans) {
        if (std::strcmp(s.name, name) == 0)
            total += s.end - s.start;
    }
    return total;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** The per-layer metrics of one traced run. */
Metrics
layerMetrics(const TracedPass &tp, const Rep &product, unsigned workers,
             std::pair<std::uint64_t, double> mesh)
{
    Counters c = tp.counters;
    Metrics m;
    for (const char *name :
         {"sim.events", "sim.inline_heap_fallbacks", "noc.messages",
          "noc.flit_hops", "mem.map_rehashes", "mem.fetches",
          "mem.writebacks", "core.fabric.msgpool_grew", "cpu.instructions",
          "cpu.mem_ops", "core.l1.accesses", "core.l1.evictions",
          "core.l1.wireless_writes", "core.l1.wireless_squashes",
          "core.dir.requests", "core.dir.nacks_sent", "core.dir.invs_sent",
          "core.dir.fwds", "core.dir.llc_recalls", "core.dir.to_wireless",
          "wireless.frames", "wireless.tx_attempts", "wireless.censuses",
          "sim.trace.records", "frontend.mtrace_bytes"})
        m[name] = c[name];

    m["system.build_s"] = sumSpans(tp.spans, "system.build");
    m["system.run_s"] = sumSpans(tp.spans, "system.run");
    m["system.check_s"] = sumSpans(tp.spans, "system.check");
    m["system.teardown_s"] = sumSpans(tp.spans, "system.teardown");
    m["system.report_s"] = sumSpans(tp.spans, "system.report");
    m["system.traced_wall_s"] = tp.wallSeconds;
    m["system.product_wall_s"] = product.wall;
    double busy = 0.0;
    for (double secs : product.experimentSeconds)
        busy += secs;
    m["system.sweep_occupancy"] = ratio(busy, workers * product.wall);
    m["sim.trace.legality_s"] = sumSpans(tp.spans, "sim.trace.legality");
    m["frontend.mtrace_write_s"] = sumSpans(tp.spans, "frontend.mtrace_write");
    m["frontend.mtrace_read_s"] = sumSpans(tp.spans, "frontend.mtrace_read");
    m["frontend.replay_run_s"] = sumSpans(tp.spans, "frontend.replay_run");

    m["sim.events_per_run_s"] = ratio(
        c["sim.events"], m["system.run_s"] + m["frontend.replay_run_s"]);
    m["noc.mean_latency_cycles"] =
        ratio(c["_noc.latency_sum"], c["noc.messages"]);
    m["noc.host_ns_per_send"] =
        ratio(mesh.second, static_cast<double>(mesh.first));
    m["cpu.mem_stall_share"] =
        ratio(c["_cpu.stall_cycles"], c["_cpu.core_cycles"]);
    m["cpu.mem_op_latency_cycles"] =
        ratio(c["_cpu.latency_sum"], c["cpu.mem_ops"]);
    m["core.l1.miss_ratio"] = ratio(c["_l1.misses"], c["core.l1.accesses"]);
    m["core.l1.nacks_per_miss"] = ratio(c["_l1.nacks_seen"], c["_l1.misses"]);
    m["wireless.collision_prob"] =
        ratio(c["_wireless.collisions"],
              c["_wireless.collisions"] + c["wireless.frames"]);
    m["wireless.busy_share"] =
        ratio(c["_wireless.busy_cycles"], c["_wireless.cycles"]);
    m["sim.trace.dropped_ratio"] =
        ratio(c["_trace.dropped"], c["sim.trace.records"]);
    m["sim.trace.strict_share"] =
        ratio(c["_trace.strict"], c["_trace.experiments"]);
    m["frontend.replay_match_share"] =
        ratio(c["_replay.matches"], c["_replay.count"]);
    return m;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --out DIR [--smoke] "
                 "[--forge-mismatch]\n",
                 msg);
    std::exit(2);
}

long
intArg(const char *flag, const char *v, long lo, long hi)
{
    long out = 0;
    if (!sys::parseEnvInt(v, lo, hi, out))
        usage((std::string("invalid ") + flag + " '" + v + "'").c_str());
    return out;
}

/**
 * Refuse environment knobs that would silently change what runs:
 * WIDIR_SIM_THREADS selects the bound/weave kernel inside
 * runExperiment, WIDIR_TRACE* and WIDIR_BENCH_* steer the bench
 * harness. perfbench/run.py clears them before starting this binary.
 */
void
refuseEnvironment()
{
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string var(*e);
        for (const char *prefix :
             {"WIDIR_SIM_THREADS=", "WIDIR_TRACE", "WIDIR_BENCH_"}) {
            if (var.rfind(prefix, 0) == 0) {
                std::fprintf(stderr,
                             "perfbench: refusing to run with %s set\n",
                             var.substr(0, var.find('=')).c_str());
                std::exit(2);
            }
        }
    }
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing an unoptimised build "
                         "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 2;
#endif
    refuseEnvironment();

    RunSettings rs;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            rs.smoke = true;
            continue;
        }
        if (flag == "--forge-mismatch") {
            rs.forge = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload") {
            rs.workload = findWorkload(v);
            if (rs.workload == nullptr)
                usage((std::string("unknown workload '") + v + "'").c_str());
        } else if (flag == "--seed") {
            rs.seed = static_cast<std::uint64_t>(
                intArg("--seed", v, 0, std::numeric_limits<long>::max()));
        } else if (flag == "--seconds") {
            seconds = static_cast<double>(intArg("--seconds", v, 0, 3600));
        } else if (flag == "--trace") {
            trace = static_cast<int>(intArg("--trace", v, 0, 1));
        } else if (flag == "--out") {
            rs.outDir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (rs.workload == nullptr || trace < 0 || rs.outDir.empty())
        usage("--workload, --trace and --out are required");

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    rs.workers = rs.workload->parallel ? std::min(4u, nproc) : 1u;
    const sys::SweepRunner runner(rs.workers);
    const auto specs = workloadSpecs(rs, "product");
    const auto replays = rs.workload->recordReplay
        ? replaySpecs(specs)
        : std::vector<sys::ExperimentSpec>{};
    std::printf("perfbench: %s seed %llu, %zu experiments per pass, "
                "%u worker(s), trace %d\n",
                rs.workload->name, static_cast<unsigned long long>(rs.seed),
                specs.size() + replays.size(), rs.workers, trace);
    std::fflush(stdout);

    Tally tally;
    Metrics e2e, layers;
    std::vector<double> wall_samples, kips_samples, setup_samples;
    std::vector<std::vector<double>> experiment_samples;
    std::vector<Span> spans;
    Rep first;
    if (trace == 0) {
        // One untimed warm-up pass first: the process's first pass pays
        // for growing the heap, which later passes reuse. Set-up samples
        // are interleaved with the timed passes so both see the same
        // stretch of host conditions.
        const auto probe = setupSpecs(rs);
        setupSeconds(probe);
        first = productRep(runner, specs, replays);
        tally.attempted += first.results.size();
        checkReplays(rs, first.results, tally);
        const auto t0 = Clock::now();
        do {
            for (int i = 0; i < kSetupSetsPerRep; ++i)
                setup_samples.push_back(setupSeconds(probe));
            const Rep rep = productRep(runner, specs, replays);
            double instructions = 0.0;
            for (const auto &r : rep.results)
                instructions += static_cast<double>(r.instructions);
            wall_samples.push_back(rep.wall);
            kips_samples.push_back(instructions / rep.wall / 1000.0);
            experiment_samples.push_back(rep.experimentSeconds);
            tally.attempted += rep.results.size();
            for (std::size_t i = 0; i < rep.results.size(); ++i) {
                if (simulatedJson(rep.results[i]) !=
                    simulatedJson(first.results[i]))
                    tally.fail(rep.results[i],
                               "result differs between repetitions");
            }
            checkReplays(rs, rep.results, tally);
        } while (secondsSince(t0) < seconds);
        e2e["peak_rss_mb"] = static_cast<double>(peakRssKb()) / 1024.0;
        e2e["setup_s"] = median(setup_samples);
        e2e["wall_s"] = median(wall_samples);
        e2e["sim_kips"] = median(kips_samples);
    } else {
        first = productRep(runner, specs, replays);
        tally.attempted += first.results.size();
        checkReplays(rs, first.results, tally);
        TracedPass tp = runTracedPass(rs, first.results);
        tally.attempted += tp.attempted;
        tally.problems.insert(tally.problems.end(), tp.problems.begin(),
                              tp.problems.end());
        layers = layerMetrics(tp, first, rs.workers, runMeshCapture(rs));
        spans = std::move(tp.spans);
    }

    // Simulated outcomes of the paper's Figs. 7-9 (recordings only for
    // record_replay64: each replay equals its recording).
    const std::vector<sys::ExperimentResult> primary(
        first.results.begin(), first.results.begin() + specs.size());
    e2e["widir_norm_time"] = widirOverBaseline(
        primary, [](const auto &r) { return static_cast<double>(r.cycles); });
    e2e["widir_norm_mem_latency"] = widirOverBaseline(primary, memOpLatency);
    e2e["widir_norm_energy"] = widirOverBaseline(
        primary, [](const auto &r) { return r.energy.total(); });

    const std::string stem = rs.outDir + "/" + rs.workload->name + "_seed" +
                             std::to_string(rs.seed) + "_trace" +
                             std::to_string(trace);
    const std::string results_path = stem + ".sweep.json";
    if (!sys::writeResultsJson(results_path, rs.workload->name, primary))
        sim::fatal("cannot write %s", results_path.c_str());
    std::string spans_path;
    if (trace == 1) {
        spans_path = stem + ".spans.json";
        writeSpans(spans_path, spans);
    }

    for (const char *tag : {"product", "traced"}) {
        for (const auto &s : workloadSpecs(rs, tag)) {
            if (!s.recordPath.empty())
                std::filesystem::remove(s.recordPath);
        }
    }

    const std::string report_path = stem + ".report.json";
    std::FILE *f = std::fopen(report_path.c_str(), "w");
    if (f == nullptr)
        sim::fatal("cannot write %s", report_path.c_str());
    std::fprintf(f, "{\n  \"schema\": \"widir-bench-v1\",\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
                    "  \"trace\": %d,\n  \"smoke\": %s,\n",
                 rs.workload->name, static_cast<unsigned long long>(rs.seed),
                 trace, rs.smoke ? "true" : "false");
    std::fprintf(f, "  \"provenance\": {\"host_nproc\": %u, \"workers\": %u, "
                    "\"compiler\": %s, \"build_type\": %s},\n",
                 nproc, rs.workers, jsonString(PERFBENCH_COMPILER).c_str(),
                 jsonString(PERFBENCH_BUILD_TYPE).c_str());
    std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %zu,\n",
                 static_cast<unsigned long long>(tally.attempted),
                 tally.problems.size());
    std::fprintf(f, "  \"failures\": [");
    for (std::size_t i = 0; i < tally.problems.size(); ++i)
        std::fprintf(f, "%s%s", i ? ", " : "",
                     jsonString(tally.problems[i]).c_str());
    std::fprintf(f, "],\n");
    writeMetrics(f, "end_to_end", e2e);
    writeMetrics(f, "per_layer", layers);
    std::fprintf(f, "  \"samples\": {\"wall_s\": [");
    for (std::size_t i = 0; i < wall_samples.size(); ++i)
        std::fprintf(f, "%s%.9f", i ? ", " : "", wall_samples[i]);
    std::fprintf(f, "], \"setup_s\": [");
    for (std::size_t i = 0; i < setup_samples.size(); ++i)
        std::fprintf(f, "%s%.9f", i ? ", " : "", setup_samples[i]);
    std::fprintf(f, "], \"experiment_s\": [");
    for (std::size_t i = 0; i < experiment_samples.size(); ++i) {
        std::fprintf(f, "%s[", i ? ", " : "");
        for (std::size_t j = 0; j < experiment_samples[i].size(); ++j)
            std::fprintf(f, "%s%.9f", j ? ", " : "", experiment_samples[i][j]);
        std::fprintf(f, "]");
    }
    std::fprintf(f, "]},\n");
    std::fprintf(f, "  \"results_file\": %s,\n  \"spans_file\": %s\n}\n",
                 jsonString(results_path).c_str(),
                 jsonString(spans_path).c_str());
    std::fclose(f);
    std::printf("perfbench: report %s\n", report_path.c_str());
    return 0;
}
