/**
 * @file
 * Standalone record/replay driver (docs/FRONTEND.md): runs one trace
 * file -- widir-mtrace-v1 or the text ingestion format -- through the
 * full-fidelity replay frontend and optionally diffs the resulting
 * stats against a reference widir-sweep-v1 document (e.g. the one the
 * recording run wrote). The full-fidelity contract is that every
 * machine field of the report schema (sys::reportFields() rows not
 * marked host) matches exactly; the host rows describe the host
 * process and the stimulus plumbing rather than the simulated machine.
 *
 *   replay_trace --trace-in FILE [--protocol widir|baseline]
 *                [--tiles N] [--scale N] [--out FILE.json]
 *                [--diff REF.json]
 *
 * The machine flags supply the machine for a headerless text trace; a
 * recorded trace carries its machine, so giving one of them for it is
 * a usage error. The replay is named by the trace: its header's app,
 * else "trace:<file stem>". Exits 0 on success (and --help), 1 when
 * --diff finds a mismatch, 2 on usage or I/O errors, including a trace
 * file that cannot be loaded or does not fit the machine.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "frontend/frontend.h"

namespace {

using widir::sys::json::Value;

void
printUsage(std::FILE *to)
{
    std::fprintf(to, "usage: replay_trace --trace-in FILE "
                     "[--protocol widir|baseline]\n"
                     "       [--tiles N] [--scale N] [--out FILE.json] "
                     "[--diff REF.json]\n");
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "replay_trace: %s\n", why.c_str());
    printUsage(stderr);
    std::exit(2);
}

/** The value recorded header @p h holds for machine flag @p flag. */
std::string
pinnedValue(const widir::frontend::TraceHeader &h, const std::string &flag)
{
    if (flag == "--tiles")
        return std::to_string(h.cores);
    if (flag == "--scale")
        return std::to_string(h.scale);
    return widir::coherence::protocolName(
        static_cast<widir::coherence::Protocol>(h.protocol));
}

/**
 * First machine field (a non-host row of the report schema) where the
 * replay @p r differs from the reference result object @p want, as
 * "/block/key"; "" when they agree.
 */
std::string
firstDiff(const widir::sys::ExperimentResult &r, const Value &want)
{
    for (const widir::sys::ReportField &f : widir::sys::reportFields()) {
        if (f.host)
            continue;
        const Value *ref = f.lookup(want);
        if (f.written(r) ? ref == nullptr || f.get(r) != *ref
                         : ref != nullptr)
            return std::string(*f.block ? "/" : "") + f.block + "/" +
                   f.name;
    }
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace widir;

    std::string trace_in, out_path, diff_path;
    coherence::Protocol proto = coherence::Protocol::WiDir;
    std::uint32_t tiles = 64;
    std::uint32_t scale = 1;
    // Machine flags as given (flag, value), checked against the header.
    std::vector<std::pair<std::string, std::string>> machine_flags;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto operand = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(std::string(arg) + " requires an operand");
            return argv[++i];
        };
        if (!std::strcmp(arg, "--trace-in")) {
            trace_in = operand();
        } else if (!std::strcmp(arg, "--protocol")) {
            const char *v = operand();
            if (!std::strcmp(v, "widir"))
                proto = coherence::Protocol::WiDir;
            else if (!std::strcmp(v, "baseline"))
                proto = coherence::Protocol::BaselineMESI;
            else
                usage("--protocol wants widir|baseline");
            machine_flags.emplace_back(arg, v);
        } else if (!std::strcmp(arg, "--tiles")) {
            const char *v = operand();
            long n = 0;
            if (!sys::parseEnvInt(v, 1, 1'000'000, n))
                usage("invalid --tiles value");
            tiles = static_cast<std::uint32_t>(n);
            machine_flags.emplace_back(arg, v);
        } else if (!std::strcmp(arg, "--scale")) {
            const char *v = operand();
            long n = 0;
            if (!sys::parseEnvInt(v, 1, 1'000'000, n))
                usage("invalid --scale value");
            scale = static_cast<std::uint32_t>(n);
            machine_flags.emplace_back(arg, v);
        } else if (!std::strcmp(arg, "--out")) {
            out_path = operand();
        } else if (!std::strcmp(arg, "--diff")) {
            diff_path = operand();
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            std::printf("replay_trace: replay one trace file\n");
            printUsage(stdout);
            return 0;
        } else {
            usage(std::string("unknown flag '") + arg + "'");
        }
    }
    if (trace_in.empty())
        usage("--trace-in is required");

    // A recorded trace pins the machine, so a machine flag could only
    // be ignored: refuse it, naming the value the header holds. Only
    // the header is read; a text trace has none, and the replay below
    // loads and checks the whole file.
    if (!machine_flags.empty()) {
        frontend::TraceHeader h;
        std::string err;
        if (frontend::readMtraceHeader(trace_in, h, err) && h.hasMachine) {
            const auto &[flag, given] = machine_flags.front();
            usage(flag + " " + given + ": " + trace_in +
                  " is a recording whose header pins " + flag + " " +
                  pinnedValue(h, flag));
        }
    }

    // Load and check the trace before the run, so a file that cannot be
    // read, decoded or replayed is reported here, naming the file. The
    // load streams the file and keeps only piece offsets; the run
    // loads it again.
    {
        frontend::MemTrace trace;
        std::string err;
        if (frontend::loadTraceFile(trace_in, trace, err)) {
            err = frontend::validateTrace(
                trace, trace.header.hasMachine ? trace.header.cores : tiles);
        }
        if (!err.empty()) {
            // Some loader messages already start with the path.
            if (err.compare(0, trace_in.size(), trace_in) != 0)
                err = trace_in + ": " + err;
            std::fprintf(stderr, "replay_trace: %s\n", err.c_str());
            return 2;
        }
    }

    sys::ExperimentSpec spec;
    spec.protocol = proto;
    spec.cores = tiles;
    spec.scale = scale;
    spec.frontend = frontend::FrontendKind::ReplayFull;
    spec.replayPath = trace_in;
    sys::ExperimentResult r = sys::runExperiment(spec);

    std::printf("%s %s: %s replay of %s\n", r.app.c_str(),
                coherence::protocolName(r.protocol),
                frontend::frontendKindName(r.frontendKind),
                trace_in.c_str());
    std::printf("  cycles %llu  instructions %llu  loads %llu  "
                "stores %llu  events %llu\n",
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions),
                static_cast<unsigned long long>(r.loads),
                static_cast<unsigned long long>(r.stores),
                static_cast<unsigned long long>(r.executedEvents));

    if (!out_path.empty() &&
        !sys::writeResultsJson(out_path, "replay_trace", {r}))
        return 2;

    if (!diff_path.empty()) {
        std::ifstream f(diff_path);
        if (!f) {
            std::fprintf(stderr, "replay_trace: cannot read %s\n",
                         diff_path.c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << f.rdbuf();
        Value ref;
        std::string err;
        if (!sys::json::parse(ss.str(), ref, &err)) {
            std::fprintf(stderr, "replay_trace: %s: %s\n",
                         diff_path.c_str(), err.c_str());
            return 2;
        }
        const Value *results = ref.find("results");
        const Value *want = results != nullptr && results->isArray() &&
                !results->array.empty()
            ? &results->array.front()
            : &ref; // allow a bare result object too
        std::string diff = firstDiff(r, *want);
        if (!diff.empty()) {
            std::fprintf(stderr,
                         "replay_trace: stats diverge from %s at %s\n",
                         diff_path.c_str(), diff.c_str());
            return 1;
        }
        std::printf("  stats match %s (machine fields)\n",
                    diff_path.c_str());
    }
    return 0;
}
