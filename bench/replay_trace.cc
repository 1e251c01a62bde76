/**
 * @file
 * Standalone record/replay driver (docs/FRONTEND.md): runs one trace
 * file -- widir-mtrace-v1 or the text ingestion format -- through the
 * full-fidelity replay frontend and optionally byte-diffs the
 * resulting stats against a reference widir-sweep-v1 document (e.g.
 * the one the recording run wrote). The full-fidelity contract is that the diff is
 * empty modulo the host_* fields and the frontend echo block, which
 * describe the host process and the stimulus plumbing rather than the
 * simulated machine.
 *
 *   replay_trace --trace-in FILE [--protocol widir|baseline]
 *                [--tiles N] [--scale N] [--out FILE.json]
 *                [--diff REF.json]
 *
 * The machine flags only matter for headerless text traces; a recorded
 * trace carries its machine and overrides them. Exits 0 on success,
 * 1 when --diff finds a mismatch, 2 on usage or I/O errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"
#include "frontend/frontend.h"

namespace {

using widir::sys::json::Value;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "replay_trace: %s\n"
                 "usage: replay_trace --trace-in FILE "
                 "[--protocol widir|baseline]\n"
                 "       [--tiles N] [--scale N] [--out FILE.json] "
                 "[--diff REF.json]\n",
                 why);
    std::exit(2);
}

/** Result-object fields excluded from the fidelity diff. */
bool
ignoredKey(const std::string &key)
{
    return key.rfind("host_", 0) == 0 || key == "frontend";
}

/**
 * First differing path between two result objects ("" when equal).
 * Ignored keys are skipped at every object level (they only occur at
 * the top, but skipping everywhere keeps the walk uniform).
 */
std::string
firstDiff(const Value &a, const Value &b, const std::string &path)
{
    if (a.type != b.type)
        return path + " (type)";
    switch (a.type) {
      case Value::Type::Object: {
        for (const auto &[key, av] : a.object) {
            if (ignoredKey(key))
                continue;
            const Value *bv = b.find(key);
            if (bv == nullptr)
                return path + "/" + key + " (missing in reference)";
            if (std::string d = firstDiff(av, *bv, path + "/" + key);
                !d.empty())
                return d;
        }
        for (const auto &[key, bv] : b.object) {
            if (!ignoredKey(key) && a.find(key) == nullptr)
                return path + "/" + key + " (missing in replay)";
        }
        return "";
      }
      case Value::Type::Array: {
        if (a.array.size() != b.array.size())
            return path + " (length)";
        for (std::size_t i = 0; i < a.array.size(); ++i) {
            std::string elem =
                path + "[" + std::to_string(i) + "]";
            if (std::string d = firstDiff(a.array[i], b.array[i], elem);
                !d.empty())
                return d;
        }
        return "";
      }
      case Value::Type::Number:
        // %.17g round-trips doubles exactly, so equality is exact.
        return a.number == b.number && a.uinteger == b.uinteger
            ? ""
            : path;
      case Value::Type::String:
        return a.string == b.string ? "" : path;
      case Value::Type::Bool:
        return a.boolean == b.boolean ? "" : path;
      case Value::Type::Null:
        return "";
    }
    return path;
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

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto operand = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing operand");
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
        } else if (!std::strcmp(arg, "--tiles")) {
            long n = 0;
            if (!sys::parseEnvInt(operand(), 1, 1'000'000, n))
                usage("invalid --tiles value");
            tiles = static_cast<std::uint32_t>(n);
        } else if (!std::strcmp(arg, "--scale")) {
            long n = 0;
            if (!sys::parseEnvInt(operand(), 1, 1'000'000, n))
                usage("invalid --scale value");
            scale = static_cast<std::uint32_t>(n);
        } else if (!std::strcmp(arg, "--out")) {
            out_path = operand();
        } else if (!std::strcmp(arg, "--diff")) {
            diff_path = operand();
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage("replay one trace file");
        } else {
            usage("unknown flag");
        }
    }
    if (trace_in.empty())
        usage("--trace-in is required");

    sys::ExperimentSpec spec;
    spec.app = workload::registerTraceApp("trace:replay", trace_in);
    spec.protocol = proto;
    spec.cores = tiles;
    spec.scale = scale;
    spec.frontend = frontend::FrontendKind::ReplayFull;
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
        Value got;
        if (!sys::json::parse(resultToJson(r), got, &err)) {
            std::fprintf(stderr, "replay_trace: self-parse: %s\n",
                         err.c_str());
            return 2;
        }
        std::string diff = firstDiff(got, *want, "");
        if (!diff.empty()) {
            std::fprintf(stderr,
                         "replay_trace: stats diverge from %s at %s\n",
                         diff_path.c_str(), diff.c_str());
            return 1;
        }
        std::printf("  stats match %s (modulo host_*/frontend)\n",
                    diff_path.c_str());
    }
    return 0;
}
