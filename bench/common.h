/**
 * @file
 * The command line shared by the figure binaries (bench/figures.cc):
 * every table, figure and sensitivity binary accepts the same flags,
 * parsed by bench::Options from one declarative flag table (--help
 * prints it):
 *   --jobs N              worker threads for the sweep
 *   --trace               capture a protocol trace per configuration
 *                         and export Chrome trace-event JSON files
 *                         next to the stats (docs/TRACING.md)
 *   --trace-window LO:HI  restrict tracing to cycles [LO, HI]
 *                         (implies --trace)
 *   --ber B               wireless frame bit-error rate
 *                         (docs/FAULTS.md; repeatable: sensitivity_ber
 *                         sweeps the values given)
 *   --preamble-loss P     per-frame preamble-loss probability
 *   --tone-loss P         per-observation tone-pulse-loss probability
 *   --burst B:ENTER[:EXIT]  Gilbert-Elliott burst noise: burst-state
 *                         BER plus enter/exit probabilities
 *   --fault-seed N        extra seed folded into the fault RNG stream
 *   --tiles N             tile count (repeatable; the values replace
 *                         the figure's tile list)
 *   --mesh-concentration C  tiles per mesh router (concentrated mesh)
 *   --wireless-channels N frequency-multiplexed data sub-channels
 *   --home-map M          directory sharding: interleave | hash
 *   --record DIR          record a widir-mtrace-v1 trace per
 *                         configuration into DIR (docs/FRONTEND.md)
 *
 * A figure runs the apps' kernels only; a recorded or text trace
 * replays through bench/replay_trace, which sets
 * ExperimentSpec::replayPath (docs/FRONTEND.md).
 *
 * Environment (flags win over environment):
 *   WIDIR_BENCH_SCALE   work multiplier (default per figure)
 *   WIDIR_BENCH_APPS    comma-separated subset of app names; replaces
 *                       the figure's app list (exit 2 on any unknown
 *                       name)
 *   WIDIR_BENCH_JOBS    worker threads (--jobs wins; default: all
 *                       hardware threads)
 *   WIDIR_BENCH_OUT     JSON output directory (default bench/out)
 *   WIDIR_TRACE         non-empty and not "0": same as --trace
 *   WIDIR_TRACE_WINDOW  LO:HI cycle window (same as --trace-window)
 */

#ifndef WIDIR_BENCH_COMMON_H
#define WIDIR_BENCH_COMMON_H

#include <climits>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "system/experiment.h"
#include "system/report.h"
#include "system/sweep.h"
#include "workload/registry.h"

namespace widir::bench {

using coherence::Protocol;
using sys::ExperimentResult;
using sys::ExperimentSpec;
using workload::AppInfo;

/**
 * Apps to run: the WIDIR_BENCH_APPS subset, else the comma list
 * @p defaults, else all of them. Any name that is not a known app
 * exits 2 before anything runs, so a typo never silently shrinks a
 * sweep.
 */
inline std::vector<const AppInfo *>
benchApps(const char *defaults)
{
    std::vector<const AppInfo *> selected;
    const char *env = std::getenv("WIDIR_BENCH_APPS");
    const char *list_text = env && *env ? env : defaults;
    if (!list_text) {
        for (const auto &app : workload::allApps())
            selected.push_back(&app);
        return selected;
    }
    bool any_unknown = false;
    std::string list(list_text);
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        std::size_t end = comma == std::string::npos ? list.size() : comma;
        std::string name = list.substr(pos, end - pos);
        // Trim surrounding whitespace; skip empty tokens so trailing
        // or doubled commas are harmless.
        std::size_t b = name.find_first_not_of(" \t");
        std::size_t e = name.find_last_not_of(" \t");
        name = b == std::string::npos
            ? std::string()
            : name.substr(b, e - b + 1);
        if (!name.empty()) {
            if (const AppInfo *app = workload::findApp(name)) {
                selected.push_back(app);
            } else {
                std::fprintf(stderr, "unknown app '%s'\n", name.c_str());
                any_unknown = true;
            }
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (any_unknown) {
        std::fprintf(stderr,
                     "WIDIR_BENCH_APPS='%s' names an unknown app\n",
                     list_text);
        std::exit(2);
    }
    return selected;
}

/** JSON/trace output directory: WIDIR_BENCH_OUT or bench/out. */
inline std::string
benchOutDir()
{
    const char *dir = std::getenv("WIDIR_BENCH_OUT");
    return dir && *dir ? dir : "bench/out";
}

/**
 * Parsed command line for one figure binary.
 *
 * The constructor consumes argv against one declarative flag table
 * (the same table generates --help), applies the WIDIR_TRACE /
 * WIDIR_TRACE_WINDOW environment fallbacks, and exits with a usage
 * message on any unknown flag -- every figure therefore rejects typos
 * instead of silently ignoring them.
 */
class Options
{
  public:
    Options(const char *bench_name, int argc, char **argv)
        : name_(bench_name)
    {
        struct Flag
        {
            const char *name;                      ///< e.g. "--jobs"
            const char *operand;                   ///< null: no operand
            const char *help;
            std::function<void(const char *)> parse;
        };
        const Flag flags[] = {
            {"--jobs", "N", "worker threads for the sweep",
             [this](const char *v) {
                 long n = 0;
                 if (!sys::parseEnvInt(v, 1, 4096, n))
                     die("invalid --jobs value '%s'", v);
                 jobs_ = static_cast<unsigned>(n);
             }},
            {"--trace", nullptr,
             "capture + export a protocol trace per configuration",
             [this](const char *) { traceOn_ = true; }},
            {"--trace-window", "LO:HI",
             "restrict tracing to a cycle window (implies --trace)",
             [this](const char *v) { parseWindow(v); }},
            {"--ber", "B",
             "wireless frame bit-error rate (repeatable)",
             [this](const char *v) {
                 double b = parseProb("--ber", v);
                 fault_.ber = b;
                 bers_.push_back(b);
             }},
            {"--preamble-loss", "P",
             "per-frame preamble-loss probability",
             [this](const char *v) {
                 fault_.preambleLossProb = parseProb("--preamble-loss", v);
             }},
            {"--tone-loss", "P",
             "per-observation tone-pulse-loss probability",
             [this](const char *v) {
                 fault_.toneLossProb = parseProb("--tone-loss", v);
             }},
            {"--burst", "B:ENTER[:EXIT]",
             "Gilbert-Elliott burst noise: BER in the burst state "
             "plus enter/exit probabilities",
             [this](const char *v) { parseBurst(v); }},
            {"--fault-seed", "N",
             "extra seed folded into the fault RNG stream",
             [this](const char *v) {
                 long n = 0;
                 if (!sys::parseEnvInt(v, 0, LONG_MAX, n))
                     die("invalid --fault-seed value '%s'", v);
                 fault_.seed = static_cast<std::uint64_t>(n);
             }},
            {"--tiles", "N",
             "tile (core) count; repeatable, replaces the figure's "
             "tile list",
             [this](const char *v) {
                 long n = 0;
                 if (!sys::parseEnvInt(v, 1, sys::kMaxCores, n))
                     die("invalid --tiles value '%s' (at most %u)", v,
                         sys::kMaxCores);
                 tiles_.push_back(static_cast<std::uint32_t>(n));
             }},
            {"--mesh-concentration", "C",
             "tiles per mesh router (concentrated mesh; must divide "
             "the tile count)",
             [this](const char *v) {
                 long n = 0;
                 if (!sys::parseEnvInt(v, 1, 4096, n))
                     die("invalid --mesh-concentration value '%s'", v);
                 meshConcentration_ = static_cast<std::uint32_t>(n);
             }},
            {"--wireless-channels", "N",
             "frequency-multiplexed wireless data sub-channels",
             [this](const char *v) {
                 long n = 0;
                 if (!sys::parseEnvInt(v, 1, 4096, n))
                     die("invalid --wireless-channels value '%s'", v);
                 wirelessChannels_ = static_cast<std::uint32_t>(n);
             }},
            {"--home-map", "interleave|hash",
             "directory-bank sharding policy",
             [this](const char *v) {
                 if (!std::strcmp(v, "interleave"))
                     homeMap_ = mem::HomeMap::Interleave;
                 else if (!std::strcmp(v, "hash"))
                     homeMap_ = mem::HomeMap::Hash;
                 else
                     die("invalid --home-map value '%s'", v);
             }},
            {"--record", "DIR",
             "record a widir-mtrace-v1 trace per configuration into "
             "DIR (docs/FRONTEND.md)",
             [this](const char *v) {
                 if (!*v)
                     die("--record wants a directory");
                 recordDir_ = v;
             }},
        };

        if (const char *env = std::getenv("WIDIR_TRACE"))
            traceOn_ = *env && std::strcmp(env, "0") != 0;
        if (const char *env = std::getenv("WIDIR_TRACE_WINDOW"))
            parseWindow(env);

        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
                printHelp(flags, sizeof(flags) / sizeof(flags[0]));
                std::exit(0);
            }
            const Flag *match = nullptr;
            const char *inline_val = nullptr;
            for (const Flag &f : flags) {
                std::size_t n = std::strlen(f.name);
                if (!std::strcmp(arg, f.name)) {
                    match = &f;
                    break;
                }
                if (f.operand && !std::strncmp(arg, f.name, n) &&
                    arg[n] == '=') {
                    match = &f;
                    inline_val = arg + n + 1;
                    break;
                }
            }
            if (!match)
                die("unknown flag '%s' (try --help)", arg);
            if (!match->operand) {
                match->parse(nullptr);
                continue;
            }
            if (!inline_val) {
                if (i + 1 >= argc)
                    die("%s requires %s", match->name, match->operand);
                inline_val = argv[++i];
            }
            match->parse(inline_val);
        }

        if (std::string err = fault_.validate(); !err.empty())
            die("invalid fault options: %s", err.c_str());
    }

    /** Worker threads; 0 lets SweepRunner pick sys::defaultJobs(). */
    unsigned jobs() const { return jobs_; }
    bool traceOn() const { return traceOn_; }

    /** Fault spec assembled from the fault flags (default: clean). */
    const fault::FaultSpec &fault() const { return fault_; }

    /** Every --ber value, in order (sensitivity_ber sweeps these). */
    const std::vector<double> &berList() const { return bers_; }

    /** Every --tiles value, in order (empty: the figure's tiles). */
    const std::vector<std::uint32_t> &tilesList() const
    {
        return tiles_;
    }

    /**
     * Layer the sweep-wide topology, --record and tracing flags onto
     * spec number @p index of the sweep; the index (with app,
     * protocol and tile count) names its record and trace files.
     */
    void
    apply(ExperimentSpec &spec, std::size_t index) const
    {
        spec.meshConcentration = meshConcentration_;
        spec.wirelessChannels = wirelessChannels_;
        spec.homeMap = homeMap_;
        char tag[64];
        std::snprintf(tag, sizeof(tag), "%zu_%s_%s_%uc", index,
                      spec.app->name,
                      spec.protocol == Protocol::WiDir ? "widir"
                                                       : "baseline",
                      spec.cores);
        if (!recordDir_.empty()) {
            spec.frontend = frontend::FrontendKind::Record;
            spec.recordPath = recordDir_ + "/" + tag + ".mtrace";
        }
        if (traceOn_) {
            spec.trace.enabled = true;
            spec.trace.start = traceLo_;
            spec.trace.end = traceHi_;
            spec.trace.file =
                benchOutDir() + "/" + name_ + "." + tag + ".trace.json";
        }
    }

  private:
    [[noreturn]] void
    die(const char *fmt, ...)
    {
        va_list ap;
        va_start(ap, fmt);
        std::fprintf(stderr, "%s: ", name_.c_str());
        std::vfprintf(stderr, fmt, ap);
        std::fprintf(stderr, "\n");
        va_end(ap);
        std::exit(2);
    }

    void
    parseWindow(const char *val)
    {
        const char *colon = std::strchr(val, ':');
        long lo = 0, hi = 0;
        if (!colon ||
            !sys::parseEnvInt(std::string(val, colon).c_str(), 0, LONG_MAX,
                              lo) ||
            !sys::parseEnvInt(colon + 1, 0, LONG_MAX, hi))
            die("trace window must be LO:HI, got '%s'", val);
        traceLo_ = static_cast<sim::Tick>(lo);
        traceHi_ = static_cast<sim::Tick>(hi);
        traceOn_ = true;
    }

    double
    parseProb(const char *flag, const char *val)
    {
        char *end = nullptr;
        double p = std::strtod(val, &end);
        if (!end || end == val || *end != '\0' || !(p >= 0.0) ||
            !(p <= 1.0))
            die("%s wants a probability in [0,1], got '%s'", flag, val);
        return p;
    }

    void
    parseBurst(const char *val)
    {
        // B:ENTER[:EXIT]; EXIT keeps its FaultSpec default if omitted.
        std::string s(val);
        std::size_t c1 = s.find(':');
        if (c1 == std::string::npos)
            die("--burst wants B:ENTER[:EXIT], got '%s'", val);
        std::size_t c2 = s.find(':', c1 + 1);
        fault_.burstBer = parseProb("--burst", s.substr(0, c1).c_str());
        std::string enter = c2 == std::string::npos
            ? s.substr(c1 + 1)
            : s.substr(c1 + 1, c2 - c1 - 1);
        fault_.burstEnterProb = parseProb("--burst", enter.c_str());
        if (c2 != std::string::npos)
            fault_.burstExitProb =
                parseProb("--burst", s.substr(c2 + 1).c_str());
    }

    template <typename FlagT>
    void
    printHelp(const FlagT *flags, std::size_t n)
    {
        std::printf("usage: %s [flags]\n\n"
                    "Regenerates one experiment of the WiDir paper; "
                    "see bench/common.h\nfor the WIDIR_BENCH_* "
                    "environment knobs.\n\nflags:\n",
                    name_.c_str());
        for (std::size_t i = 0; i < n; ++i) {
            char left[48];
            std::snprintf(left, sizeof(left), "%s%s%s", flags[i].name,
                          flags[i].operand ? " " : "",
                          flags[i].operand ? flags[i].operand : "");
            std::printf("  %-28s %s\n", left, flags[i].help);
        }
        std::printf("  %-28s %s\n", "--help", "this message");
    }

    std::string name_;
    unsigned jobs_ = 0;
    bool traceOn_ = false;
    sim::Tick traceLo_ = 0;
    sim::Tick traceHi_ = sim::kTickNever;
    fault::FaultSpec fault_;
    std::vector<double> bers_;
    std::vector<std::uint32_t> tiles_;
    std::uint32_t meshConcentration_ = 1;
    std::uint32_t wirelessChannels_ = 1;
    mem::HomeMap homeMap_ = mem::HomeMap::Interleave;
    std::string recordDir_;
};

} // namespace widir::bench

#endif // WIDIR_BENCH_COMMON_H
