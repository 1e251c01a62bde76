/**
 * @file
 * widir_cli: command-line driver for single experiments.
 *
 *   $ ./build/examples/widir_cli --app radiosity --protocol widir \
 *         --cores 64 --scale 2 --seed 7 [--max-wired-sharers 3]
 *
 * Prints one self-describing block of every metric the evaluation
 * uses: cycles, instruction counts, MPKI split, memory-stall share,
 * memory-op latencies, hop distribution, wireless activity, collision
 * probability and the energy breakdown. `--list` enumerates the
 * applications.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "system/experiment.h"

using namespace widir;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--app NAME] [--protocol baseline|widir]\n"
        "          [--cores N] [--scale N] [--seed N]\n"
        "          [--max-wired-sharers N] [--list]\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    sys::ExperimentSpec spec;
    std::string app_name = "radiosity";
    spec.protocol = coherence::Protocol::WiDir;
    spec.cores = 64;
    spec.scale = 1;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", what);
                std::exit(1);
            }
            return argv[++i];
        };
        // Whole-token decimal in [lo, hi]: "4abc" is an error, not 4.
        auto number = [&](const char *what, long lo, long hi) {
            const char *text = next(what);
            long v = 0;
            if (!sys::parseEnvInt(text, lo, hi, v)) {
                std::fprintf(stderr, "invalid %s value '%s'\n", what,
                             text);
                std::exit(1);
            }
            return static_cast<std::uint64_t>(v);
        };
        if (arg == "--app") {
            app_name = next("--app");
        } else if (arg == "--protocol") {
            std::string p = next("--protocol");
            if (p == "baseline") {
                spec.protocol = coherence::Protocol::BaselineMESI;
            } else if (p == "widir") {
                spec.protocol = coherence::Protocol::WiDir;
            } else {
                std::fprintf(stderr, "unknown protocol '%s'\n",
                             p.c_str());
                return 1;
            }
        } else if (arg == "--cores") {
            spec.cores = number("--cores", 1, 1'000'000);
        } else if (arg == "--scale") {
            spec.scale = number("--scale", 1, 1'000'000);
        } else if (arg == "--seed") {
            spec.seed = number("--seed", 0, LONG_MAX);
        } else if (arg == "--max-wired-sharers") {
            spec.maxWiredSharers =
                number("--max-wired-sharers", 0, 1'000'000);
        } else if (arg == "--list") {
            for (const auto &a : workload::allApps()) {
                std::printf("%-14s %-9s paper-mpki=%5.2f  %s\n", a.name,
                            a.suite, a.paperMpki, a.pattern);
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }

    spec.app = workload::findApp(app_name);
    if (!spec.app) {
        std::fprintf(stderr,
                     "unknown app '%s' (try --list)\n",
                     app_name.c_str());
        return 1;
    }

    auto r = sys::runExperiment(spec);

    std::printf("app                 %s (%s)\n", spec.app->name,
                spec.app->suite);
    std::printf("protocol            %s\n",
                spec.protocol == coherence::Protocol::WiDir
                    ? "WiDir"
                    : "Baseline MESI Dir_3_B");
    std::printf("cores / scale       %u / %u   seed %llu\n", spec.cores,
                spec.scale,
                static_cast<unsigned long long>(spec.seed));
    std::printf("cycles              %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions        %llu (%.2f IPC aggregate)\n",
                static_cast<unsigned long long>(r.instructions),
                r.cycles ? static_cast<double>(r.instructions) /
                               static_cast<double>(r.cycles)
                         : 0.0);
    std::printf("loads / stores      %llu / %llu\n",
                static_cast<unsigned long long>(r.loads),
                static_cast<unsigned long long>(r.stores));
    std::printf("MPKI (rd+wr)        %.2f (%.2f + %.2f)\n", r.mpki(),
                r.readMpki(), r.writeMpki());
    std::printf("memory stall        %.1f%% of core cycles\n",
                100.0 * r.memStallFraction());
    std::printf("mem-op latency sum  loads %llu, stores %llu\n",
                static_cast<unsigned long long>(r.loadLatencySum),
                static_cast<unsigned long long>(r.storeLatencySum));
    std::printf("wired messages      %llu, hops/leg",
                static_cast<unsigned long long>(r.wiredMessages));
    static const char *hop_names[5] = {"0-2", "3-5", "6-8", "9-11",
                                       "12-16"};
    std::uint64_t msgs = 0;
    for (auto c : r.hopBinCounts)
        msgs += c;
    for (std::size_t b = 0; b < r.hopBinCounts.size() && b < 5; ++b) {
        std::printf(" %s:%.0f%%", hop_names[b],
                    msgs ? 100.0 *
                               static_cast<double>(r.hopBinCounts[b]) /
                               static_cast<double>(msgs)
                         : 0.0);
    }
    std::printf("\n");
    if (spec.protocol == coherence::Protocol::WiDir) {
        std::printf("wireless            %llu updates, S->W %llu, "
                    "W->S %llu, coll.prob %.2f%%\n",
                    static_cast<unsigned long long>(r.wirelessWrites),
                    static_cast<unsigned long long>(r.toWireless),
                    static_cast<unsigned long long>(r.toShared),
                    100.0 * r.collisionProbability);
        std::uint64_t upd = 0;
        for (auto c : r.sharersUpdatedBins)
            upd += c;
        static const char *bin_names[5] = {"<=5", "6-10", "11-25",
                                           "26-49", "50+"};
        std::printf("sharers per update ");
        for (std::size_t b = 0;
             b < r.sharersUpdatedBins.size() && b < 5; ++b) {
            std::printf(" %s:%.0f%%", bin_names[b],
                        upd ? 100.0 *
                                  static_cast<double>(
                                      r.sharersUpdatedBins[b]) /
                                  static_cast<double>(upd)
                            : 0.0);
        }
        std::printf("\n");
    }
    double et = r.energy.total();
    std::printf("energy breakdown    core %.0f%%, L1 %.0f%%, "
                "L2+dir %.0f%%, NoC %.0f%%, WNoC %.0f%%\n",
                100 * r.energy.core / et, 100 * r.energy.l1 / et,
                100 * r.energy.l2dir / et, 100 * r.energy.noc / et,
                100 * r.energy.wnoc / et);
    return 0;
}
