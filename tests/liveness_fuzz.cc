/**
 * @file
 * Liveness fuzz: every app x {Interleave, Hash} home map x {8, 16}
 * tiles x seeds 1-40 on WiDir at scale 1, traced (3,360 runs). Each
 * run must finish within the watchdog, leave the machine coherent and
 * produce a legal trace; runExperiment() is fatal otherwise, and the
 * configurations still in flight are printed on the way out.
 *
 * Registered as the `liveness_fuzz` CTest in the `fuzz` configuration
 * only (`ctest -C fuzz -R liveness_fuzz`); the workers follow
 * WIDIR_BENCH_JOBS like any sweep. tests/test_liveness.cc runs a
 * short fixed-seed slice of the same sweep in the default suite.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "sim/log.h"
#include "system/experiment.h"
#include "system/sweep.h"
#include "workload/registry.h"

namespace {

using namespace widir;

std::mutex inFlightMutex;
std::set<std::string> inFlight;

std::string
label(const sys::ExperimentSpec &spec)
{
    return sim::strfmt("%s, %u tiles, %s, seed %llu", spec.app->name,
                       spec.cores,
                       spec.homeMap == mem::HomeMap::Hash ? "Hash"
                                                          : "Interleave",
                       static_cast<unsigned long long>(spec.seed));
}

void
reportInFlight()
{
    std::lock_guard<std::mutex> lock(inFlightMutex);
    for (const std::string &l : inFlight)
        std::fprintf(stderr, "liveness_fuzz: in flight at exit: %s\n",
                     l.c_str());
}

} // namespace

int
main()
{
    std::vector<sys::ExperimentSpec> specs;
    for (const workload::AppInfo &app : workload::allApps())
        for (mem::HomeMap map : {mem::HomeMap::Interleave,
                                 mem::HomeMap::Hash})
            for (std::uint32_t cores : {8u, 16u})
                for (std::uint64_t seed = 1; seed <= 40; ++seed) {
                    sys::ExperimentSpec spec;
                    spec.app = &app;
                    spec.protocol = coherence::Protocol::WiDir;
                    spec.cores = cores;
                    spec.seed = seed;
                    spec.homeMap = map;
                    spec.trace.enabled = true;
                    specs.push_back(spec);
                }

    std::atexit(reportInFlight);
    sys::SweepRunner runner;
    auto start = std::chrono::steady_clock::now();
    runner.run(specs, [](const sys::ExperimentSpec &spec) {
        std::string l = label(spec);
        {
            std::lock_guard<std::mutex> lock(inFlightMutex);
            inFlight.insert(l);
        }
        sys::ExperimentResult r = sys::runExperiment(spec);
        std::lock_guard<std::mutex> lock(inFlightMutex);
        inFlight.erase(l);
        return r;
    });
    double s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    std::printf("liveness_fuzz: %zu runs live, coherent and legal in "
                "%.1f s on %u workers\n",
                specs.size(), s, runner.jobs());
    return 0;
}
