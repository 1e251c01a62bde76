#include "workload/registry.h"

#include "workload/kernels.h"

namespace widir::workload {

const std::vector<AppInfo> &
allApps()
{
    // Table IV order: SPLASH-3 columns first, then PARSEC.
    static const std::vector<AppInfo> kApps = {
        {"water-spa", "SPLASH-3", 0.49, &apps::waterSpa,
         "cell-partitioned MD: private compute + boundary exchange"},
        {"water-nsq", "SPLASH-3", 2.86, &apps::waterNsq,
         "all-pairs MD: read every block + locked accumulation"},
        {"ocean-nc", "SPLASH-3", 16.05, &apps::oceanNc,
         "big stencil sweeps + global convergence accumulator"},
        {"volrend", "SPLASH-3", 2.44, &apps::volrend,
         "tile task queue + read-shared octree"},
        {"radiosity", "SPLASH-3", 5.28, &apps::radiosity,
         "task stealing + global energy all cores read/write"},
        {"raytrace", "SPLASH-3", 10.05, &apps::raytrace,
         "ray task queue + scattered shared scene reads"},
        {"cholesky", "SPLASH-3", 5.92, &apps::cholesky,
         "sparse supernode task queue + locked completion counts"},
        {"fft", "SPLASH-3", 5.05, &apps::fft,
         "all-to-all transpose between barriers"},
        {"lu-nc", "SPLASH-3", 21.52, &apps::luNc,
         "pivot broadcast + strided trailing updates (big streams)"},
        {"lu-c", "SPLASH-3", 1.90, &apps::luC,
         "pivot broadcast + L1-resident trailing updates"},
        {"radix", "SPLASH-3", 9.41, &apps::radix,
         "global histogram RMWs + all-to-all permutation"},
        {"barnes", "SPLASH-3", 9.53, &apps::barnes,
         "shared octree rebuilt and re-read every step"},
        {"fmm", "SPLASH-3", 1.88, &apps::fmm,
         "multipole expansions published then read by neighbours"},
        {"blackscholes", "PARSEC", 0.13, &apps::blackscholes,
         "embarrassingly parallel option pricing"},
        {"bodytrack", "PARSEC", 7.51, &apps::bodytrack,
         "particle scoring: private streams + read-only features"},
        {"canneal", "PARSEC", 23.21, &apps::canneal,
         "random netlist element swaps: lowest locality"},
        {"dedup", "PARSEC", 4.10, &apps::dedup,
         "two-sharer pipeline queues + hashing compute"},
        {"fluidanimate", "PARSEC", 1.27, &apps::fluidanimate,
         "cell grid with fine-grained boundary locks"},
        {"ferret", "PARSEC", 6.34, &apps::ferret,
         "similarity-search pipeline"},
        {"freqmine", "PARSEC", 8.84, &apps::freqmine,
         "private FP-tree growth: pointer chasing"},
        {"kvstore", "SERVER", 0.0, &apps::kvStore,
         "sharded KV store: Zipf-hot keys -> reader floods + hot-line "
         "update storms"},
    };
    return kApps;
}

const AppInfo *
findApp(std::string_view name)
{
    for (const auto &app : allApps()) {
        if (name == app.name)
            return &app;
    }
    return nullptr;
}

cpu::Program
makeProgram(const AppInfo &app, const WorkloadParams &p)
{
    auto kernel = app.kernel;
    return [kernel, p](cpu::Thread &t) { return kernel(t, p); };
}

} // namespace widir::workload
