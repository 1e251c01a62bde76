/**
 * @file
 * Registry of the evaluated applications (Table IV of the paper) and
 * helpers to turn one into a runnable per-thread Program.
 */

#ifndef WIDIR_WORKLOAD_REGISTRY_H
#define WIDIR_WORKLOAD_REGISTRY_H

#include <string_view>
#include <vector>

#include "cpu/task.h"
#include "cpu/thread.h"
#include "workload/params.h"

namespace widir::workload {

/** One evaluated application. */
struct AppInfo
{
    const char *name;   ///< paper's name, e.g. "radiosity"
    const char *suite;  ///< "SPLASH-3", "PARSEC" or "SERVER"
    double paperMpki;   ///< Table IV: Baseline L1 MPKI (0 off-table)
    cpu::Task (*kernel)(cpu::Thread &, const WorkloadParams &);
    const char *pattern; ///< one-line sharing-pattern summary
};

/** The built-in applications, SPLASH-3 first (Table IV order). */
const std::vector<AppInfo> &allApps();

/** Find by name; nullptr if unknown. */
const AppInfo *findApp(std::string_view name);

/** Bind an app + params into a per-core program. */
cpu::Program makeProgram(const AppInfo &app, const WorkloadParams &p);

} // namespace widir::workload

#endif // WIDIR_WORKLOAD_REGISTRY_H
