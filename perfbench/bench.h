/**
 * @file
 * Shared declarations of the perfbench binary: the workload table, the
 * span recorder of the traced pass, and the passes main.cc strings
 * together. Everything here calls the simulator only through its public
 * headers; the benchmark changes no simulator code.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "system/experiment.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One named workload: a closed-loop batch of experiments. */
struct Workload
{
    const char *name;
    std::vector<std::string> apps; ///< empty: every built-in app
    std::uint32_t cores;
    std::uint32_t scale;
    bool parallel;     ///< one SweepRunner with min(4, nproc) workers
    bool traced;       ///< TraceOptions::enabled, no Chrome export
    bool recordReplay; ///< record each config, then replay it in full
};

/** Look a workload up by name; nullptr when unknown. */
const Workload *findWorkload(const std::string &name);

/** Run-wide settings every pass reads. */
struct RunSettings
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    unsigned workers = 1;
    std::string outDir;  ///< every file the run writes goes here
    bool smoke = false;  ///< smallest size: 16 tiles, scale 1, 2 apps
    bool forge = false;  ///< compare against the other protocol's run
};

/**
 * The experiments of one pass, in fig10_scalability order (for each
 * app: Baseline, then WiDir). For a record/replay workload these are
 * the recording specs; replaySpecs() derives the second batch.
 */
std::vector<widir::sys::ExperimentSpec>
workloadSpecs(const RunSettings &rs, const std::string &tag);

/** ReplayFull specs reading back every recording of @p records. */
std::vector<widir::sys::ExperimentSpec>
replaySpecs(const std::vector<widir::sys::ExperimentSpec> &records);

/**
 * Index of the result a check compares slot @p i against: @p i itself,
 * or -- under --forge-mismatch -- the other protocol's slot of the
 * same app, which must then be reported as a failed operation.
 */
inline std::size_t
peer(const RunSettings &rs, std::size_t i)
{
    return rs.forge ? (i ^ 1u) : i;
}

/**
 * A result as JSON with the host-side fields and the frontend echo
 * cleared: what "the same simulated results" means between two runs.
 */
std::string simulatedJson(widir::sys::ExperimentResult r);

/** One timed call: a span of the traced pass. */
struct Span
{
    std::uint32_t experiment; ///< spans of one experiment share this id
    int parent;               ///< index of the parent span, -1 for a root
    const char *name;
    double start;             ///< seconds since the traced pass began
    double end;
};

/**
 * In-memory span log of one experiment. time() wraps one call into a
 * layer's public API; nested time() calls record their parent.
 */
class SpanLog
{
  public:
    SpanLog(std::uint32_t experiment, Clock::time_point origin)
        : experiment_(experiment), origin_(origin)
    {
    }

    template <typename F>
    auto
    time(const char *name, F &&fn)
    {
        std::size_t idx = open(name);
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            close(idx);
        } else {
            auto out = fn();
            close(idx);
            return out;
        }
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::size_t
    open(const char *name)
    {
        int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
        spans_.push_back({experiment_, parent, name, now(), 0.0});
        open_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t idx)
    {
        spans_[idx].end = now();
        open_.pop_back();
    }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    std::uint32_t experiment_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** Named counter sums; ratios are formed from them at the end. */
using Counters = std::map<std::string, double>;

/** What the traced pass measured for one workload. */
struct TracedPass
{
    double wallSeconds = 0.0;
    std::vector<Span> spans;   ///< every experiment's spans, in order;
                               ///< parent indices refer to this vector
    Counters counters;         ///< summed over the pass's experiments
    std::vector<std::string> problems; ///< one per failed experiment
    std::uint64_t attempted = 0;
};

/**
 * Rerun the workload's experiments once, assembling every machine from
 * public calls with a span around each, and check each result against
 * @p product (the untraced product-path results, same order; for a
 * record/replay workload the recordings followed by the replays).
 */
TracedPass runTracedPass(const RunSettings &rs,
                         const std::vector<widir::sys::ExperimentResult>
                             &product);

/**
 * Mesh host cost in isolation: rerun the workload's experiments with a
 * tracer sink capturing every wired MsgSend (tick, src, dst, bits),
 * then replay each stream through a standalone Simulator + Mesh of the
 * same size, timing Mesh::send. Returns {sends, nanoseconds}.
 */
std::pair<std::uint64_t, double> runMeshCapture(const RunSettings &rs);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
