/**
 * @file
 * ExperimentRunner: run one (application, protocol, core count)
 * configuration and collect every metric the paper's evaluation
 * reports -- execution time with its memory-stall split (Fig. 8),
 * MPKI split by reads/writes (Fig. 6), memory-operation latency
 * (Fig. 7), the hops-per-leg histogram (Table V), the
 * sharers-updated-per-wireless-write histogram (Fig. 5), the wireless
 * collision probability (Table VI), and the energy breakdown
 * (Fig. 9).
 */

#ifndef WIDIR_SYSTEM_EXPERIMENT_H
#define WIDIR_SYSTEM_EXPERIMENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol_config.h"
#include "core/sharer_set.h"
#include "energy/energy_model.h"
#include "fault/fault.h"
#include "frontend/frontend.h"
#include "sim/stats.h"
#include "sim/types.h"
#include "workload/params.h"
#include "workload/registry.h"

namespace widir::sys {

/**
 * Everything measured in one run. sys::reportFields() (report.h) maps
 * it onto the widir-sweep-v1 result object, presence rules included.
 */
struct ExperimentResult
{
    std::string app;
    coherence::Protocol protocol;
    std::uint32_t cores = 0;
    std::uint64_t seed = 0;
    std::uint32_t scale = 1;
    std::uint32_t maxWiredSharers = 3;
    std::uint32_t updateCountThreshold = 0; ///< effective value

    /// @name Scale-out topology knobs (all defaulted: classic machine)
    /// @{
    std::uint32_t meshConcentration = 1; ///< tiles per mesh router
    std::uint32_t wirelessChannels = 1;  ///< frequency-multiplexed bands
    mem::HomeMap homeMap = mem::HomeMap::Interleave;
    /// @}

    sim::Tick cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    /// @name Fig. 6: misses per kilo-instruction
    /// @{
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    double mpki() const;
    double readMpki() const;
    double writeMpki() const;
    /// @}

    /// @name Fig. 8: cycle breakdown (summed over cores)
    /// @{
    std::uint64_t memStallCycles = 0;
    std::uint64_t totalCoreCycles = 0; ///< cycles x cores
    double memStallFraction() const;
    /// @}

    /// @name Fig. 7: memory-op latency (ROB entry -> retire)
    /// @{
    std::uint64_t loadLatencySum = 0;
    std::uint64_t storeLatencySum = 0;
    /// @}

    /// @name Table V: wired hops per message leg
    /// @{
    std::vector<std::uint64_t> hopBinCounts; ///< 0-2,3-5,6-8,9-11,12-16
    std::uint64_t wiredMessages = 0;
    /// @}

    /// @name Fig. 5 / Table VI: wireless behaviour
    /// @{
    std::vector<std::uint64_t> sharersUpdatedBins; ///< <=5,...,50+
    std::uint64_t wirelessWrites = 0;
    std::uint64_t selfInvalidations = 0; ///< UpdateCount expiries
    double collisionProbability = 0.0;
    std::uint64_t toWireless = 0;
    std::uint64_t toShared = 0;
    /// @}

    /// @name Fig. 9: energy
    /// @{
    energy::EnergyBreakdown energy;
    /// @}

    /// @name Tracing (not part of the widir-sweep-v1 JSON schema)
    /// @{
    std::uint64_t traceRecords = 0; ///< records past the window filter
    /// @}

    /// @name Fault injection and resilience (docs/FAULTS.md)
    /// @{
    bool faultInjection = false;  ///< fault layer armed for this run
    fault::FaultSpec fault;       ///< echo of the injected spec
    std::uint64_t frameCrcErrors = 0;      ///< corrupted data frames
    std::uint64_t framePreambleLosses = 0; ///< undetected frame starts
    std::uint64_t faultRetries = 0;        ///< frame re-transmissions
    /** Always 0; the benchmark PR deletes it (ROADMAP item 1). */
    std::uint64_t frameFaultDrops = 0;
    std::uint64_t toneRetries = 0;         ///< missed silence re-polls
    /** Always 0; the benchmark PR deletes it (ROADMAP item 1). */
    std::uint64_t wirelessFallbacks = 0;
    /// @}

    /// @name Host performance (docs/PERF.md)
    ///
    /// executedEvents is deterministic for a given configuration; the
    /// host* figures are wall-clock or host-allocator measurements
    /// that machineJson() leaves out (the watermarks are deterministic,
    /// but they describe the host process, not the simulated machine).
    /// @{
    std::uint64_t executedEvents = 0; ///< simulator events run
    double hostSeconds = 0.0;         ///< wall time of the run() call
    double hostBuildSeconds = 0.0;    ///< wall time of building the machine
    double hostCheckSeconds = 0.0;    ///< wall time of checkCoherence
    double hostEventsPerSec = 0.0;    ///< executedEvents / hostSeconds
    std::uint64_t hostMsgpoolGrew = 0;  ///< MsgPool growth past reserve
    std::uint64_t hostMapRehashes = 0;  ///< FlatAddrMap index rehashes
    /// @}

    /// @name Frontend echo (docs/FRONTEND.md)
    /// @{
    frontend::FrontendKind frontendKind =
        frontend::FrontendKind::Coroutine;
    std::string recordPath; ///< mtrace written (Record only)
    std::string replayPath; ///< trace replayed (ReplayFull only)
    /// @}
};

/** Tracing controls (docs/TRACING.md), nested in ExperimentSpec. */
struct TraceOptions
{
    bool enabled = false;     ///< enable the sim::Tracer
    sim::Tick start = 0;      ///< inclusive cycle window
    sim::Tick end = sim::kTickNever;
    /** Chrome trace-event JSON output path (empty: no export). */
    std::string file;

    /** Empty when consistent, else a "; "-joined problem list. */
    std::string validate() const;
};

/**
 * Most tiles a machine can have: a directory tracks sharers in a
 * fixed-width bitset, so every node id must fit it.
 */
inline constexpr std::uint32_t kMaxCores = coherence::SharerBits::kMaxNodes;

/**
 * One experiment configuration.
 *
 * Call validate() (or let runExperiment do it, fatally) after filling
 * in the fields; the nested trace and fault blocks carry their own
 * invariants.
 */
struct ExperimentSpec
{
    /** Workload kernel; required unless frontend is ReplayFull. */
    const workload::AppInfo *app = nullptr;
    coherence::Protocol protocol = coherence::Protocol::BaselineMESI;
    std::uint32_t cores = 64;
    std::uint32_t scale = 1;
    std::uint64_t seed = 1;
    std::uint32_t maxWiredSharers = 3; ///< Table VI sweeps this
    /** 0 keeps the ProtocolConfig default (ablation bench sweeps it). */
    std::uint32_t updateCountThreshold = 0;

    /**
     * Tiles per mesh router (`--mesh-concentration`, docs/PERF.md).
     * 1 is the classic one-router-per-tile mesh; c > 1 routes over a
     * cores/c concentrated grid. Must divide cores.
     */
    std::uint32_t meshConcentration = 1;

    /**
     * Frequency-multiplexed wireless data sub-channels
     * (`--wireless-channels`). 1 is the paper's single broadcast
     * medium. Ignored by wired-only protocols.
     */
    std::uint32_t wirelessChannels = 1;

    /** Directory-bank sharding policy (`--home-map`, mem/address.h). */
    mem::HomeMap homeMap = mem::HomeMap::Interleave;

    /** Tracing (docs/TRACING.md). */
    TraceOptions trace;

    /**
     * Wireless fault injection (docs/FAULTS.md). Ignored by wired-only
     * protocols (there is no wireless channel to disturb), so a sweep
     * can apply one FaultSpec to every leg, Baseline included.
     */
    fault::FaultSpec fault;

    /// @name Frontend selection (docs/FRONTEND.md)
    /// @{
    /**
     * Stimulus source. Coroutine (default) runs the app's kernel on
     * the core model; Record does the same while writing a
     * widir-mtrace-v1 op stream to recordPath; ReplayFull drives the
     * machine from replayPath, the only way to run a trace. A replay
     * ignores `app` and is named by its trace: the recorded header's
     * app, else "trace:<file stem>". When a replayed trace carries a
     * machine header, its machine knobs (protocol, cores, seed, scale,
     * sharer limits, topology) override this spec so the replayed run
     * reproduces the recorded one.
     */
    frontend::FrontendKind frontend =
        frontend::FrontendKind::Coroutine;

    /** widir-mtrace-v1 output path; required iff frontend is Record. */
    std::string recordPath;

    /** Trace input (mtrace or text format); required iff ReplayFull. */
    std::string replayPath;
    /// @}

    /** Empty when runnable, else a "; "-joined problem list. */
    std::string validate() const;
};

/**
 * Run one configuration to completion and gather the metrics.
 * Fatal on an invalid spec (spec.validate() reports the problems).
 */
ExperimentResult runExperiment(const ExperimentSpec &spec);

/**
 * Bench sizing: reads WIDIR_BENCH_SCALE from the environment
 * (default @p fallback) so the full suite can be run small or large.
 */
std::uint32_t benchScale(std::uint32_t fallback = 1);

/**
 * Strict decimal-integer parse for environment knobs: accepts @p text
 * only when it is a complete integer (optional sign, digits, nothing
 * else) that fits in [@p min, @p max]. Rejects empty strings, trailing
 * garbage ("4abc"), and out-of-range values -- including the ones
 * strtol silently saturates -- and returns false without touching
 * @p out. Shared by benchScale and sweep::defaultJobs so every env
 * knob fails loudly the same way.
 */
bool parseEnvInt(const char *text, long min, long max, long &out);

} // namespace widir::sys

#endif // WIDIR_SYSTEM_EXPERIMENT_H
