/**
 * @file
 * Frontend: the stimulus source of a simulated machine.
 *
 * The timing side (L1 controllers, directories, NoCs, memory) is fixed
 * by the Manycore; what *drives* it is a Frontend -- one core model
 * per tile, in one of three configurations:
 *
 *  - Coroutine: the out-of-order core model executing a workload
 *    program (the classic configuration -- byte-identical to the
 *    pre-frontend machine);
 *  - Record: Coroutine plus an OpSink tap writing widir-mtrace-v1
 *    (pure observation: stats identical to an unrecorded run);
 *  - ReplayFull: the core model re-driven from a recorded trace --
 *    reproduces the recording's stats byte-identically.
 *
 * Fidelity contracts are specified in docs/FRONTEND.md.
 */

#ifndef WIDIR_FRONTEND_FRONTEND_H
#define WIDIR_FRONTEND_FRONTEND_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/core.h"
#include "cpu/thread.h"
#include "frontend/mtrace.h"
#include "frontend/record.h"
#include "sim/simulator.h"

namespace widir::frontend {

/** Stimulus-source selection (`ExperimentSpec::frontend`). */
enum class FrontendKind : std::uint8_t
{
    Coroutine,  ///< coroutine CPU model running a workload program
    Record,     ///< Coroutine + widir-mtrace-v1 recorder tap
    ReplayFull, ///< trace re-driven through the core timing model
};

/** Stable lowercase name (JSON echo). */
const char *frontendKindName(FrontendKind kind);

/**
 * Frontend construction request. For ReplayFull @p trace must point at
 * a trace that outlives the frontend.
 */
struct FrontendSpec
{
    FrontendKind kind = FrontendKind::Coroutine;
    const MemTrace *trace = nullptr;
};

/**
 * Serializes the sync-event tokens of a trace into their recorded
 * global order: a thread may pass its next token only when every
 * earlier token (ordered by recorded key, then thread, then index) has
 * been passed. This is how full replay of headerless text traces
 * preserves the inter-thread ordering the annotations encode without
 * a recorded timing to reproduce it.
 */
class ReplayGate
{
  public:
    /**
     * Build the global order from @p trace. Per-thread keys must be
     * non-decreasing (guaranteed for recorded traces; validated by
     * validateTrace() for text traces) or the gate would deadlock.
     */
    explicit ReplayGate(const MemTrace &trace);

    /**
     * Try to pass thread @p tid's next sync token. True (and the gate
     * advances) iff that token is globally next.
     */
    bool tryPass(std::uint32_t tid);

    /** All tokens passed. */
    bool done() const { return next_ == order_.size(); }

  private:
    struct Token
    {
        std::uint64_t key;
        std::uint32_t tid;
        std::uint64_t idx; ///< per-thread sync index (tie-break)
    };

    std::vector<Token> order_;
    std::size_t next_ = 0;
};

/**
 * Check that @p trace is replayable on a @p num_cores machine: thread
 * count fits, per-thread sync keys are monotone. Returns the empty
 * string when fine, else a problem description.
 */
std::string validateTrace(const MemTrace &trace,
                          std::uint32_t num_cores);

/**
 * Build the per-thread replay Program for full-fidelity replay: each
 * thread re-issues its recorded op stream through the same Thread
 * awaitables the original workload used, so the Core observes an
 * identical call sequence and the run reproduces the recording
 * byte-identically. @p gate is null for recorded (machine-stamped)
 * traces -- their timing alone reproduces the ordering -- and set for
 * headerless text traces, whose sync tokens then serialize through it.
 */
cpu::Program makeReplayProgram(const MemTrace &trace, ReplayGate *gate);

/** The cores driving a machine's L1 controllers. */
class Frontend
{
  public:
    /**
     * Build one core per L1 controller (core id == tile id). @p l1s
     * and @p spec.trace must outlive the frontend.
     */
    Frontend(const FrontendSpec &spec, sim::Simulator &sim,
             const std::vector<coherence::L1Controller *> &l1s,
             const cpu::CoreConfig &core_cfg);

    /**
     * Start every core at tick 0 (schedules the kickoff events; the
     * caller then runs the simulator). ReplayFull ignores @p program
     * and runs the trace's replay program instead.
     */
    void start(const cpu::Program &program);

    /** Every core ran its program to completion. */
    bool allFinished() const;

    /** Max finish tick over all cores (valid once allFinished()). */
    sim::Tick finishTick() const;

    /** CPU-side statistics summed over all cores. */
    cpu::Core::Stats cpuTotals() const;

    /** The core model of tile @p n. */
    cpu::Core &core(sim::NodeId n) { return *cores_.at(n); }

    /** The recorder (Record kind only, else null). */
    Recorder *recorder() { return recorder_.get(); }

  private:
    FrontendKind kind_;
    const MemTrace *trace_;
    // Cores hold the replay coroutines, which reference the gate:
    // declare the gate first so the cores are destroyed before it.
    std::unique_ptr<ReplayGate> gate_;
    std::unique_ptr<Recorder> recorder_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
};

} // namespace widir::frontend

#endif // WIDIR_FRONTEND_FRONTEND_H
