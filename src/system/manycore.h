/**
 * @file
 * Manycore: assembles a full simulated machine (Fig. 2 of the paper):
 * per tile an OoO core, a private L1 + coherence controller, an LLC
 * slice + directory controller, a mesh router port, and -- for WiDir --
 * a transceiver on the shared wireless data/tone channels.
 *
 * The system layer also owns run orchestration: start one thread
 * program per core, run to quiescence, and collect the statistics the
 * paper's evaluation reports.
 */

#ifndef WIDIR_SYSTEM_MANYCORE_H
#define WIDIR_SYSTEM_MANYCORE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/directory_controller.h"
#include "core/fabric.h"
#include "core/l1_controller.h"
#include "core/protocol_config.h"
#include "cpu/core.h"
#include "cpu/task.h"
#include "cpu/thread.h"
#include "fault/fault.h"
#include "frontend/frontend.h"
#include "mem/main_memory.h"
#include "noc/mesh.h"
#include "sim/simulator.h"
#include "wireless/data_channel.h"
#include "wireless/tone_channel.h"

namespace widir::sys {

/** Full-machine configuration (Table III defaults). */
struct SystemConfig
{
    std::uint32_t numCores = 64;
    std::uint64_t seed = 1;
    coherence::ProtocolConfig protocol;
    cpu::CoreConfig core;
    coherence::L1Controller::CacheConfig l1;
    coherence::DirectoryController::LlcConfig llc;
    noc::MeshConfig mesh;          ///< numNodes overridden by numCores
    wireless::DataChannelConfig wnoc; ///< numNodes overridden too
    mem::MainMemory::Config memory;
    /**
     * Wireless fault injection (docs/FAULTS.md). Disabled by default;
     * a machine built with the default spec is event-for-event
     * identical to one built before fault injection existed.
     */
    fault::FaultSpec fault;

    /** Convenience: baseline (wired-only MESI Dir_3_B) machine. */
    static SystemConfig
    baseline(std::uint32_t cores = 64)
    {
        SystemConfig cfg;
        cfg.numCores = cores;
        cfg.protocol.protocol = coherence::Protocol::BaselineMESI;
        return cfg;
    }

    /** Convenience: WiDir machine. */
    static SystemConfig
    widir(std::uint32_t cores = 64)
    {
        SystemConfig cfg;
        cfg.numCores = cores;
        cfg.protocol.protocol = coherence::Protocol::WiDir;
        return cfg;
    }
};

/** A thread program: one coroutine body per core. */
using Program = cpu::Program;

/** One assembled machine instance. */
class Manycore
{
  public:
    explicit Manycore(const SystemConfig &cfg);
    ~Manycore();

    Manycore(const Manycore &) = delete;
    Manycore &operator=(const Manycore &) = delete;

    const SystemConfig &config() const { return cfg_; }
    sim::Simulator &simulator() { return *sim_; }
    noc::Mesh &mesh() { return *mesh_; }
    mem::MainMemory &memory() { return *memory_; }
    wireless::DataChannel *dataChannel() { return dataChannel_.get(); }
    wireless::ToneChannel *toneChannel() { return toneChannel_.get(); }
    /** Fault sampler, or null when fault injection is disabled. */
    fault::FaultModel *faultModel() { return faultModel_.get(); }
    coherence::CoherenceFabric &fabric() { return *fabric_; }

    coherence::L1Controller &l1(sim::NodeId n) { return *l1s_.at(n); }
    coherence::DirectoryController &dir(sim::NodeId n)
    {
        return *dirs_.at(n);
    }
    /** Tile @p n's core model (once a frontend is installed). */
    cpu::Core &core(sim::NodeId n);
    std::uint32_t numCores() const { return cfg_.numCores; }

    /**
     * Select the stimulus source (docs/FRONTEND.md). Must be called
     * before run(); without it, run() installs the default coroutine
     * frontend -- the classic machine, byte-identical to the
     * pre-frontend build. A FrontendSpec trace must outlive the run.
     */
    void installFrontend(const frontend::FrontendSpec &spec);

    /** The installed frontend, or null before installation. */
    frontend::Frontend *frontend() { return frontend_.get(); }

    /**
     * Run @p program on every core (thread id == core id) until all
     * cores finish and the machine quiesces. A ReplayFull frontend
     * ignores @p program and replays its installed trace instead.
     *
     * @param watchdog_cycles fatal() if the machine has not quiesced
     *        by this simulated cycle (protocol hang detector), after
     *        printing every open L1 and directory transaction and
     *        every pending wireless frame to stderr.
     * @return execution time in cycles (max over cores).
     */
    sim::Tick run(const Program &program,
                  sim::Tick watchdog_cycles = 500'000'000);

    /// @name Aggregate statistics (summed over tiles)
    /// @{
    cpu::Core::Stats cpuTotals() const;
    coherence::L1Controller::Stats l1Totals() const;
    coherence::DirectoryController::Stats dirTotals() const;
    /** Fig. 5 histogram merged over all home slices. */
    sim::BinnedHistogram sharersUpdatedTotals() const;
    /// @}

    /// @name Host allocator watermarks (docs/PERF.md)
    /// @{
    /** Fabric message-pool slots grown past the reserve. */
    std::uint64_t hostMsgpoolGrew() const;
    /** FlatAddrMap rehashes summed over L1s, directories, memory. */
    std::uint64_t hostMapRehashes() const;
    /// @}

  private:
    SystemConfig cfg_;
    std::unique_ptr<sim::Simulator> sim_;
    std::unique_ptr<noc::Mesh> mesh_;
    std::unique_ptr<mem::MainMemory> memory_;
    std::unique_ptr<wireless::DataChannel> dataChannel_;
    std::unique_ptr<wireless::ToneChannel> toneChannel_;
    std::unique_ptr<fault::FaultModel> faultModel_;
    std::unique_ptr<coherence::CoherenceFabric> fabric_;
    std::vector<std::unique_ptr<coherence::DirectoryController>> dirs_;
    std::vector<std::unique_ptr<coherence::L1Controller>> l1s_;
    std::unique_ptr<frontend::Frontend> frontend_;
};

} // namespace widir::sys

#endif // WIDIR_SYSTEM_MANYCORE_H
