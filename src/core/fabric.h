/**
 * @file
 * CoherenceFabric: the wiring between the protocol controllers and the
 * transport/memory substrates.
 *
 * The system layer builds one fabric per simulated machine and hands a
 * reference to every controller. Controllers send wired messages by
 * destination node id; the fabric routes them over the mesh and invokes
 * the receiving controller when the message arrives.
 */

#ifndef WIDIR_CORE_FABRIC_H
#define WIDIR_CORE_FABRIC_H

#include <memory>
#include <vector>

#include "core/messages.h"
#include "core/protocol_config.h"
#include "mem/main_memory.h"
#include "noc/mesh.h"
#include "sim/simulator.h"
#include "wireless/data_channel.h"
#include "wireless/tone_channel.h"

namespace widir::coherence {

class L1Controller;
class DirectoryController;

/** Shared infrastructure handed to every controller. */
class CoherenceFabric
{
  public:
    CoherenceFabric(sim::Simulator &sim, const ProtocolConfig &cfg,
                    noc::Mesh &mesh, mem::MainMemory &memory,
                    wireless::DataChannel *data_channel,
                    wireless::ToneChannel *tone_channel)
        : sim_(sim), cfg_(cfg), mesh_(mesh), memory_(memory),
          dataChannel_(data_channel), toneChannel_(tone_channel),
          lastEnqueue_(static_cast<std::size_t>(mesh.numNodes()) *
                           mesh.numNodes(),
                       0)
    {
        // Steady-state wired traffic is bounded by the outstanding
        // transactions per tile; pre-sizing the pool keeps the hot
        // path free of deque growth (docs/PERF.md).
        pool_.reserve(static_cast<std::size_t>(mesh.numNodes()) * 4);
    }

    sim::Simulator &simulator() { return sim_; }
    const ProtocolConfig &config() const { return cfg_; }
    noc::Mesh &mesh() { return mesh_; }
    mem::MainMemory &memory() { return memory_; }

    /** Null when running the wired-only baseline. */
    wireless::DataChannel *dataChannel() { return dataChannel_; }
    wireless::ToneChannel *toneChannel() { return toneChannel_; }

    /** Register the controllers (called once by the system layer). */
    void
    attach(std::vector<L1Controller *> l1s,
           std::vector<DirectoryController *> dirs)
    {
        l1s_ = std::move(l1s);
        dirs_ = std::move(dirs);
    }

    std::uint32_t numNodes() const { return mesh_.numNodes(); }

    L1Controller &l1(sim::NodeId n) { return *l1s_.at(n); }
    DirectoryController &dir(sim::NodeId n) { return *dirs_.at(n); }

    /** Home directory slice for an address (cfg.homeMap policy). */
    sim::NodeId
    homeOf(sim::Addr addr) const
    {
        return mem::homeNodeOf(addr, mesh_.numNodes(), cfg_.homeMap);
    }

    /**
     * Send a wired message; delivery invokes the proper controller.
     *
     * @p delay models the sender-side processing latency (directory
     * tag access, LLC data array read) before the message enters the
     * network. The fabric clamps enqueue times so that messages
     * between the same (src, dst) pair enter the mesh in the order
     * they were sent even when their delays differ -- together with
     * the mesh's per-pair FIFO property this gives point-to-point
     * ordering, which the protocol relies on (e.g. a Data grant must
     * not be overtaken by a later Fwd or Inv to the same cache).
     */
    void sendWired(const Msg &msg, sim::Tick delay = 0);

    /** Wired bits for a message of this type. */
    std::uint32_t
    bitsFor(MsgType t) const
    {
        return carriesLine(t) ? cfg_.dataBits : cfg_.ctrlBits;
    }

    /**
     * Message-pool slots allocated beyond the construction-time
     * reserve (MsgPool::grewBeyondReserve()); surfaced in the sweep
     * JSON as host_msgpool_grew so a sizing regression shows up in
     * tracked bench output.
     */
    std::uint64_t
    msgPoolGrew() const
    {
        return pool_.grewBeyondReserve();
    }

  private:
    sim::Simulator &sim_;
    ProtocolConfig cfg_;
    noc::Mesh &mesh_;
    mem::MainMemory &memory_;
    wireless::DataChannel *dataChannel_;
    wireless::ToneChannel *toneChannel_;
    std::vector<L1Controller *> l1s_;
    std::vector<DirectoryController *> dirs_;
    /**
     * Last network-enqueue tick per (src, dst) pair, for FIFO
     * clamping. A flat numNodes^2 array: the map this replaces grew
     * one node allocation per communicating pair and made the
     * per-message clamp a hash probe (docs/PERF.md).
     */
    std::vector<sim::Tick> lastEnqueue_;
    /** In-flight wired messages (see MsgPool in core/messages.h). */
    MsgPool pool_;
};

} // namespace widir::coherence

#endif // WIDIR_CORE_FABRIC_H
