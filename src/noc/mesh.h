/**
 * @file
 * Wired 2D-mesh network-on-chip.
 *
 * Matches the Table III configuration: 2D mesh, 1 cycle per hop,
 * 128-bit links. The model is message-level: a message follows its XY
 * (dimension-ordered) route; each traversed link adds one cycle of
 * router/link pipeline latency plus any queuing delay, and is then held
 * busy for the message's serialization time (ceil(bits/128) cycles),
 * which is how contention arises. Delivery invokes a caller-supplied
 * closure, so any payload type can ride the mesh.
 *
 * The mesh also keeps the hop accounting the paper reports in Table V:
 * a histogram of network hops per message "leg".
 */

#ifndef WIDIR_NOC_MESH_H
#define WIDIR_NOC_MESH_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/log.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace widir::noc {

using sim::NodeId;
using sim::Simulator;
using sim::Tick;

/** Wired mesh configuration. */
struct MeshConfig
{
    std::uint32_t numNodes = 64;
    Tick hopLatency = 1;        ///< cycles per router/link hop
    std::uint32_t linkBits = 128; ///< link width (flit size)
    /**
     * Tiles per router (concentrated mesh). 1 keeps the classic one
     * router per tile; c > 1 shares each router among c consecutive
     * tile ids, shrinking the router grid by c (a 1024-tile machine
     * with concentration 4 routes over a 16x16 mesh). Must divide
     * numNodes.
     */
    std::uint32_t concentration = 1;
};

/** Message-level 2D mesh with XY routing and link contention. */
class Mesh
{
  public:
    Mesh(Simulator &sim, const MeshConfig &cfg);

    std::uint32_t numNodes() const { return cfg_.numNodes; }
    /** Router-grid dimensions (== tile grid at concentration 1). */
    std::uint32_t width() const { return width_; }
    std::uint32_t height() const { return height_; }
    std::uint32_t numRouters() const { return routers_; }

    /** Manhattan router-hop count between two nodes' routers. */
    std::uint32_t hopCount(NodeId src, NodeId dst) const;

    /**
     * Send @p bits of payload from @p src to @p dst; @p deliver runs at
     * the destination when the message fully arrives. src == dst models
     * a request to the local slice (one cycle, zero network hops).
     *
     * Hot path: @p deliver should fit sim::InlineEvent's inline buffer
     * (pool bulky payloads and capture an index; see core/fabric.cc).
     */
    void send(NodeId src, NodeId dst, std::uint32_t bits,
              sim::EventFn &&deliver);

    /**
     * Convenience broadcast: one unicast to every node (optionally
     * including @p src itself). This is what a wired protocol must do
     * when a directory with the broadcast bit set invalidates sharers.
     */
    void broadcast(NodeId src, std::uint32_t bits, bool include_self,
                   std::function<void(NodeId)> deliver_at);

    /** Hops-per-leg histogram (Table V bins: 0-2,3-5,6-8,9-11,12-16). */
    const sim::BinnedHistogram &hopHistogram() const { return hopHist_; }

    /** Total messages sent. */
    std::uint64_t messages() const { return messages_; }

    /** Total router traversals (for the energy model). */
    std::uint64_t routerTraversals() const { return routerTraversals_; }

    /** Total link-cycles of traffic, i.e. sum of flits x hops. */
    std::uint64_t flitHops() const { return flitHops_; }

    /** Mean end-to-end latency observed (cycles). */
    double meanLatency() const { return latency_.mean(); }

  private:
    struct Coord
    {
        std::int32_t x;
        std::int32_t y;
    };

    /** Router serving tile @p n (n / concentration). */
    NodeId routerOf(NodeId n) const
    {
        return n / cfg_.concentration;
    }

    Coord coordOf(NodeId router) const;

    Simulator &sim_;
    MeshConfig cfg_;
    std::uint32_t routers_;
    std::uint32_t width_;
    std::uint32_t height_;
    /** Earliest tick each directed link is free. */
    std::vector<Tick> linkFree_;
    /**
     * Earliest tick each node's local (NI loopback) port is free; keeps
     * same-node deliveries FIFO and serialized like any other link.
     */
    std::vector<Tick> localFree_;

    sim::BinnedHistogram hopHist_{{2, 5, 8, 11}, true};
    sim::Average latency_;
    std::uint64_t messages_ = 0;
    std::uint64_t routerTraversals_ = 0;
    std::uint64_t flitHops_ = 0;
};

} // namespace widir::noc

#endif // WIDIR_NOC_MESH_H
