#include "noc/mesh.h"

#include <cmath>

namespace widir::noc {

namespace {

/**
 * Pick mesh dimensions for @p n nodes: the most-square factorization
 * with width >= height (64 -> 8x8, 32 -> 8x4, 16 -> 4x4, 4 -> 2x2).
 */
std::pair<std::uint32_t, std::uint32_t>
meshDims(std::uint32_t n)
{
    std::uint32_t best_h = 1;
    for (std::uint32_t h = 1;
         static_cast<std::uint64_t>(h) * h <= n; ++h) {
        if (n % h == 0)
            best_h = h;
    }
    return {n / best_h, best_h};
}

} // namespace

Mesh::Mesh(Simulator &sim, const MeshConfig &cfg)
    : sim_(sim), cfg_(cfg)
{
    WIDIR_ASSERT(cfg_.numNodes > 0, "mesh needs at least one node");
    WIDIR_ASSERT(cfg_.linkBits > 0, "link width must be positive");
    WIDIR_ASSERT(cfg_.concentration > 0 &&
                     cfg_.numNodes % cfg_.concentration == 0,
                 "concentration must divide the tile count (%u / %u)",
                 cfg_.numNodes, cfg_.concentration);
    routers_ = cfg_.numNodes / cfg_.concentration;
    auto [w, h] = meshDims(routers_);
    width_ = w;
    height_ = h;
    // Four directed links per router is an upper bound; index by
    // (router, direction).
    linkFree_.assign(static_cast<std::size_t>(routers_) * 4, 0);
    localFree_.assign(cfg_.numNodes, 0);
}

Mesh::Coord
Mesh::coordOf(NodeId router) const
{
    return Coord{static_cast<std::int32_t>(router % width_),
                 static_cast<std::int32_t>(router / width_)};
}

sim::NodeId
Mesh::routerAt(Coord c) const
{
    return static_cast<NodeId>(c.y * static_cast<std::int32_t>(width_) +
                               c.x);
}

std::uint32_t
Mesh::hopCount(NodeId src, NodeId dst) const
{
    Coord a = coordOf(routerOf(src));
    Coord b = coordOf(routerOf(dst));
    return static_cast<std::uint32_t>(std::abs(a.x - b.x) +
                                      std::abs(a.y - b.y));
}

std::size_t
Mesh::linkIndex(NodeId from, NodeId to) const
{
    Coord a = coordOf(from);
    Coord b = coordOf(to);
    std::uint32_t dir;
    if (b.x == a.x + 1 && b.y == a.y) {
        dir = 0; // east
    } else if (b.x == a.x - 1 && b.y == a.y) {
        dir = 1; // west
    } else if (b.y == a.y + 1 && b.x == a.x) {
        dir = 2; // south
    } else if (b.y == a.y - 1 && b.x == a.x) {
        dir = 3; // north
    } else {
        sim::panic("linkIndex on non-adjacent nodes %u -> %u", from, to);
    }
    return static_cast<std::size_t>(from) * 4 + dir;
}

void
Mesh::send(NodeId src, NodeId dst, std::uint32_t bits,
           sim::EventFn deliver)
{
    WIDIR_ASSERT(src < cfg_.numNodes && dst < cfg_.numNodes,
                 "mesh endpoint out of range (src=%u dst=%u)", src, dst);
    std::uint32_t hops = hopCount(src, dst);
    std::uint32_t flits =
        std::max<std::uint32_t>(1, (bits + cfg_.linkBits - 1) /
                                       cfg_.linkBits);
    ++messages_;
    hopHist_.sample(hops);
    routerTraversals_ += hops + 1; // source + each intermediate router
    flitHops_ += static_cast<std::uint64_t>(flits) * hops;

    Tick depart = sim_.now();
    Tick arrive = depart;

    // Walk the XY route over the ROUTER grid: first along X, then
    // along Y. The head advances one hop per cycle when links are
    // free; each link then stays busy for the serialization time of
    // the whole message. At concentration 1 routers and tiles
    // coincide and this is the classic per-tile walk.
    Coord cur = coordOf(routerOf(src));
    Coord dstc = coordOf(routerOf(dst));
    while (cur.x != dstc.x || cur.y != dstc.y) {
        Coord next = cur;
        if (cur.x != dstc.x)
            next.x += (dstc.x > cur.x) ? 1 : -1;
        else
            next.y += (dstc.y > cur.y) ? 1 : -1;
        std::size_t link = linkIndex(routerAt(cur), routerAt(next));
        Tick start = std::max(arrive, linkFree_[link]);
        linkFree_[link] = start + flits;      // serialization occupancy
        arrive = start + cfg_.hopLatency;     // head moves one hop
        cur = next;
    }
    // Tail arrival: remaining flits stream in behind the head. 0-hop
    // delivery (same node, or two tiles sharing a concentrated
    // router) goes through the sender's NI loopback port, which
    // serializes like a link (and keeps same-node delivery FIFO).
    Tick total;
    if (hops == 0) {
        Tick start = std::max(depart, localFree_[src]);
        localFree_[src] = start + flits;
        total = (start - depart) + cfg_.hopLatency + (flits - 1);
    } else {
        total = (arrive - depart) + (flits - 1);
    }
    latency_.sample(static_cast<double>(total));
    sim::Tracer &tracer = sim_.tracer();
    if (sim::kTraceCompiled && tracer.enabled()) {
        sim::TraceRecord r;
        r.tick = depart;
        r.kind = sim::TraceKind::NocSend;
        r.comp = sim::TraceComponent::Mesh;
        r.node = src;
        r.peer = dst;
        r.op = static_cast<std::uint8_t>(hops);
        r.arg = total; // tail-arrival latency incl. contention
        tracer.emit(r);
    }
    sim_.schedule(total, std::move(deliver));
}

void
Mesh::broadcast(NodeId src, std::uint32_t bits, bool include_self,
                std::function<void(NodeId)> deliver_at)
{
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        if (n == src && !include_self)
            continue;
        auto deliver = [deliver_at, n] { deliver_at(n); };
        static_assert(sim::InlineEvent::fitsInline<decltype(deliver)>(),
                      "broadcast delivery closure must stay inline");
        send(src, n, bits, std::move(deliver));
    }
}

} // namespace widir::noc
