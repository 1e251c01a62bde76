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

std::uint32_t
Mesh::hopCount(NodeId src, NodeId dst) const
{
    Coord a = coordOf(routerOf(src));
    Coord b = coordOf(routerOf(dst));
    return static_cast<std::uint32_t>(std::abs(a.x - b.x) +
                                      std::abs(a.y - b.y));
}

void
Mesh::send(NodeId src, NodeId dst, std::uint32_t bits,
           sim::EventFn &&deliver)
{
    WIDIR_ASSERT(src < cfg_.numNodes && dst < cfg_.numNodes,
                 "mesh endpoint out of range (src=%u dst=%u)", src, dst);
    NodeId router = routerOf(src);
    Coord a = coordOf(router);
    Coord b = coordOf(routerOf(dst));
    auto xhops = static_cast<std::uint32_t>(std::abs(b.x - a.x));
    auto yhops = static_cast<std::uint32_t>(std::abs(b.y - a.y));
    std::uint32_t hops = xhops + yhops;
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
    // coincide and this is the classic per-tile walk. Directed link
    // router * 4 + dir leaves `router` going east (0), west (1),
    // south (2, y + 1) or north (3, y - 1).
    auto walk = [&](std::uint32_t n, std::uint32_t dir,
                    std::int64_t stride) {
        for (; n > 0; --n) {
            Tick &free = linkFree_[static_cast<std::size_t>(router) * 4 +
                                   dir];
            Tick start = std::max(arrive, free);
            free = start + flits;             // serialization occupancy
            arrive = start + cfg_.hopLatency; // head moves one hop
            router = static_cast<NodeId>(router + stride);
        }
    };
    const std::int64_t width = width_;
    if (b.x > a.x)
        walk(xhops, 0, 1);
    else
        walk(xhops, 1, -1);
    if (b.y > a.y)
        walk(yhops, 2, width);
    else
        walk(yhops, 3, -width);
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
