#include "core/fabric.h"

#include "core/directory_controller.h"
#include "core/l1_controller.h"
#include "sim/log.h"

namespace widir::coherence {

namespace {

/** True for opcodes consumed by a directory controller. */
bool
toDirectory(MsgType t)
{
    // The protocol table's event mapping doubles as the routing
    // relation: a type maps onto a directory event iff a directory
    // consumes it.
    DirEvent ev;
    return dirEventOf(t, ev);
}

} // namespace

void
CoherenceFabric::sendWired(const Msg &msg, sim::Tick delay)
{
    WIDIR_ASSERT(msg.src != sim::kNodeNone && msg.dst != sim::kNodeNone,
                 "wired message without endpoints");
    sim::Tracer &tracer = sim_.tracer();
    if (sim::kTraceCompiled && tracer.enabled()) {
        sim::TraceRecord r;
        r.tick = sim_.now();
        r.kind = sim::TraceKind::MsgSend;
        r.comp = toDirectory(msg.type) ? sim::TraceComponent::Directory
                                       : sim::TraceComponent::L1;
        r.node = msg.src;
        r.peer = msg.dst;
        r.line = msg.line;
        r.op = static_cast<std::uint8_t>(msg.type);
        r.opName = msgTypeName(msg.type);
        r.arg = bitsFor(msg.type);
        if (msg.isSharer)
            r.note = "sharer";
        tracer.emit(r);
    }
    // Clamp the enqueue time so same-pair messages keep their send
    // order even when sender-side delays differ. The zero-initialized
    // flat array clamps exactly like the old map: ticks are unsigned,
    // so a never-used pair's 0 floor is a no-op.
    std::size_t pair =
        static_cast<std::size_t>(msg.src) * numNodes() + msg.dst;
    sim::Tick enqueue_at =
        std::max(sim_.now() + delay, lastEnqueue_[pair]);
    lastEnqueue_[pair] = enqueue_at;

    // The message rides through both per-hop closures as a pooled slot
    // index: capturing the ~100-byte Msg by value would force every
    // wired message onto the event queue's heap-fallback path.
    std::uint32_t slot = pool_.acquire(msg);
    sim_.scheduleAtInline(enqueue_at, [this, slot] {
        const Msg &m = pool_.at(slot);
        bool to_dir = toDirectory(m.type);
        auto deliver = [this, slot, to_dir] {
            const Msg &dm = pool_.at(slot);
            sim::Tracer &tr = sim_.tracer();
            if (sim::kTraceCompiled && tr.enabled()) {
                sim::TraceRecord r;
                r.tick = sim_.now();
                r.kind = sim::TraceKind::MsgRecv;
                r.comp = to_dir ? sim::TraceComponent::Directory
                                : sim::TraceComponent::L1;
                r.node = dm.dst;
                r.peer = dm.src;
                r.line = dm.line;
                r.op = static_cast<std::uint8_t>(dm.type);
                r.opName = msgTypeName(dm.type);
                tr.emit(r);
            }
            // receive() may sendWired() replies, which acquire fresh
            // slots; this slot stays live until it returns.
            if (to_dir)
                dir(dm.dst).receive(dm);
            else
                l1(dm.dst).receive(dm);
            pool_.release(slot);
        };
        static_assert(sim::InlineEvent::fitsInline<decltype(deliver)>(),
                      "mesh delivery closure must stay inline");
        mesh_.send(m.src, m.dst, bitsFor(m.type), std::move(deliver));
    });
}

} // namespace widir::coherence
