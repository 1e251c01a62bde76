/**
 * @file
 * Scenario: watching the protocol work, message by message.
 *
 * Prints every wired message and every wireless frame that wins (or is
 * jammed off) the channel from a sim::Tracer sink, then walks an
 * 8-core machine through the lifecycle the paper describes:
 *
 *   1. cores 0..2 read a line      -> wired GetS, S state
 *   2. core 3 reads it             -> S->W: BrWirUpgr + census
 *   3. core 0 writes it            -> WirUpd broadcast
 *   4. core 4 reads it             -> W->W wired join (WirUpgr/Ack)
 *   5. cores stop touching it      -> UpdateCount PutWs, W->S
 *
 * Run it and read the annotated trace on stderr (empty in a build
 * with WIDIR_TRACE_DISABLED).
 */

#include <cstdio>

#include "sim/trace.h"
#include "system/manycore.h"

using namespace widir;
using cpu::Task;
using cpu::Thread;

namespace {

constexpr sim::Addr kLine = 0x300000;
constexpr sim::Addr kGate = 0x300040;

Task
script(Thread &t)
{
    // Step gate: serialize phases across cores.
    auto gate = [&t](std::uint64_t phase) -> Task {
        for (;;) {
            std::uint64_t v = co_await t.load(kGate);
            if (v >= phase)
                break;
            co_await t.idle(16);
        }
    };

    if (t.id() <= 2) {
        // Phase t.id(): read one after another.
        co_await gate(t.id());
        std::fprintf(stderr, "--- core %u reads the line (wired)\n",
                     t.id());
        co_await t.loadNb(kLine);
        co_await t.fence();
        co_await t.fetchAdd(kGate, 1);
    } else if (t.id() == 3) {
        co_await gate(3);
        std::fprintf(stderr,
                     "--- core 3 reads: 4th sharer -> S->W census\n");
        co_await t.loadNb(kLine);
        co_await t.fence();
        co_await t.fetchAdd(kGate, 1);
    } else if (t.id() == 4) {
        co_await gate(4);
        std::fprintf(stderr, "--- core 4 joins the wireless group\n");
        co_await t.loadNb(kLine);
        co_await t.fence();
        co_await t.fetchAdd(kGate, 1);
    } else if (t.id() == 5) {
        co_await gate(5);
        std::fprintf(stderr,
                     "--- core 5 writes: WirUpd broadcasts, passive "
                     "sharers start aging out\n");
        for (int i = 0; i < 8; ++i) {
            co_await t.store(kLine, 100 + i);
            co_await t.fence();
            co_await t.idle(40);
        }
        co_await t.fetchAdd(kGate, 1);
    }
    co_return;
}

} // namespace

int
main()
{
    sys::SystemConfig cfg = sys::SystemConfig::widir(8);
    sys::Manycore machine(cfg);
    sim::Tracer &tracer = machine.simulator().tracer();
    tracer.setEnabled(true);
    tracer.addSink([](const sim::TraceRecord &r) {
        const auto tick = static_cast<unsigned long long>(r.tick);
        const auto line = static_cast<unsigned long long>(r.line);
        if (r.kind == sim::TraceKind::MsgSend)
            std::fprintf(stderr, "%10llu  %2u -> %2u  %-10s line=%#llx%s\n",
                         tick, r.node, r.peer, r.opName, line,
                         r.note ? " (sharer)" : "");
        else if (r.kind == sim::TraceKind::FrameWin)
            std::fprintf(stderr, "%10llu  WNoC %2u %-10s line=%#llx\n",
                         tick, r.node, r.opName, line);
        else if (r.kind == sim::TraceKind::FrameJammed)
            std::fprintf(stderr,
                         "%10llu  WNoC %2u JAMMED %-10s line=%#llx\n",
                         tick, r.node, r.opName, line);
    });

    sim::Tick cycles =
        machine.run([](Thread &t) { return script(t); });
    std::printf("done in %llu cycles; final line state at dir: %s\n",
                static_cast<unsigned long long>(cycles),
                coherence::dirStateName(
                    machine.dir(machine.fabric().homeOf(kLine))
                        .stateOf(kLine)));
    return 0;
}
