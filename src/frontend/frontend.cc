#include "frontend/frontend.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <tuple>

#include "sim/log.h"

namespace widir::frontend {

namespace {

/**
 * Reconstruct a recorded RMW's modify function for replay.
 *
 * The common case carries only the committed (old, new) pair: old ==
 * new is the protocol's no-op discriminator (a failed CAS stores and
 * broadcasts nothing), so it replays as identity; otherwise the
 * recorded old value maps to the recorded new one and any other input
 * (impossible in a faithful replay) degrades to a no-op rather than
 * writing a wrong value.
 *
 * An RMW whose wireless broadcast was squashed by a remote update also
 * carries the speculative evaluations the L1 performed before the
 * retry (mtrace.h); those must reproduce exactly or the replay never
 * queues the colliding frame the recording saw. The table keeps the
 * function pure -- one output per input -- as the L1 requires.
 */
std::function<std::uint64_t(std::uint64_t)>
replayModify(const Op &op)
{
    if (op.evals.empty())
    {
        if (op.a == op.b)
            return [](std::uint64_t v) { return v; };
        return [a = op.a, b = op.b](std::uint64_t v) {
            return v == a ? b : v;
        };
    }
    auto table = std::make_shared<
        std::vector<std::pair<std::uint64_t, std::uint64_t>>>(
        op.evals);
    table->emplace_back(op.a, op.b);
    return [table](std::uint64_t v) {
        for (const auto &[in, result] : *table)
        {
            if (in == v)
                return result;
        }
        return v;
    };
}

} // namespace

const char *
frontendKindName(FrontendKind kind)
{
    switch (kind)
    {
    case FrontendKind::Coroutine:
        return "coroutine";
    case FrontendKind::Record:
        return "record";
    case FrontendKind::ReplayFull:
        return "replay-full";
    }
    return "?";
}

// ---------------------------------------------------------------------
// ReplayGate
// ---------------------------------------------------------------------

ReplayGate::ReplayGate(const MemTrace &trace)
{
    Op op;
    for (std::uint32_t tid = 0; tid < trace.numThreads(); ++tid)
    {
        std::uint64_t idx = 0;
        StreamCursor cur(trace.threads[tid]);
        while (cur.next(op))
        {
            if (op.kind == OpKind::Sync)
                order_.push_back({op.a, tid, idx++});
        }
    }
    std::sort(order_.begin(), order_.end(),
              [](const Token &a, const Token &b) {
                  return std::tie(a.key, a.tid, a.idx) <
                         std::tie(b.key, b.tid, b.idx);
              });
}

bool
ReplayGate::tryPass(std::uint32_t tid)
{
    if (next_ < order_.size() && order_[next_].tid == tid)
    {
        ++next_;
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Trace validation
// ---------------------------------------------------------------------

std::string
validateTrace(const MemTrace &trace, std::uint32_t num_cores)
{
    if (trace.numThreads() == 0)
        return "trace has no threads";
    if (trace.numThreads() > num_cores)
        return "trace has " + std::to_string(trace.numThreads()) +
               " threads but the machine has only " +
               std::to_string(num_cores) + " cores";
    if (trace.header.hasMachine &&
        trace.numThreads() != trace.header.cores)
        return "trace machine header says " +
               std::to_string(trace.header.cores) +
               " cores but the trace carries " +
               std::to_string(trace.numThreads()) + " op streams";
    // Non-monotone per-thread sync keys would deadlock the ReplayGate
    // (a thread can only offer its tokens in program order).
    Op op;
    for (std::uint32_t tid = 0; tid < trace.numThreads(); ++tid)
    {
        std::uint64_t prev = 0;
        bool first = true;
        StreamCursor cur(trace.threads[tid]);
        while (cur.next(op))
        {
            if (op.kind != OpKind::Sync)
                continue;
            if (!first && op.a < prev)
                return "thread " + std::to_string(tid) +
                       ": sync keys not non-decreasing (" +
                       std::to_string(op.a) + " after " +
                       std::to_string(prev) + ")";
            prev = op.a;
            first = false;
        }
        if (!cur.error().empty())
            return "thread " + std::to_string(tid) + ": " + cur.error();
    }
    return "";
}

// ---------------------------------------------------------------------
// Full-fidelity replay program
// ---------------------------------------------------------------------

cpu::Program
makeReplayProgram(const MemTrace &trace, ReplayGate *gate)
{
    const MemTrace *tr = &trace;
    return [tr, gate](cpu::Thread &t) -> cpu::Task {
        if (t.id() >= tr->threads.size())
            co_return;
        // Decode one record at a time: the trace stays encoded, in
        // its file but for the recorder's last partial piece.
        StreamCursor cur(tr->threads[t.id()]);
        Op op;
        while (cur.next(op))
        {
            switch (op.kind)
            {
            case OpKind::Compute:
                co_await t.compute(op.a);
                break;
            case OpKind::Load:
                co_await t.load(op.addr);
                break;
            case OpKind::LoadNb:
                co_await t.loadNb(op.addr);
                break;
            case OpKind::Store:
                co_await t.store(op.addr, op.a);
                break;
            case OpKind::Rmw:
                // Reconstruct the recorded modify from its recorded
                // evaluations (replayModify above).
                co_await t.rmw(op.addr, replayModify(op));
                break;
            case OpKind::Idle:
                co_await t.idle(op.a);
                break;
            case OpKind::Fence:
                co_await t.fence();
                break;
            case OpKind::Sync:
                // Recorded traces: pure annotation, the replayed
                // timing already reproduces the ordering. Headerless
                // text traces: serialize through the gate.
                if (gate != nullptr)
                {
                    for (;;)
                    {
                        if (gate->tryPass(t.id()))
                            break;
                        co_await t.idle(16);
                    }
                }
                break;
            }
        }
        WIDIR_ASSERT(cur.error().empty(), "thread %u: %s", t.id(),
                     cur.error().c_str());
    };
}

// ---------------------------------------------------------------------
// Frontend
// ---------------------------------------------------------------------

Frontend::Frontend(const FrontendSpec &spec, sim::Simulator &sim,
                   const std::vector<coherence::L1Controller *> &l1s,
                   const cpu::CoreConfig &core_cfg)
    : kind_(spec.kind), trace_(spec.trace)
{
    const auto n = static_cast<std::uint32_t>(l1s.size());
    if (kind_ == FrontendKind::Record)
        recorder_ = std::make_unique<Recorder>(n);
    if (kind_ == FrontendKind::ReplayFull)
    {
        WIDIR_ASSERT(trace_ != nullptr,
                     "replay-full frontend needs a trace");
        if (!trace_->header.hasMachine && trace_->hasSync())
            gate_ = std::make_unique<ReplayGate>(*trace_);
    }
    cores_.reserve(n);
    for (sim::NodeId node = 0; node < n; ++node)
    {
        cores_.push_back(std::make_unique<cpu::Core>(
            sim, *l1s[node], node, core_cfg));
        if (recorder_)
            cores_.back()->setOpSink(&recorder_->sink(node));
    }
}

void
Frontend::start(const cpu::Program &program)
{
    cpu::Program p = kind_ == FrontendKind::ReplayFull
                         ? makeReplayProgram(*trace_, gate_.get())
                         : program;
    WIDIR_ASSERT(static_cast<bool>(p),
                 "frontend started without a program");
    const auto n = static_cast<std::uint32_t>(cores_.size());
    for (auto &core : cores_)
        core->start(p, n, 0);
}

bool
Frontend::allFinished() const
{
    for (const auto &core : cores_)
        if (!core->finished())
            return false;
    return true;
}

sim::Tick
Frontend::finishTick() const
{
    sim::Tick end = 0;
    for (const auto &core : cores_)
        end = std::max(end, core->finishTick());
    return end;
}

cpu::Core::Stats
Frontend::cpuTotals() const
{
    cpu::Core::Stats total;
    for (const auto &core : cores_)
    {
        const auto &s = core->stats();
        total.instructions += s.instructions;
        total.loads += s.loads;
        total.stores += s.stores;
        total.rmws += s.rmws;
        total.memStallCycles += s.memStallCycles;
        total.loadLatencySum += s.loadLatencySum;
        total.storeLatencySum += s.storeLatencySum;
    }
    return total;
}

} // namespace widir::frontend
