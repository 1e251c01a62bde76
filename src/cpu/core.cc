#include "cpu/core.h"

#include "cpu/thread.h"
#include "sim/log.h"

namespace widir::cpu {

Core::Core(sim::Simulator &sim, coherence::L1Controller &l1,
           sim::NodeId node, const CoreConfig &cfg)
    : sim_(sim), l1_(l1), node_(node), cfg_(cfg),
      rng_(sim.makeRng(0xC0DE0000ULL + node))
{
    l1_.setCompletion([this](std::uint64_t token, std::uint64_t value) {
        onL1Complete(token, value);
    });
}

Core::~Core() = default;

void
Core::start(std::function<Task(Thread &)> body,
            std::uint32_t num_threads, Tick start)
{
    WIDIR_ASSERT(!started_, "core %u started twice", node_);
    started_ = true;
    body_ = std::move(body);
    sim_.scheduleAt(start, [this, num_threads] {
        thread_ = std::make_unique<Thread>(*this, node_, num_threads);
        task_ = body_(*thread_);
        task_.resume(); // run to the first suspension
        scheduleStep(0);
    });
}

// ---------------------------------------------------------------------
// Awaitable entry points
// ---------------------------------------------------------------------

void
Core::addCompute(std::uint64_t count)
{
    if (count == 0)
        return;
    if (sink_ != nullptr)
        sink_->compute(count);
    RobEntry e;
    e.kind = EntryKind::Compute;
    e.count = count;
    e.enqueued = sim_.now();
    rob_.emplace_back(robSeqNext_++, e);
    robCount_ += count;
    scheduleStep(0);
}

void
Core::addStore(Addr addr, std::uint64_t value)
{
    if (sink_ != nullptr)
        sink_->store(addr, value);
    RobEntry e;
    e.kind = EntryKind::Store;
    e.addr = addr;
    e.value = value;
    e.enqueued = sim_.now();
    rob_.emplace_back(robSeqNext_++, e);
    robCount_ += 1;
    scheduleStep(0);
}

void
Core::addNonBlockingLoad(Addr addr)
{
    if (sink_ != nullptr)
        sink_->load(addr, false);
    RobEntry e;
    e.kind = EntryKind::Load;
    e.addr = addr;
    e.enqueued = sim_.now();
    std::uint64_t seq = robSeqNext_++;
    rob_.emplace_back(seq, e);
    robCount_ += 1;
    std::uint64_t token = tokenNext_++;
    tokens_[token] = TokenInfo{TokenKind::RobLoad, seq};
    l1_.read(addr, token);
    scheduleStep(0);
}

void
Core::issueBlockingLoad(Addr addr,
                        std::coroutine_handle<> resume_handle,
                        std::uint64_t *result_slot)
{
    WIDIR_ASSERT(!valueWaiter_, "core %u: nested blocking load", node_);
    if (sink_ != nullptr)
        sink_->load(addr, true);
    RobEntry e;
    e.kind = EntryKind::Load;
    e.addr = addr;
    e.enqueued = sim_.now();
    std::uint64_t seq = robSeqNext_++;
    rob_.emplace_back(seq, e);
    robCount_ += 1;
    valueWaiter_ = resume_handle;
    valueSlot_ = result_slot;
    std::uint64_t token = tokenNext_++;
    blockingToken_ = token;
    tokens_[token] = TokenInfo{TokenKind::RobLoad, seq};
    l1_.read(addr, token);
    scheduleStep(0);
}

void
Core::waitRmw(Addr addr,
              std::function<std::uint64_t(std::uint64_t)> modify,
              std::coroutine_handle<> resume_handle,
              std::uint64_t *result_slot)
{
    WIDIR_ASSERT(!rmwPending_, "core %u: nested RMW", node_);
    if (sink_ != nullptr)
        sink_->rmw(addr);
    RobEntry e;
    e.kind = EntryKind::Rmw;
    e.addr = addr;
    e.enqueued = sim_.now();
    rob_.emplace_back(robSeqNext_++, e);
    robCount_ += 1;
    rmwPending_ = true;
    rmwIssued_ = false;
    rmwAddr_ = addr;
    rmwModify_ = std::move(modify);
    if (sink_ != nullptr)
    {
        // Tap every L1 evaluation of the modify function: the wireless
        // RMW path may evaluate speculatively, be squashed by a remote
        // update, and retry on a different value, and replay fidelity
        // needs each distinct (input, result) pair (cpu/op_sink.h).
        // Pure observation -- the wrapper forwards the inner result
        // unchanged and schedules nothing.
        rmwModify_ = [inner = std::move(rmwModify_),
                      sink = sink_](std::uint64_t v) {
            std::uint64_t r = inner(v);
            sink->rmwEval(v, r);
            return r;
        };
    }
    valueWaiter_ = resume_handle;
    valueSlot_ = result_slot;
    scheduleStep(0);
}

void
Core::waitFence(std::coroutine_handle<> resume_handle)
{
    WIDIR_ASSERT(!fenceWaiter_, "core %u: nested fence", node_);
    if (sink_ != nullptr)
        sink_->fence();
    fenceWaiter_ = resume_handle;
    scheduleStep(0);
}

void
Core::suspendForSpace(std::coroutine_handle<> resume_handle)
{
    WIDIR_ASSERT(!spaceWaiter_, "core %u: nested space wait", node_);
    spaceWaiter_ = resume_handle;
    scheduleStep(0);
}

void
Core::waitIdle(Tick cycles, std::coroutine_handle<> resume_handle)
{
    if (sink_ != nullptr)
        sink_->idle(cycles);
    sim_.scheduleInline(cycles, [this, resume_handle] {
        resume_handle.resume();
        scheduleStep(0);
    });
}

// ---------------------------------------------------------------------
// Completion plumbing
// ---------------------------------------------------------------------

void
Core::onL1Complete(std::uint64_t token, std::uint64_t value)
{
    auto it = tokens_.find(token);
    WIDIR_ASSERT(it != tokens_.end(), "unknown L1 token at core %u",
                 node_);
    TokenInfo info = it->second;
    tokens_.erase(it);

    switch (info.kind) {
      case TokenKind::RobLoad: {
        for (auto &[seq, entry] : rob_) {
            if (seq == info.robSeq) {
                entry.ready = true;
                entry.value = value;
                break;
            }
        }
        // A blocking load resumes the coroutine with the value.
        if (valueWaiter_ && token == blockingToken_) {
            if (valueSlot_)
                *valueSlot_ = value;
            auto h = valueWaiter_;
            valueWaiter_ = nullptr;
            valueSlot_ = nullptr;
            blockingToken_ = 0;
            resumeCoroutine(h);
        }
        break;
      }
      case TokenKind::WbStore:
        WIDIR_ASSERT(storesInFlight_ > 0, "store drain underflow");
        --storesInFlight_;
        drainWriteBuffer();
        break;
      case TokenKind::Rmw: {
        // The atomic completed at the memory system; mark the ROB head
        // ready and resume the coroutine with the old value.
        WIDIR_ASSERT(rmwPending_ && rmwIssued_, "spurious RMW done");
        // The recorder needs the old/new pair to reconstruct the
        // modify at replay. rmwModify_ is pure (the L1 may invoke it
        // more than once), so re-applying it here is side-effect-free.
        if (sink_ != nullptr)
            sink_->rmwResult(value, rmwModify_(value));
        rmwPending_ = false;
        rmwIssued_ = false;
        for (auto &[seq, entry] : rob_) {
            if (entry.kind == EntryKind::Rmw && !entry.ready) {
                entry.ready = true;
                break;
            }
        }
        if (valueSlot_)
            *valueSlot_ = value;
        auto h = valueWaiter_;
        valueWaiter_ = nullptr;
        valueSlot_ = nullptr;
        if (h)
            resumeCoroutine(h);
        break;
      }
    }
    scheduleStep(0);
}

void
Core::resumeCoroutine(std::coroutine_handle<> h)
{
    h.resume();
    scheduleStep(0);
}

// ---------------------------------------------------------------------
// Retirement engine
// ---------------------------------------------------------------------

void
Core::scheduleStep(Tick delay)
{
    Tick when = sim_.now() + delay;
    if (stepScheduled_ && stepAt_ <= when)
        return;
    stepScheduled_ = true;
    stepAt_ = when;
    // The single hottest schedule site in the simulator: one event
    // per core step. Must stay on the inline path.
    sim_.scheduleAtInline(when, [this, when] {
        if (stepAt_ == when)
            stepScheduled_ = false;
        step();
    });
}

void
Core::traceRetire(const char *what, std::uint8_t op, Addr addr,
                  Tick enqueued)
{
    sim::Tracer &tracer = sim_.tracer();
    if (!(sim::kTraceCompiled && tracer.enabled()))
        return;
    sim::TraceRecord r;
    r.tick = sim_.now();
    r.kind = sim::TraceKind::CoreOp;
    r.comp = sim::TraceComponent::Core;
    r.node = node_;
    r.line = addr;
    r.op = op;
    r.opName = what;
    r.arg = sim_.now() - enqueued; // issue-to-retire latency
    tracer.emit(r);
}

void
Core::noteStallStart()
{
    if (!stalled_) {
        stalled_ = true;
        stallStart_ = sim_.now();
    }
}

void
Core::noteStallEnd()
{
    if (stalled_) {
        stalled_ = false;
        stats_.memStallCycles += sim_.now() - stallStart_;
    }
}

void
Core::step()
{
    if (finished_)
        return;

    std::uint32_t budget = cfg_.retireWidth;
    bool blocked = false;

    while (budget > 0 && !rob_.empty()) {
        RobEntry &head = rob_.front().second;
        switch (head.kind) {
          case EntryKind::Compute: {
            std::uint64_t k = std::min<std::uint64_t>(budget,
                                                      head.count);
            head.count -= k;
            budget -= static_cast<std::uint32_t>(k);
            robCount_ -= k;
            stats_.instructions += k;
            if (head.count == 0)
                rob_.pop_front();
            break;
          }
          case EntryKind::Load:
            if (!head.ready) {
                blocked = true;
            } else {
                stats_.loadLatencySum += sim_.now() - head.enqueued;
                ++stats_.loads;
                ++stats_.instructions;
                traceRetire("load", 0, head.addr, head.enqueued);
                robCount_ -= 1;
                budget -= 1;
                rob_.pop_front();
            }
            break;
          case EntryKind::Store:
            if (writeBuffer_.size() >= cfg_.writeBufferSize) {
                blocked = true; // store buffer full: memory stall
            } else {
                stats_.storeLatencySum += sim_.now() - head.enqueued;
                ++stats_.stores;
                ++stats_.instructions;
                traceRetire("store", 1, head.addr, head.enqueued);
                writeBuffer_.emplace_back(head.addr, head.value);
                robCount_ -= 1;
                budget -= 1;
                rob_.pop_front();
                drainWriteBuffer();
            }
            break;
          case EntryKind::Rmw:
            if (!head.ready) {
                blocked = true; // waits for drain + protocol
            } else {
                stats_.storeLatencySum += sim_.now() - head.enqueued;
                ++stats_.rmws;
                ++stats_.instructions;
                traceRetire("rmw", 2, head.addr, head.enqueued);
                robCount_ -= 1;
                budget -= 1;
                rob_.pop_front();
            }
            break;
        }
        if (blocked)
            break;
    }

    // An RMW issues once it is alone at the head of the ROB and the
    // write buffer has drained (atomics act as fences).
    maybeIssueRmw();

    // Feed the ROB: wake a coroutine parked on flow control.
    if (spaceWaiter_ && robHasSpace()) {
        auto h = spaceWaiter_;
        spaceWaiter_ = nullptr;
        h.resume();
    }
    // Fences resume once everything drained.
    if (fenceWaiter_ && rob_.empty() && writeBuffer_.empty() &&
        storesInFlight_ == 0) {
        auto h = fenceWaiter_;
        fenceWaiter_ = nullptr;
        h.resume();
    }

    // Stall accounting: blocked on an incomplete memory op at head.
    if (!rob_.empty()) {
        const RobEntry &head = rob_.front().second;
        bool mem_blocked =
            (head.kind == EntryKind::Load && !head.ready) ||
            (head.kind == EntryKind::Rmw && !head.ready) ||
            (head.kind == EntryKind::Store &&
             writeBuffer_.size() >= cfg_.writeBufferSize);
        if (mem_blocked) {
            noteStallStart();
            return; // completion callbacks reschedule the step
        }
        noteStallEnd();
        // More retirement work next cycle; fast-forward through long
        // pure-compute stretches.
        Tick delay = 1;
        if (rob_.front().second.kind == EntryKind::Compute) {
            RobEntry &head2 = rob_.front().second;
            std::uint64_t max_insts =
                static_cast<std::uint64_t>(cfg_.retireWidth) *
                cfg_.computeBatchCycles;
            if (head2.count > cfg_.retireWidth) {
                std::uint64_t k =
                    std::min(head2.count - 1, max_insts);
                // Consume k instructions over ceil(k/width) cycles in
                // one event.
                head2.count -= k;
                robCount_ -= k;
                stats_.instructions += k;
                delay = (k + cfg_.retireWidth - 1) / cfg_.retireWidth;
            }
        }
        scheduleStep(delay);
        return;
    }

    noteStallEnd();
    maybeFinish();
}

void
Core::maybeIssueRmw()
{
    if (!rmwPending_ || rmwIssued_)
        return;
    if (rob_.empty())
        return;
    const RobEntry &head = rob_.front().second;
    if (head.kind != EntryKind::Rmw)
        return;
    if (rob_.size() != 1)
        return; // everything older must have retired (it's in-order
                // anyway), and nothing younger exists while the
                // coroutine is suspended on the RMW
    if (!writeBuffer_.empty() || storesInFlight_ != 0)
        return;
    rmwIssued_ = true;
    std::uint64_t token = tokenNext_++;
    tokens_[token] = TokenInfo{TokenKind::Rmw, 0};
    l1_.rmw(rmwAddr_, rmwModify_, token);
}

void
Core::drainWriteBuffer()
{
    while (!writeBuffer_.empty() &&
           storesInFlight_ < cfg_.maxOutstandingStores) {
        auto [addr, value] = writeBuffer_.front();
        writeBuffer_.pop_front();
        ++storesInFlight_;
        std::uint64_t token = tokenNext_++;
        tokens_[token] = TokenInfo{TokenKind::WbStore, 0};
        l1_.write(addr, value, token);
    }
    scheduleStep(0);
}

void
Core::maybeFinish()
{
    if (finished_)
        return;
    if (!task_.valid() || !task_.done())
        return;
    if (!rob_.empty() || !writeBuffer_.empty() || storesInFlight_ != 0)
        return;
    finished_ = true;
    finishTick_ = sim_.now();
}

} // namespace widir::cpu
