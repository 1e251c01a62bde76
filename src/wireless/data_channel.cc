#include "wireless/data_channel.h"

#include <algorithm>

#include "sim/log.h"

namespace widir::wireless {

const char *
frameKindName(FrameKind kind)
{
    switch (kind) {
      case FrameKind::WirUpd:    return "WirUpd";
      case FrameKind::BrWirUpgr: return "BrWirUpgr";
      case FrameKind::WirDwgr:   return "WirDwgr";
      case FrameKind::WirInv:    return "WirInv";
    }
    return "?";
}

void
DataChannel::traceFrame(sim::TraceKind kind, const Frame &frame,
                        std::uint64_t arg)
{
    sim::Tracer &tracer = sim_.tracer();
    if (!(sim::kTraceCompiled && tracer.enabled()))
        return;
    sim::TraceRecord r;
    r.tick = sim_.now();
    r.kind = kind;
    r.comp = sim::TraceComponent::DataChannel;
    r.node = frame.src;
    r.line = frame.lineAddr;
    r.op = static_cast<std::uint8_t>(frame.kind);
    r.opName = frameKindName(frame.kind);
    r.arg = arg;
    tracer.emit(r);
}

DataChannel::DataChannel(Simulator &sim, const DataChannelConfig &cfg)
    : sim_(sim), cfg_(cfg), rng_(sim.makeRng(0x57a7e1e55ULL)),
      receivers_(cfg.numNodes)
{
    WIDIR_ASSERT(cfg_.commitOffset <= frameCycles(),
                 "commit point must be inside the frame");
    WIDIR_ASSERT(cfg_.numChannels > 0,
                 "data channel needs at least one frequency band");
    channels_.resize(cfg_.numChannels);
    for (Channel &ch : channels_)
        ch.pending.reserve(cfg_.numNodes);
}

std::uint32_t
DataChannel::channelOf(sim::Addr line) const
{
    if (cfg_.numChannels == 1)
        return 0;
    return static_cast<std::uint32_t>(mem::lineNumber(line) %
                                      cfg_.numChannels);
}

void
DataChannel::setReceiver(sim::NodeId n, RxHandler handler)
{
    WIDIR_ASSERT(n < receivers_.size(), "receiver id out of range");
    receivers_[n] = std::move(handler);
}

std::uint64_t
DataChannel::signature(sim::Addr line) const
{
    std::uint64_t mask = (cfg_.jamAddrBits >= 64)
        ? ~0ULL
        : ((1ULL << cfg_.jamAddrBits) - 1);
    return mem::lineNumber(line) & mask;
}

std::uint64_t
DataChannel::transmit(const Frame &frame, sim::EventFn on_commit)
{
    WIDIR_ASSERT(frame.src < cfg_.numNodes,
                 "frame source out of range");
    std::uint64_t token = nextToken_++;
    PendingTx tx;
    tx.token = token;
    tx.frame = frame;
    tx.readyAt = sim_.now();
    tx.onCommit = std::move(on_commit);
    traceFrame(sim::TraceKind::FrameQueued, frame, tx.token);
    std::uint32_t ch = channelOf(frame.lineAddr);
    channels_[ch].pending.push_back(std::move(tx));
    scheduleEval(ch);
    return token;
}

bool
DataChannel::cancelPending(std::uint64_t token)
{
    for (Channel &ch : channels_) {
        for (auto &tx : ch.pending) {
            if (tx.token == token && !tx.cancelled) {
                tx.cancelled = true;
                traceFrame(sim::TraceKind::FrameCancelled, tx.frame,
                           token);
                return true;
            }
        }
    }
    return false;
}

JamId
DataChannel::startJamming(sim::NodeId owner, sim::Addr line)
{
    JamFilter filter;
    filter.id = nextJamId_++;
    filter.owner = owner;
    filter.maskedLine = signature(line);
    jams_.push_back(filter);
    return filter.id;
}

void
DataChannel::stopJamming(JamId id)
{
    auto it = std::find_if(jams_.begin(), jams_.end(),
                           [id](const JamFilter &f) {
                               return f.id == id;
                           });
    WIDIR_ASSERT(it != jams_.end(), "stopping unknown jam filter");
    jams_.erase(it);
    // Jammed senders are parked in back-off and will retry on their
    // own; nothing to kick here.
}

bool
DataChannel::jammedBy(const PendingTx &tx) const
{
    // Jamming exists to stop *updates* to a line the directory is
    // operating on (Section III-C1); directory-originated control
    // frames (BrWirUpgr/WirDwgr/WirInv) are never jammed. No sender is
    // exempt: the core co-located with the jamming directory must be
    // blocked like any other.
    if (tx.frame.kind != FrameKind::WirUpd)
        return false;
    std::uint64_t sig = signature(tx.frame.lineAddr);
    for (const auto &f : jams_) {
        if (f.maskedLine == sig)
            return true;
    }
    return false;
}

void
DataChannel::scheduleEval(std::uint32_t ch)
{
    Channel &c = channels_[ch];
    // Find the earliest instant an arbitration could do anything.
    if (c.pending.empty())
        return;
    Tick earliest = sim::kTickNever;
    for (const auto &tx : c.pending) {
        if (!tx.cancelled)
            earliest = std::min(earliest, tx.readyAt);
    }
    if (earliest == sim::kTickNever)
        return;
    earliest = std::max({earliest, c.busyUntil, sim_.now()});
    if (c.evalAt != sim::kTickNever && c.evalAt <= earliest)
        return; // an already-scheduled pass covers this instant
    // Supersede any later scheduled pass: bump the generation so the
    // stale callback returns without evaluating (the old code let it
    // run evaluate() a second time -- wasted events, and a hazard the
    // moment evaluate() stops being idempotent).
    c.evalAt = earliest;
    std::uint64_t gen = ++c.evalGen;
    sim_.scheduleAtInline(earliest, [this, ch, gen] {
        if (gen != channels_[ch].evalGen)
            return; // superseded by an earlier reschedule
        channels_[ch].evalAt = sim::kTickNever;
        evaluate(ch);
    });
}

void
DataChannel::evaluate(std::uint32_t ch)
{
    Channel &c = channels_[ch];
    Tick now = sim_.now();
    // A delivery event for this very tick has not run yet (it carries
    // an older event sequence number): re-queue behind it so receivers
    // observe the previous frame before anyone starts a new one.
    if (c.deliveryPending && c.deliveryAt == now) {
        sim_.scheduleAtInline(now, [this, ch] { evaluate(ch); });
        return;
    }
    // Drop cancelled entries lazily.
    c.pending.erase(std::remove_if(c.pending.begin(), c.pending.end(),
                                   [](const PendingTx &tx) {
                                       return tx.cancelled;
                                   }),
                    c.pending.end());
    if (c.pending.empty())
        return;
    if (c.busyUntil > now) {
        // Non-persistent carrier sense: stations that found the medium
        // busy re-sense after it frees with a small random stagger.
        // Re-sensing at exactly busyUntil_ would make every deferred
        // station start together and collide deterministically after
        // each frame (CSMA collapse under bursts).
        for (auto &tx : c.pending) {
            if (!tx.cancelled && tx.readyAt <= now)
                tx.readyAt = c.busyUntil + rng_.below(cfg_.resenseWindow);
        }
        scheduleEval(ch);
        return;
    }

    // All transmitters whose carrier sense sees a free medium at `now`
    // start together; more than one starting is a collision.
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < c.pending.size(); ++i) {
        if (c.pending[i].readyAt <= now)
            ready.push_back(i);
    }
    if (ready.empty()) {
        scheduleEval(ch);
        return;
    }

    attempts_ += ready.size();

    if (ready.size() > 1) {
        // Collision: preamble + detect cycles are consumed, then every
        // participant backs off for a random number of slots drawn
        // from its (capped) exponential window.
        ++collisionEvents_;
        collisionsSampled_ += ready.size();
        Tick after = now + 1 + cfg_.collisionCycles;
        c.busyUntil = after;
        busyCycles_ += after - now;
        for (std::size_t idx : ready) {
            PendingTx &tx = c.pending[idx];
            ++tx.attempt;
            std::uint32_t exp =
                std::min(tx.attempt, cfg_.maxBackoffExp);
            std::uint64_t window = 1ULL << exp;
            tx.readyAt = after + rng_.below(window) * cfg_.backoffSlot;
            traceFrame(sim::TraceKind::FrameCollision, tx.frame,
                       tx.attempt);
        }
        scheduleEval(ch);
        return;
    }

    // Lone transmitter: check the jam filters, which fire a
    // negative-ack in the collision-detect cycle.
    std::size_t idx = ready.front();
    if (jammedBy(c.pending[idx])) {
        ++jamRejects_;
        traceFrame(sim::TraceKind::FrameJammed, c.pending[idx].frame);
        Tick after = now + 1 + cfg_.collisionCycles;
        c.busyUntil = after;
        busyCycles_ += after - now;
        PendingTx &tx = c.pending[idx];
        // A jam is the directory saying "not yet", not congestion:
        // retry on a short fixed window (and do not escalate the
        // collision backoff), otherwise a long jam (e.g. a batch of
        // W->W joins) starves writers far beyond the jam itself.
        tx.readyAt = after + rng_.below(4) * cfg_.backoffSlot;
        scheduleEval(ch);
        return;
    }

    // Fault injection (docs/FAULTS.md): a lone acquisition can still
    // lose its preamble to a fade or deliver a payload every
    // receiver's CRC rejects. Fates are sampled here, before the
    // commit point, so a faulted frame never commits and never reaches
    // any receiver -- each attempt is all-or-nothing, preserving the
    // commit point as the protocol's serialization point. The sender
    // retries through the normal BRS exponential backoff until the
    // frame gets through, exactly as after a collision.
    if (fault_) {
        fault::FrameFate fate = fault_->sampleFrame();
        if (fate != fault::FrameFate::Clean) {
            PendingTx &tx = c.pending[idx];
            ++tx.faultRetries;
            Tick after;
            if (fate == fault::FrameFate::PreambleLoss) {
                // The fade is noticed in the collision-detect window,
                // costing the same as a collision.
                ++preambleLosses_;
                after = now + 1 + cfg_.collisionCycles;
                traceFrame(sim::TraceKind::FramePreambleLoss, tx.frame,
                           tx.faultRetries);
            } else {
                // Corruption wastes the whole frame time plus one
                // cycle for the receivers' CRC NACK.
                ++crcErrors_;
                after = now + frameCycles() + 1;
                traceFrame(sim::TraceKind::FrameCrcError, tx.frame,
                           tx.faultRetries);
            }
            c.busyUntil = after;
            busyCycles_ += after - now;
            ++faultRetries_;
            ++tx.attempt;
            std::uint32_t exp = std::min(tx.attempt, cfg_.maxBackoffExp);
            tx.readyAt = after + rng_.below(1ULL << exp) * cfg_.backoffSlot;
            scheduleEval(ch);
            return;
        }
    }

    // Successful acquisition: commit at now+commitOffset, deliver the
    // frame everywhere at the end of the frame.
    PendingTx tx = std::move(c.pending[idx]);
    c.pending.erase(c.pending.begin() +
                    static_cast<std::ptrdiff_t>(idx));
    ++successes_;
    traceFrame(sim::TraceKind::FrameWin, tx.frame, tx.attempt);
    Tick end = now + frameCycles();
    c.busyUntil = end;
    busyCycles_ += end - now;

    if (tx.onCommit) {
        // Already an EventFn: scheduling it directly keeps the commit
        // inline (wrapping it in another lambda would not fit).
        sim_.scheduleAt(now + cfg_.commitOffset, std::move(tx.onCommit));
    }
    Frame frame = tx.frame;
    c.deliveryPending = true;
    c.deliveryAt = end;
    sim_.scheduleAtInline(end, [this, ch, frame] {
        channels_[ch].deliveryPending = false;
        traceFrame(sim::TraceKind::FrameDelivered, frame);
        for (auto &rx : receivers_) {
            if (rx)
                rx(frame);
        }
    });
    scheduleEval(ch);
}

void
DataChannel::describePending(std::string &out) const
{
    for (const Channel &ch : channels_)
        for (const PendingTx &tx : ch.pending)
            out += sim::strfmt(
                "  wireless: %s from %u line %#llx attempt %u fault "
                "retries %u%s\n",
                frameKindName(tx.frame.kind), tx.frame.src,
                static_cast<unsigned long long>(tx.frame.lineAddr),
                tx.attempt, tx.faultRetries,
                tx.cancelled ? " (cancelled)" : "");
}

} // namespace widir::wireless
