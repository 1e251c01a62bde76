#include "core/l1_controller.h"

#include <algorithm>
#include <memory>

#include "mem/address.h"
#include "sim/log.h"

namespace widir::coherence {

using mem::lineAlign;
using sim::Addr;
using sim::Tick;

L1Controller::L1Controller(CoherenceFabric &fabric, sim::NodeId node,
                           const CacheConfig &cache_cfg)
    : fabric_(fabric), node_(node),
      array_(cache_cfg.sizeBytes, cache_cfg.assoc),
      rng_(fabric.simulator().makeRng(0x11C0DE0000ULL + node))
{
}

void
L1Controller::send(Msg msg)
{
    msg.src = node_;
    fabric_.sendWired(msg);
}

void
L1Controller::describeOutstanding(std::string &out) const
{
    for (auto it = txns_.begin(); it != txns_.end(); ++it) {
        const Txn &t = it->second;
        std::string landing;
        if (t.landing)
            landing = sim::strfmt(" landing %s, %zu waiting",
                                  msgTypeName(t.landing->grant.type),
                                  t.landing->waiting.size());
        out += sim::strfmt("  L1 %u: line %#llx %s%s%s%s%s ops %zu "
                           "retries %u\n",
                           node_, static_cast<unsigned long long>(t.line),
                           msgTypeName(t.request),
                           array_.lookup(t.line) ? " (sharer upgrade)" : "",
                           t.toneHeld ? " tone held" : "",
                           t.fillAsW ? " fill as W" : "", landing.c_str(),
                           t.ops.size(), t.retries);
    }
    for (auto it = wirelessTxns_.begin(); it != wirelessTxns_.end(); ++it)
        out += sim::strfmt("  L1 %u: line %#llx wireless write, %zu "
                           "deferred\n",
                           node_,
                           static_cast<unsigned long long>(it->second.line),
                           it->second.deferred.size());
}

void
L1Controller::traceState(Addr line, L1State from, L1State to,
                         const char *why)
{
    sim::Tracer &tracer = fabric_.simulator().tracer();
    if (!(sim::kTraceCompiled && tracer.enabled()))
        return;
    sim::TraceRecord r;
    r.tick = fabric_.simulator().now();
    r.kind = sim::TraceKind::L1Transition;
    r.comp = sim::TraceComponent::L1;
    r.node = node_;
    r.line = line;
    r.from = static_cast<std::uint8_t>(from);
    r.to = static_cast<std::uint8_t>(to);
    r.fromName = l1StateName(from);
    r.toName = l1StateName(to);
    r.note = why;
    tracer.emit(r);
}

void
L1Controller::traceMshr(sim::TraceKind kind, Addr line, const char *req,
                        const char *why)
{
    sim::Tracer &tracer = fabric_.simulator().tracer();
    if (!(sim::kTraceCompiled && tracer.enabled()))
        return;
    sim::TraceRecord r;
    r.tick = fabric_.simulator().now();
    r.kind = kind;
    r.comp = sim::TraceComponent::L1;
    r.node = node_;
    r.line = line;
    r.opName = req;
    r.note = why;
    tracer.emit(r);
}

void
L1Controller::complete(std::uint64_t token, std::uint64_t value)
{
    WIDIR_ASSERT(static_cast<bool>(complete_),
                 "L1 %u has no completion callback", node_);
    complete_(token, value);
}

L1State
L1Controller::stateOf(Addr addr) const
{
    const L1Frame *e = array_.lookup(addr);
    return e ? e->state : L1State::I;
}

bool
L1Controller::peekWord(Addr addr, std::uint64_t &value) const
{
    const L1Frame *e = array_.lookup(addr);
    if (!e)
        return false;
    value = e->data.word(addr);
    return true;
}

// ---------------------------------------------------------------------
// CPU-facing operations
// ---------------------------------------------------------------------

void
L1Controller::read(Addr addr, std::uint64_t token)
{
    WIDIR_ASSERT(mem::wordAligned(addr), "unaligned load");
    ++stats_.loads;
    L1Frame *e = array_.lookup(addr);
    L1State st = e ? e->state : L1State::I;
    if (st != L1State::I) {
        // Hit in S/E/M/W: serve after the L1 round trip. A local access
        // to a W line resets UpdateCount (Table I, W->W on read).
        ++stats_.loadHits;
        e->updateCount = 0;
        array_.touch(e, fabric_.simulator().now());
        std::uint64_t value = e->data.word(addr);
        fabric_.simulator().scheduleInline(
            fabric_.config().l1HitLatency,
            [this, token, value] { complete(token, value); });
        return;
    }
    PendingOp op;
    op.kind = TxnKind::Read;
    op.token = token;
    op.addr = addr;
    startMiss(op, lineAlign(addr));
}

void
L1Controller::write(Addr addr, std::uint64_t value, std::uint64_t token)
{
    WIDIR_ASSERT(mem::wordAligned(addr), "unaligned store");
    ++stats_.stores;
    L1Frame *e = array_.lookup(addr);
    L1State st = e ? e->state : L1State::I;

    PendingOp op;
    op.kind = TxnKind::Write;
    op.token = token;
    op.addr = addr;
    op.storeValue = value;

    // Per-location store ordering: any outstanding transaction for the
    // line (wired or wireless) is the single ordering point -- later
    // same-line stores queue behind it no matter what the cache state
    // currently says. Otherwise a store could race ahead of older
    // stores parked in an in-flight upgrade or a backed-off wireless
    // transmission.
    Addr line = lineAlign(addr);
    if (auto tit = txns_.find(line); tit != txns_.end()) {
        tit->second.ops.push_back(op);
        return;
    }
    if (auto wit = wirelessTxns_.find(line); wit != wirelessTxns_.end()) {
        ++stats_.storeHits;
        wit->second.deferred.push_back(op);
        return;
    }

    if (st == L1State::E || st == L1State::M) {
        // Silent E->M upgrade plus local write.
        ++stats_.storeHits;
        if (st == L1State::E)
            traceState(line, L1State::E, L1State::M, "store");
        e->state = L1State::M;
        e->dirty = true;
        e->data.setWord(addr, value);
        array_.touch(e, fabric_.simulator().now());
        fabric_.simulator().scheduleInline(
            fabric_.config().l1HitLatency,
            [this, token, value] { complete(token, value); });
    } else if (st == L1State::W) {
        // Table I, W->W on write: broadcast the word via the WNoC; the
        // local copy merges only once transmission is guaranteed.
        ++stats_.storeHits;
        issueWirelessWrite(op);
    } else {
        // A miss, or from S an upgrade: GetX saying we share the line.
        startMiss(op, line);
    }
}

void
L1Controller::rmw(Addr addr,
                  std::function<std::uint64_t(std::uint64_t)> modify,
                  std::uint64_t token)
{
    WIDIR_ASSERT(mem::wordAligned(addr), "unaligned RMW");
    ++stats_.rmws;
    L1Frame *e = array_.lookup(addr);
    L1State st = e ? e->state : L1State::I;

    PendingOp op;
    op.kind = TxnKind::Rmw;
    op.token = token;
    op.addr = addr;
    op.modify = std::move(modify);

    // Same ordering-point rule as write(). (The core drains its write
    // buffer before issuing an RMW, so in practice nothing same-line
    // is outstanding here; this is belt-and-braces for direct users of
    // the L1 API.)
    Addr line = lineAlign(addr);
    if (auto tit = txns_.find(line); tit != txns_.end()) {
        tit->second.ops.push_back(op);
        return;
    }
    if (auto wit = wirelessTxns_.find(line); wit != wirelessTxns_.end()) {
        wit->second.deferred.push_back(op);
        return;
    }

    if (st == L1State::E || st == L1State::M) {
        // Ownership makes the local update atomic.
        std::uint64_t old = e->data.word(addr);
        if (st == L1State::E)
            traceState(line, L1State::E, L1State::M, "rmw");
        e->state = L1State::M;
        e->dirty = true;
        e->data.setWord(addr, op.modify(old));
        array_.touch(e, fabric_.simulator().now());
        fabric_.simulator().scheduleInline(
            fabric_.config().l1HitLatency,
            [this, token, old] { complete(token, old); });
    } else if (st == L1State::W) {
        // A no-op RMW (e.g. a failed compare-and-swap: the modify
        // function returns the value unchanged) performs no store, so
        // nothing needs to broadcast; it linearizes at its local read
        // like an ordinary load.
        std::uint64_t cur = e->data.word(addr);
        if (op.modify(cur) == cur) {
            e->updateCount = 0;
            array_.touch(e, fabric_.simulator().now());
            fabric_.simulator().scheduleInline(
                fabric_.config().l1HitLatency,
                [this, token, cur] { complete(token, cur); });
            return;
        }
        // Section IV-C: wireless RMW. Pin the line, send the new value;
        // any intervening update/invalidate retries the whole RMW.
        e->locked = true;
        issueWirelessWrite(op);
    } else {
        startMiss(op, line);
    }
}

// ---------------------------------------------------------------------
// Wired miss path
// ---------------------------------------------------------------------

void
L1Controller::startMiss(const PendingOp &op, Addr line)
{
    auto it = txns_.find(line);
    if (it != txns_.end()) {
        // Coalesce behind the outstanding transaction. If a write joins
        // a read-only transaction we conservatively leave the request
        // type alone; the fill completes the read and the write then
        // re-executes against the filled state.
        it->second.ops.push_back(op);
        return;
    }
    Txn txn;
    txn.line = line;
    txn.seq = nextTxnSeq_++;
    txn.request = (op.kind == TxnKind::Read) ? MsgType::GetS
                                             : MsgType::GetX;
    txn.ops.push_back(op);
    // Pin a resident copy (upgrade in flight) against replacement; the
    // fill or invalidation that ends the transaction unpins it.
    L1Frame *upgrade = array_.lookup(line);
    if (upgrade)
        upgrade->locked = true;
    if (op.kind == TxnKind::Read)
        ++stats_.readMisses;
    else
        ++stats_.writeMisses;
    auto [ins, ok] = txns_.try_emplace(line, std::move(txn));
    WIDIR_ASSERT(ok, "duplicate txn");
    traceMshr(sim::TraceKind::MshrAlloc, line,
              msgTypeName(ins->second.request),
              upgrade ? "upgrade" : nullptr);
    sendRequest(ins->second);
}

void
L1Controller::sendRequest(Txn &txn)
{
    // Recompute the sharer indication from the *current* cache state:
    // an Inv may have taken our copy while a previous send was in
    // flight, and a stale "I am a sharer" flag would let a W-state
    // directory discard the request as redundant (Table II, W->W
    // case 2) when it is not.
    L1Frame *e = array_.lookup(txn.line);
    Msg msg;
    msg.type = txn.request;
    msg.dst = fabric_.homeOf(txn.line);
    msg.line = txn.line;
    msg.isSharer = e && e->state == L1State::S;
    send(msg);
}

void
L1Controller::retryAfterNack(Txn &txn)
{
    // A bounced response also releases a census tone held for this
    // request (Section III-B1, completion case iii). The census is
    // over for us: a fill delivered to the retried request is a fresh
    // post-census grant and must be installed as granted.
    dropToneIfHeld(txn);
    txn.fillAsW = false;
    ++txn.retries;
    const auto &cfg = fabric_.config();
    // Exponential backoff: long directory transactions (joins,
    // censuses) would otherwise drown the mesh in retry traffic.
    Tick scale = Tick{1} << std::min<std::uint32_t>(txn.retries, 4);
    Tick delay = cfg.nackRetryBase * scale +
                 rng_.below((cfg.nackRetryJitter ? cfg.nackRetryJitter
                                                 : 1) *
                            scale);
    fabric_.simulator().scheduleInline(
        delay, [this, line = txn.line, seq = txn.seq] {
            // The Nacked transaction may have ended (a census satisfied
            // the upgrade) and a new one opened for the line: that one
            // has sent its own request and must not send it twice.
            auto it = txns_.find(line);
            if (it != txns_.end() && it->second.seq == seq)
                sendRequest(it->second);
        });
}

// ---------------------------------------------------------------------
// Completion plumbing
// ---------------------------------------------------------------------

void
L1Controller::completeOps(std::vector<PendingOp> ops)
{
    // Re-execute each queued op against the current cache state.
    // Reads complete immediately; writes/RMWs re-enter the normal path
    // so that e.g. a write that coalesced behind a GetS performs its
    // own upgrade if the fill granted only S.
    for (auto &op : ops) {
        switch (op.kind) {
          case TxnKind::Read: {
            L1Frame *e = array_.lookup(op.addr);
            if (e && e->state != L1State::I) {
                e->updateCount = 0;
                complete(op.token, e->data.word(op.addr));
            } else {
                // Line vanished between fill and drain (e.g. WirInv
                // raced the fill): retry as a fresh miss.
                --stats_.loads; // read() will count it again
                read(op.addr, op.token);
            }
            break;
          }
          case TxnKind::Write:
            --stats_.stores;
            write(op.addr, op.storeValue, op.token);
            break;
          case TxnKind::Rmw:
            --stats_.rmws;
            rmw(op.addr, std::move(op.modify), op.token);
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Fills and evictions
// ---------------------------------------------------------------------

void
L1Controller::evict(L1Frame *victim)
{
    ++stats_.evictions;
    Msg msg;
    msg.line = victim->line;
    msg.dst = fabric_.homeOf(victim->line);
    switch (victim->state) {
      case L1State::M:
        msg.type = MsgType::PutM;
        msg.hasData = true;
        msg.data = victim->data;
        msg.dirtyData = true;
        break;
      case L1State::E:
        msg.type = MsgType::PutE;
        break;
      case L1State::S:
        msg.type = MsgType::PutS;
        break;
      case L1State::W:
        // Table I, W->I on eviction: notify with PutW over the wired
        // network (III-B2: wired to save wireless bandwidth).
        msg.type = MsgType::PutW;
        ++stats_.putWSent;
        break;
      case L1State::I:
        array_.invalidate(victim);
        return;
    }
    traceState(victim->line, victim->state,
               L1State::I, "evict");
    array_.invalidate(victim);
    send(msg);
}

bool
L1Controller::landFill(const Msg &grant)
{
    auto it = txns_.find(grant.line);
    WIDIR_ASSERT(it != txns_.end(), "fill without a transaction");
    L1Frame *hit = array_.lookup(grant.line);
    L1Frame *frame = hit ? hit : array_.pickVictim(grant.line);
    if (!frame)
        return false;
    // Moving the transaction out keeps a landing grant alive until the
    // end of this call.
    Txn txn = std::move(it->second);
    txns_.erase(it);
    traceMshr(sim::TraceKind::MshrRetire, grant.line,
              msgTypeName(txn.request), "fill");
    if (!hit && frame->valid)
        evict(frame);

    L1State st = L1State::S;
    if (grant.type == MsgType::WirUpgr) {
        st = L1State::W;
    } else if (txn.fillAsW) {
        // The line arrived while we held the census tone: the census
        // counted us, so the copy enters W (case iii of III-B1). Only
        // an S grant can be in flight across an S->W transition.
        WIDIR_ASSERT(grant.grant == GrantState::S,
                     "non-S grant crossed a BrWirUpgr census");
        st = L1State::W;
    } else {
        switch (grant.grant) {
          case GrantState::S: st = L1State::S; break;
          case GrantState::E: st = L1State::E; break;
          case GrantState::M: st = L1State::M; break;
        }
    }
    WIDIR_ASSERT(grant.hasData, "fill without data");
    // The frame still holds the pre-fill copy on an in-place upgrade
    // (same line); a fresh or recycled frame fills from I.
    L1State old = hit ? hit->state : L1State::I;
    array_.fill(frame, grant.line, grant.data);
    frame->state = st;
    if (st == L1State::M)
        frame->dirty = true;
    if (old != st)
        traceState(grant.line, old, st, "fill");

    dropToneIfHeld(txn);
    if (grant.type == MsgType::WirUpgr && grant.needsAck) {
        // Table I, I->W when the directory is already in W: ack the
        // join so the directory can bump SharerCount (Table II, W->W).
        Msg ack;
        ack.type = MsgType::WirUpgrAck;
        ack.dst = grant.src;
        ack.line = grant.line;
        send(ack);
    }
    completeOps(std::move(txn.ops));
    // What met the landing fill is answered from the granted state,
    // after the queued ops, as if the line had landed on arrival.
    if (txn.landing) {
        for (const auto &w : txn.landing->waiting) {
            if (const Msg *m = std::get_if<Msg>(&w))
                receive(*m);
            else
                receiveFrame(std::get<wireless::Frame>(w));
        }
    }
    return true;
}

void
L1Controller::retryLanding(Addr line)
{
    // Every way is pinned (rare: RMW-pinned plus concurrent fill in a
    // 2-way set). The transaction stays open, so the node keeps
    // answering for the granted line (l1TxnRules(), Landing).
    fabric_.simulator().scheduleInline(4, [this, line] {
        auto it = txns_.find(line);
        WIDIR_ASSERT(it != txns_.end() && it->second.landing,
                     "landing transaction vanished");
        // A fill that holds the census tone must not wait for this
        // node's own wireless writes: a ToWireless census can jam
        // them, and every census waits for this tone (one wired-OR
        // for every line). Squash one that has not won the channel;
        // it retries like any squashed write.
        if (it->second.toneHeld) {
            for (auto w = wirelessTxns_.begin(); w != wirelessTxns_.end();
                 ++w) {
                if (array_.setOf(w->first) == array_.setOf(line) &&
                    fabric_.dataChannel()->cancelPending(
                        w->second.channelToken)) {
                    squashWireless(w->first);
                    break;
                }
            }
        }
        if (!landFill(it->second.landing->grant))
            retryLanding(line);
    });
}

// ---------------------------------------------------------------------
// Wireless write / RMW path (Section IV-C)
// ---------------------------------------------------------------------

void
L1Controller::issueWirelessWrite(const PendingOp &op)
{
    Addr line = lineAlign(op.addr);
    L1Frame *e = array_.lookup(op.addr);
    WIDIR_ASSERT(e && e->state == L1State::W,
                 "wireless write on a non-W line");
    // Pin the line: it may not be evicted while its update is queued
    // at the transceiver (and Section IV-C pins RMW lines explicitly).
    e->locked = true;

    // Later same-line ops wait in `deferred` (write()/rmw() queue them
    // there): sharers must observe each value, one WirUpd per write.
    WirelessTxn wtxn;
    wtxn.line = line;
    wtxn.op = op;
    auto [ins, ok] = wirelessTxns_.try_emplace(line, std::move(wtxn));
    WIDIR_ASSERT(ok, "duplicate wireless txn");
    traceMshr(sim::TraceKind::MshrAlloc, line, "WirUpd",
              op.kind == TxnKind::Rmw ? "rmw" : "store");

    wireless::Frame frame;
    frame.src = node_;
    frame.kind = wireless::FrameKind::WirUpd;
    frame.lineAddr = line;
    frame.wordAddr = op.addr;
    // For RMWs the transmitted value is a function of the local word.
    // The local word cannot change between issue and commit: a remote
    // update in that window squashes and retries the RMW (the paper's
    // monitoring, Section IV-C), so computing the result here is
    // equivalent. `modify` must therefore be a pure function.
    frame.value = (op.kind == TxnKind::Rmw)
        ? ins->second.op.modify(e->data.word(op.addr))
        : op.storeValue;

    auto *channel = fabric_.dataChannel();
    WIDIR_ASSERT(channel, "wireless write without a wireless channel");
    ins->second.channelToken = channel->transmit(
        frame, [this, line] { wirelessCommit(line); });
}

void
L1Controller::wirelessCommit(Addr line)
{
    // Nothing squashes a write once it has won the channel: the frames
    // that squash it are for the same line, so they share its busy
    // sub-channel, and the landing squash only withdraws a write that
    // has not won.
    WIDIR_ASSERT(wirelessTxns_.count(line),
                 "L1 %u: commit for line %#llx with no write in flight",
                 node_, static_cast<unsigned long long>(line));
    const L1Step step = txnStep(line, L1Event::ChannelCommit);
    WIDIR_ASSERT(step == L1Step::Commit, "L1 %u: %s for a channel commit",
                 node_, l1StepName(step));
    auto it = wirelessTxns_.find(line);
    WirelessTxn wtxn = std::move(it->second);
    wirelessTxns_.erase(it);
    traceMshr(sim::TraceKind::MshrRetire, line, "WirUpd", "commit");

    L1Frame *e = array_.lookup(line);
    WIDIR_ASSERT(e && e->state == L1State::W,
                 "wireless commit on a non-W line");
    ++stats_.wirelessWrites;
    e->locked = false;

    std::uint64_t completion_value;
    PendingOp &op = wtxn.op;
    if (op.kind == TxnKind::Rmw) {
        std::uint64_t old = e->data.word(op.addr);
        e->data.setWord(op.addr, op.modify(old));
        completion_value = old;
    } else {
        e->data.setWord(op.addr, op.storeValue);
        completion_value = op.storeValue;
    }
    e->updateCount = 0;
    array_.touch(e, fabric_.simulator().now());

    // Re-issue the next same-line write BEFORE completing the CPU
    // token: completion synchronously drains the core's write buffer,
    // and a younger same-line store arriving then must find this queue
    // in place or it would jump ahead of the deferred ops.
    if (!wtxn.deferred.empty()) {
        issueWirelessWrite(wtxn.deferred.front());
        wtxn.deferred.erase(wtxn.deferred.begin());
        wirelessTxns_.find(line)->second.deferred =
            std::move(wtxn.deferred);
    }
    complete(op.token, completion_value);
}

void
L1Controller::squashWireless(Addr line)
{
    auto it = wirelessTxns_.find(line);
    WIDIR_ASSERT(it != wirelessTxns_.end(), "squash without a write");
    WirelessTxn wtxn = std::move(it->second);
    wirelessTxns_.erase(it);
    traceMshr(sim::TraceKind::MshrRetire, line, "WirUpd", "squash");
    fabric_.dataChannel()->cancelPending(wtxn.channelToken);
    ++stats_.wirelessSquashes;

    if (L1Frame *e = array_.lookup(line))
        e->locked = false;

    // Section IV-C: squash the pending write and retry it; the retry
    // re-enters through the normal CPU path and takes whatever route
    // the new cache state dictates (wired GetX after a WirInv, wired
    // upgrade after a WirDwgr, or wireless again if still W).
    //
    // The retry is dispersed by a few cycles: squashes are triggered
    // by a broadcast delivery, so every squashed core would otherwise
    // re-arbitrate at the same tick and collide deterministically
    // (the pipeline replay of the RMW takes a few cycles anyway).
    auto ops = std::make_shared<std::vector<PendingOp>>();
    ops->push_back(std::move(wtxn.op));
    for (auto &d : wtxn.deferred)
        ops->push_back(std::move(d));
    Tick disperse = 1 + rng_.below(10);
    fabric_.simulator().scheduleInline(
        disperse, [this, ops] { completeOps(std::move(*ops)); });
}

// ---------------------------------------------------------------------
// Incoming wired messages
// ---------------------------------------------------------------------

L1Step
L1Controller::txnStep(Addr line, L1Event ev)
{
    L1Phase phase;
    if (auto it = txns_.find(line); it != txns_.end()) {
        if (it->second.landing) {
            phase = L1Phase::Landing;
        } else if (const L1Frame *e = array_.lookup(line)) {
            WIDIR_ASSERT(e->state == L1State::S,
                         "miss in flight on a %s copy",
                         l1StateName(e->state));
            phase = L1Phase::Upgrade;
        } else {
            phase = L1Phase::Miss;
        }
    } else if (wirelessTxns_.count(line)) {
        phase = L1Phase::Wireless;
    } else {
        return L1Step::Stable;
    }
    const int row = l1TxnRuleFor(phase, ev);
    if (row < 0)
        sim::panic("L1 %u: no step for %s during %s of line %#llx", node_,
                   l1EventName(ev), l1PhaseName(phase),
                   static_cast<unsigned long long>(line));
    ++txnRuleHits_[static_cast<std::size_t>(row)];
    return l1TxnRules()[static_cast<std::size_t>(row)].step;
}

void
L1Controller::receive(const Msg &msg)
{
    L1Event ev;
    if (!l1EventOf(msg.type, ev))
        sim::panic("L1 %u received unexpected %s", node_,
                   msgTypeName(msg.type));
    if (ev == L1Event::MsgNack)
        ++stats_.nacksSeen;
    // A transaction in flight decides through the in-transaction
    // table; otherwise the handlers apply Table I to the cached copy.
    const L1Step step = txnStep(msg.line, ev);
    if (step == L1Step::Fill) {
        if (!landFill(msg)) {
            txns_.find(msg.line)->second.landing =
                std::make_unique<Landing>(msg);
            retryLanding(msg.line);
        }
        return;
    }
    if (step == L1Step::Retry) {
        retryAfterNack(txns_.find(msg.line)->second);
        return;
    }
    if (step == L1Step::Wait) {
        txns_.find(msg.line)->second.landing->waiting.emplace_back(msg);
        return;
    }
    WIDIR_ASSERT(step == L1Step::Stable, "L1 %u: %s is not a message step",
                 node_, l1StepName(step));
    // With no transaction, a Nack answers an upgrade that a census
    // satisfied (Table I, S->W case 2) and is dropped; the home never
    // grants such an upgrade.
    if (ev == L1Event::MsgInv)
        handleInv(msg);
    else if (ev == L1Event::MsgFwdGetS || ev == L1Event::MsgFwdGetX)
        handleFwd(msg);
    else if (ev != L1Event::MsgNack)
        sim::panic("L1 %u: %s for line %#llx without a request", node_,
                   msgTypeName(msg.type),
                   static_cast<unsigned long long>(msg.line));
}

void
L1Controller::handleInv(const Msg &msg)
{
    L1Frame *e = array_.lookup(msg.line);
    Msg ack;
    ack.type = MsgType::InvAck;
    ack.dst = msg.src;
    ack.line = msg.line;
    if (e && e->state != L1State::I) {
        if (msg.needData &&
            (e->state == L1State::M)) {
            ack.hasData = true;
            ack.data = e->data;
            ack.dirtyData = true;
        }
        traceState(msg.line, e->state,
                   L1State::I, "Inv");
        array_.invalidate(e);
    }
    send(ack);
}

void
L1Controller::handleFwd(const Msg &msg)
{
    L1Frame *e = array_.lookup(msg.line);
    if (!e || e->state == L1State::I) {
        // We already evicted: our PutE/PutM is in flight and will
        // complete the directory's transaction; drop the forward.
        return;
    }
    L1State st = e->state;
    WIDIR_ASSERT(st == L1State::E || st == L1State::M,
                 "Fwd to non-owner (state %s)", l1StateName(st));
    Msg resp;
    resp.type = MsgType::OwnerData;
    resp.dst = msg.src;
    resp.line = msg.line;
    resp.hasData = true;
    resp.data = e->data;
    resp.dirtyData = (st == L1State::M);
    if (msg.type == MsgType::FwdGetS) {
        traceState(msg.line, st, L1State::S, "FwdGetS");
        e->state = L1State::S;
        e->dirty = false;
    } else {
        traceState(msg.line, st, L1State::I, "FwdGetX");
        array_.invalidate(e);
    }
    send(resp);
}

// ---------------------------------------------------------------------
// Incoming wireless frames (Table I)
// ---------------------------------------------------------------------

void
L1Controller::receiveFrame(const wireless::Frame &frame)
{
    if (frame.kind == wireless::FrameKind::WirUpd && frame.src == node_)
        return; // own update was merged at commit
    const Addr line = frame.lineAddr;
    const L1Step step = txnStep(line, l1EventOf(frame.kind));
    if (step == L1Step::Wait) {
        txns_.find(line)->second.landing->waiting.emplace_back(frame);
        return;
    }
    if (step == L1Step::UpdateDuringWrite) {
        // A pending local wireless RMW races this update: the paper's
        // hardware monitors for exactly this and retries the RMW with
        // the fresh value (Section IV-C); the update then counts like
        // any other. A pending plain write keeps its queue slot (its
        // value overwrites this one at its own commit), and a line
        // with local work queued is still "actively shared", so the
        // update does not count toward UpdateCount.
        if (wirelessTxns_.find(line)->second.op.kind == TxnKind::Rmw) {
            squashWireless(line);
            handleWirUpd(frame);
        } else {
            array_.lookup(line)->data.setWord(frame.wordAddr, frame.value);
            ++stats_.updatesApplied;
        }
        return;
    }
    switch (frame.kind) {
      case wireless::FrameKind::WirUpd:
        handleWirUpd(frame);
        break;
      case wireless::FrameKind::BrWirUpgr:
        handleBrWirUpgr(line, step);
        return;
      case wireless::FrameKind::WirDwgr:
        handleWirDwgr(frame);
        break;
      case wireless::FrameKind::WirInv:
        handleWirInv(frame);
        break;
    }
    WIDIR_ASSERT(step == L1Step::Stable || step == L1Step::Squash,
                 "L1 %u: %s is not a frame step", node_, l1StepName(step));
    if (step == L1Step::Squash)
        squashWireless(line);
}

void
L1Controller::handleWirUpd(const wireless::Frame &frame)
{
    L1Frame *e = array_.lookup(frame.lineAddr);
    if (!e || e->state != L1State::W)
        return;
    // Apply the fine-grain update.
    e->data.setWord(frame.wordAddr, frame.value);
    ++stats_.updatesApplied;

    // UpdateCount self-invalidation (Section III-B2): after too many
    // remote updates with no local access, leave the sharing group.
    if (!e->locked &&
        ++e->updateCount >= fabric_.config().updateCountThreshold) {
        ++stats_.selfInvalidations;
        ++stats_.putWSent;
        Msg put;
        put.type = MsgType::PutW;
        put.dst = fabric_.homeOf(frame.lineAddr);
        put.line = frame.lineAddr;
        traceState(frame.lineAddr, L1State::W, L1State::I,
                   "UpdateCount");
        array_.invalidate(e);
        send(put);
    }
}

void
L1Controller::handleBrWirUpgr(Addr line, L1Step step)
{
    // Global ToneAck census (Section III-B1). Every node participates;
    // the directory node began the census before this delivery.
    auto *tone = fabric_.toneChannel();
    WIDIR_ASSERT(tone, "BrWirUpgr without a tone channel");
    tone->raise();
    if (step == L1Step::HoldTone) {
        // Completion case (iii): we have a wired request in flight for
        // this line, or its grant is landing. Hold the tone until the
        // line lands or a bounce arrives; the line must be installed
        // in W -- the census counted us as a wireless sharer.
        Txn &txn = txns_.find(line)->second;
        txn.toneHeld = true;
        txn.fillAsW = true;
        return;
    }
    L1Frame *e = array_.lookup(line);
    if (e && e->state == L1State::S) {
        // Table I, S->W case 1: a current sharer moves to W.
        traceState(line, L1State::S, L1State::W, "BrWirUpgr");
        e->state = L1State::W;
        e->updateCount = 0;
    }
    if (step == L1Step::SatisfyUpgrade) {
        // Table I, S->W case 2: our sharer-upgrade GetX raced the
        // transition; the directory discards it. Satisfy the write
        // through the wireless path instead.
        e->locked = false; // upgrade pin no longer needed
        auto it = txns_.find(line);
        Txn txn = std::move(it->second);
        txns_.erase(it);
        traceMshr(sim::TraceKind::MshrRetire, line,
                  msgTypeName(txn.request), "BrWirUpgr");
        tone->drop();
        completeOps(std::move(txn.ops)); // re-executes as W ops
        return;
    }
    // Case (i) for everyone else: nothing to do.
    tone->drop();
}

void
L1Controller::dropToneIfHeld(Txn &txn)
{
    if (!txn.toneHeld)
        return;
    txn.toneHeld = false;
    auto *tone = fabric_.toneChannel();
    WIDIR_ASSERT(tone, "tone held without a tone channel");
    tone->drop();
}

void
L1Controller::handleWirDwgr(const wireless::Frame &frame)
{
    L1Frame *e = array_.lookup(frame.lineAddr);
    if (!e || e->state != L1State::W)
        return;
    // Table I, W->S: acknowledge with our core id over the wired
    // network and downgrade. A queued wireless write is squashed
    // (Squash step) and re-issues after the downgrade, so it takes the
    // wired upgrade path as a plain S sharer.
    traceState(frame.lineAddr, L1State::W, L1State::S, "WirDwgr");
    e->state = L1State::S;
    e->updateCount = 0;
    Msg ack;
    ack.type = MsgType::WirDwgrAck;
    ack.dst = frame.src;
    ack.line = frame.lineAddr;
    send(ack);
}

void
L1Controller::handleWirInv(const wireless::Frame &frame)
{
    L1Frame *e = array_.lookup(frame.lineAddr);
    if (!e || e->state != L1State::W)
        return;
    // Table I, W->I: invalidate. A pending write is squashed (Squash
    // step) and retried through the wired network (it will
    // re-allocate the directory entry).
    traceState(frame.lineAddr, L1State::W, L1State::I, "WirInv");
    array_.invalidate(e);
}

} // namespace widir::coherence
