#include "core/l1_controller.h"

#include <algorithm>
#include <memory>

#include "mem/address.h"
#include "sim/log.h"

namespace widir::coherence {

using mem::CacheEntry;
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
        out += sim::strfmt("  L1 %u: line %#llx %s%s%s%s ops %zu "
                           "retries %u\n",
                           node_, static_cast<unsigned long long>(t.line),
                           msgTypeName(t.request),
                           t.isSharerUpgrade ? " (sharer upgrade)" : "",
                           t.toneHeld ? " tone held" : "",
                           t.fillAsW ? " fill as W" : "", t.ops.size(),
                           t.retries);
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
    const CacheEntry *e = array_.lookup(addr);
    return e ? static_cast<L1State>(e->state) : L1State::I;
}

bool
L1Controller::peekWord(Addr addr, std::uint64_t &value) const
{
    const CacheEntry *e = array_.lookup(addr);
    if (!e)
        return false;
    value = e->data.word(addr);
    return true;
}

bool
L1Controller::hasPendingTxn(Addr addr) const
{
    return txns_.count(lineAlign(addr)) > 0 ||
           wirelessTxns_.count(lineAlign(addr)) > 0;
}

// ---------------------------------------------------------------------
// CPU-facing operations
// ---------------------------------------------------------------------

void
L1Controller::read(Addr addr, std::uint64_t token)
{
    WIDIR_ASSERT(mem::wordAligned(addr), "unaligned load");
    ++stats_.loads;
    CacheEntry *e = array_.lookup(addr);
    L1State st = e ? static_cast<L1State>(e->state) : L1State::I;
    L1Action act = l1ActionFor(st, L1Event::CpuLoad);
    if (act == L1Action::Hit) {
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
    WIDIR_ASSERT(act == L1Action::Miss, "bad table action for load");
    PendingOp op;
    op.kind = TxnKind::Read;
    op.token = token;
    op.addr = addr;
    startMiss(op, lineAlign(addr), false);
}

void
L1Controller::write(Addr addr, std::uint64_t value, std::uint64_t token)
{
    WIDIR_ASSERT(mem::wordAligned(addr), "unaligned store");
    ++stats_.stores;
    CacheEntry *e = array_.lookup(addr);
    L1State st = e ? static_cast<L1State>(e->state) : L1State::I;

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

    L1Action act = l1ActionFor(st, L1Event::CpuStore);
    if (act == L1Action::Hit) {
        // Silent E->M upgrade plus local write.
        ++stats_.storeHits;
        if (st == L1State::E)
            traceState(line, L1State::E, L1State::M, "store");
        e->state = static_cast<std::uint8_t>(L1State::M);
        e->dirty = true;
        e->data.setWord(addr, value);
        array_.touch(e, fabric_.simulator().now());
        fabric_.simulator().scheduleInline(
            fabric_.config().l1HitLatency,
            [this, token, value] { complete(token, value); });
    } else if (act == L1Action::Wireless) {
        // Table I, W->W on write: broadcast the word via the WNoC; the
        // local copy merges only once transmission is guaranteed.
        ++stats_.storeHits;
        issueWirelessWrite(op);
    } else if (act == L1Action::Upgrade) {
        // Upgrade: GetX indicating we already share the line.
        startMiss(op, lineAlign(addr), true);
    } else {
        WIDIR_ASSERT(act == L1Action::Miss,
                     "bad table action for store");
        startMiss(op, lineAlign(addr), false);
    }
}

void
L1Controller::rmw(Addr addr,
                  std::function<std::uint64_t(std::uint64_t)> modify,
                  std::uint64_t token)
{
    WIDIR_ASSERT(mem::wordAligned(addr), "unaligned RMW");
    ++stats_.rmws;
    CacheEntry *e = array_.lookup(addr);
    L1State st = e ? static_cast<L1State>(e->state) : L1State::I;

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

    L1Action act = l1ActionFor(st, L1Event::CpuRmw);
    if (act == L1Action::Hit) {
        // Ownership makes the local update atomic.
        std::uint64_t old = e->data.word(addr);
        if (st == L1State::E)
            traceState(line, L1State::E, L1State::M, "rmw");
        e->state = static_cast<std::uint8_t>(L1State::M);
        e->dirty = true;
        e->data.setWord(addr, op.modify(old));
        array_.touch(e, fabric_.simulator().now());
        fabric_.simulator().scheduleInline(
            fabric_.config().l1HitLatency,
            [this, token, old] { complete(token, old); });
    } else if (act == L1Action::Wireless) {
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
    } else if (act == L1Action::Upgrade) {
        startMiss(op, lineAlign(addr), true);
    } else {
        WIDIR_ASSERT(act == L1Action::Miss, "bad table action for RMW");
        startMiss(op, lineAlign(addr), false);
    }
}

// ---------------------------------------------------------------------
// Wired miss path
// ---------------------------------------------------------------------

void
L1Controller::startMiss(const PendingOp &op, Addr line,
                        bool is_sharer_upgrade)
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
    txn.request = (op.kind == TxnKind::Read) ? MsgType::GetS
                                             : MsgType::GetX;
    txn.isSharerUpgrade = is_sharer_upgrade;
    txn.ops.push_back(op);
    // Pin a resident copy (upgrade in flight) against replacement; the
    // fill or invalidation that ends the transaction unpins it.
    if (CacheEntry *e = array_.lookup(line))
        e->locked = true;
    if (op.kind == TxnKind::Read)
        ++stats_.readMisses;
    else
        ++stats_.writeMisses;
    auto [ins, ok] = txns_.try_emplace(line, std::move(txn));
    WIDIR_ASSERT(ok, "duplicate txn");
    traceMshr(sim::TraceKind::MshrAlloc, line,
              msgTypeName(ins->second.request),
              is_sharer_upgrade ? "upgrade" : nullptr);
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
    CacheEntry *e = array_.lookup(txn.line);
    txn.isSharerUpgrade =
        e && static_cast<L1State>(e->state) == L1State::S;
    Msg msg;
    msg.type = txn.request;
    msg.dst = fabric_.homeOf(txn.line);
    msg.line = txn.line;
    msg.isSharer = txn.isSharerUpgrade;
    send(msg);
}

void
L1Controller::retryAfterNack(Addr line)
{
    auto it = txns_.find(line);
    if (it == txns_.end())
        return;
    Txn &txn = it->second;
    ++txn.retries;
    const auto &cfg = fabric_.config();
    // Exponential backoff: long directory transactions (joins,
    // censuses) would otherwise drown the mesh in retry traffic.
    Tick scale = Tick{1} << std::min<std::uint32_t>(txn.retries, 4);
    Tick delay = cfg.nackRetryBase * scale +
                 rng_.below((cfg.nackRetryJitter ? cfg.nackRetryJitter
                                                 : 1) *
                            scale);
    fabric_.simulator().scheduleInline(delay, [this, line] {
        auto it2 = txns_.find(line);
        if (it2 != txns_.end())
            sendRequest(it2->second);
    });
}

// ---------------------------------------------------------------------
// Completion plumbing
// ---------------------------------------------------------------------

void
L1Controller::completeOps(std::vector<PendingOp> ops)
{
    // Re-execute each queued op against the (now filled) cache state.
    // Reads complete immediately; writes/RMWs re-enter the normal path
    // so that e.g. a write that coalesced behind a GetS performs its
    // own upgrade if the fill granted only S.
    for (auto &op : ops) {
        switch (op.kind) {
          case TxnKind::Read: {
            CacheEntry *e = array_.lookup(op.addr);
            if (e && static_cast<L1State>(e->state) != L1State::I) {
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


mem::CacheEntry *
L1Controller::makeRoom(Addr line)
{
    if (CacheEntry *hit = array_.lookup(line))
        return hit;
    CacheEntry *victim = array_.pickVictim(line);
    if (!victim)
        return nullptr;
    if (victim->valid)
        evict(victim);
    return victim;
}

void
L1Controller::evict(CacheEntry *victim)
{
    ++stats_.evictions;
    Msg msg;
    msg.line = victim->line;
    msg.dst = fabric_.homeOf(victim->line);
    switch (static_cast<L1State>(victim->state)) {
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
    traceState(victim->line, static_cast<L1State>(victim->state),
               L1State::I, "evict");
    array_.invalidate(victim);
    send(msg);
}

void
L1Controller::applyFillAs(const Msg &msg, bool force_w,
                          std::function<void()> done)
{
    CacheEntry *frame = makeRoom(msg.line);
    if (!frame) {
        // Every way is pinned (rare: RMW-pinned plus concurrent fill in
        // a 2-way set). Retry the fill shortly, carrying the completion
        // along. The ~100-byte Msg capture takes the event queue's
        // heap-fallback path; this is the cold exception, not the hot
        // fill path.
        Msg copy = msg;
        fabric_.simulator().schedule(
            4, [this, copy, force_w, done = std::move(done)]() mutable {
                applyFillAs(copy, force_w, std::move(done));
            });
        return;
    }
    L1State st = L1State::S;
    if (msg.type == MsgType::WirUpgr || force_w) {
        st = L1State::W;
    } else {
        switch (msg.grant) {
          case GrantState::S: st = L1State::S; break;
          case GrantState::E: st = L1State::E; break;
          case GrantState::M: st = L1State::M; break;
        }
    }
    WIDIR_ASSERT(msg.hasData, "fill without data");
    // The frame still holds the pre-fill copy on an in-place upgrade
    // (same line); a fresh or recycled frame fills from I.
    L1State old = (frame->valid && frame->line == msg.line)
        ? static_cast<L1State>(frame->state)
        : L1State::I;
    array_.fill(frame, msg.line, static_cast<std::uint8_t>(st),
                msg.data);
    if (st == L1State::M)
        frame->dirty = true;
    if (old != st)
        traceState(msg.line, old, st, "fill");
    if (done)
        done();
}

void
L1Controller::finishFill(const Msg &msg)
{
    auto it = txns_.find(msg.line);
    if (it == txns_.end()) {
        // Response for a transaction that BrWirUpgr already satisfied
        // and erased: drop it (the directory also discards the stale
        // request side).
        return;
    }
    Txn txn = std::move(it->second);
    txns_.erase(it);
    traceMshr(sim::TraceKind::MshrRetire, msg.line,
              msgTypeName(txn.request), "fill");
    bool fill_as_w = txn.fillAsW && msg.type == MsgType::Data;
    if (fill_as_w) {
        // The line arrived while we held the census tone: the census
        // counted us, so the copy enters W (case iii of III-B1). Only
        // an S grant can be in flight across an S->W transition.
        WIDIR_ASSERT(msg.grant == GrantState::S,
                     "non-S grant crossed a BrWirUpgr census");
    }
    // The tone, the join ack and the queued ops wait for the fill to
    // actually land (it can be postponed behind a fully pinned set):
    // draining the ops against a still-Invalid line would re-request a
    // grant the directory has already accounted for.
    bool join_ack = msg.type == MsgType::WirUpgr && msg.needsAck;
    NodeId ack_dst = msg.src;
    Addr ack_line = msg.line;
    applyFillAs(msg, fill_as_w,
                [this, join_ack, ack_dst, ack_line,
                 txn = std::move(txn)]() mutable {
        dropToneIfHeld(txn);
        if (join_ack) {
            // Table I, I->W when the directory is already in W: ack
            // the join so the directory can bump SharerCount (Table
            // II, W->W).
            Msg ack;
            ack.type = MsgType::WirUpgrAck;
            ack.dst = ack_dst;
            ack.line = ack_line;
            send(ack);
        }
        completeOps(std::move(txn.ops));
    });
}

// ---------------------------------------------------------------------
// Wireless write / RMW path (Section IV-C)
// ---------------------------------------------------------------------

void
L1Controller::issueWirelessWrite(const PendingOp &op)
{
    Addr line = lineAlign(op.addr);
    auto it = wirelessTxns_.find(line);
    if (it != wirelessTxns_.end()) {
        // A frame for this line is already in flight. Every wireless
        // write is its own WirUpd broadcast (sharers must observe each
        // value), so later same-line ops wait their turn.
        it->second.deferred.push_back(op);
        return;
    }

    CacheEntry *e = array_.lookup(op.addr);
    WIDIR_ASSERT(e && static_cast<L1State>(e->state) == L1State::W,
                 "wireless write on a non-W line");
    // Pin the line: it may not be evicted while its update is queued
    // at the transceiver (and Section IV-C pins RMW lines explicitly).
    e->locked = true;

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
        frame, [this, line] { wirelessCommit(line); },
        [this, line] { wirelessWriteFault(line); });
}

void
L1Controller::wirelessWriteFault(Addr line)
{
    // The channel exhausted the fault-retry budget for our WirUpd
    // (docs/FAULTS.md). The frame never committed, so no sharer saw
    // anything. Degrade gracefully: leave the wireless sharing group
    // exactly like an UpdateCount expiry (PutW to the home, W -> I)
    // and retry the queued ops -- with the line now Invalid they take
    // the wired GetX path.
    auto it = wirelessTxns_.find(line);
    if (it == wirelessTxns_.end())
        return; // a racing WirDwgr/WirInv already squashed us
    ++stats_.wirelessFallbacks;
    sim::Tracer &tracer = fabric_.simulator().tracer();
    if (sim::kTraceCompiled && tracer.enabled()) {
        sim::TraceRecord r;
        r.tick = fabric_.simulator().now();
        r.kind = sim::TraceKind::WirelessFallback;
        r.comp = sim::TraceComponent::L1;
        r.node = node_;
        r.line = line;
        r.opName = "WirUpd";
        tracer.emit(r);
    }
    squashWireless(line, true);
    CacheEntry *e = array_.lookup(line);
    if (e && static_cast<L1State>(e->state) == L1State::W) {
        ++stats_.putWSent;
        Msg put;
        put.type = MsgType::PutW;
        put.dst = fabric_.homeOf(line);
        put.line = line;
        traceState(line, L1State::W, L1State::I, "fault");
        array_.invalidate(e);
        send(put);
    }
}

void
L1Controller::wirelessCommit(Addr line)
{
    auto it = wirelessTxns_.find(line);
    if (it == wirelessTxns_.end())
        return; // squashed between channel grant and commit event
    WirelessTxn wtxn = std::move(it->second);
    wirelessTxns_.erase(it);
    traceMshr(sim::TraceKind::MshrRetire, line, "WirUpd", "commit");

    CacheEntry *e = array_.lookup(line);
    WIDIR_ASSERT(e && static_cast<L1State>(e->state) == L1State::W,
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
        PendingOp next = std::move(wtxn.deferred.front());
        std::vector<PendingOp> rest(
            std::make_move_iterator(wtxn.deferred.begin() + 1),
            std::make_move_iterator(wtxn.deferred.end()));
        issueWirelessWrite(next);
        auto nit = wirelessTxns_.find(line);
        WIDIR_ASSERT(nit != wirelessTxns_.end(),
                     "deferred reissue lost its txn");
        for (auto &d : rest)
            nit->second.deferred.push_back(std::move(d));
    }
    complete(op.token, completion_value);
}

void
L1Controller::squashWireless(Addr line, bool retry_wired)
{
    auto it = wirelessTxns_.find(line);
    if (it == wirelessTxns_.end())
        return;
    WirelessTxn wtxn = std::move(it->second);
    wirelessTxns_.erase(it);
    traceMshr(sim::TraceKind::MshrRetire, line, "WirUpd", "squash");
    fabric_.dataChannel()->cancelPending(wtxn.channelToken);
    ++stats_.wirelessSquashes;

    if (CacheEntry *e = array_.lookup(line))
        e->locked = false;

    WIDIR_ASSERT(retry_wired,
                 "squashed wireless ops must be retried");
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
    fabric_.simulator().scheduleInline(disperse, [this, ops] {
        for (auto &op : *ops) {
            switch (op.kind) {
              case TxnKind::Write:
                --stats_.stores;
                write(op.addr, op.storeValue, op.token);
                break;
              case TxnKind::Rmw:
                --stats_.rmws;
                rmw(op.addr, std::move(op.modify), op.token);
                break;
              case TxnKind::Read:
                sim::panic("read in wireless txn");
            }
        }
    });
}

// ---------------------------------------------------------------------
// Incoming wired messages
// ---------------------------------------------------------------------

void
L1Controller::receive(const Msg &msg)
{
    L1Event ev;
    if (!l1EventOf(msg.type, ev))
        sim::panic("L1 %u received unexpected %s", node_,
                   msgTypeName(msg.type));
    // Select the action from the protocol table. The action is the
    // same in every state for these events (the handlers resolve the
    // per-state outcomes internally), so this lookup is structurally
    // equivalent to the old switch on the message type.
    L1Action act = l1ActionFor(stateOf(msg.line), ev);
    if (act == L1Action::FinishFill) {
        finishFill(msg);
    } else if (act == L1Action::NackRetry) {
        handleNack(msg);
    } else if (act == L1Action::Invalidate) {
        handleInv(msg);
    } else {
        WIDIR_ASSERT(act == L1Action::SupplyOwner,
                     "bad table action for %s", msgTypeName(msg.type));
        handleFwd(msg);
    }
}

void
L1Controller::handleNack(const Msg &msg)
{
    ++stats_.nacksSeen;
    auto it = txns_.find(msg.line);
    if (it == txns_.end())
        return;
    // A bounced response also releases a census tone held for this
    // request (Section III-B1, completion case iii). The census is
    // over for us: a fill delivered to the retried request is a fresh
    // post-census grant and must be installed as granted.
    dropToneIfHeld(it->second);
    it->second.fillAsW = false;
    retryAfterNack(msg.line);
}

void
L1Controller::handleInv(const Msg &msg)
{
    CacheEntry *e = array_.lookup(msg.line);
    Msg ack;
    ack.type = MsgType::InvAck;
    ack.dst = msg.src;
    ack.line = msg.line;
    if (e && static_cast<L1State>(e->state) != L1State::I) {
        if (static_cast<L1State>(e->state) == L1State::W) {
            // Wired-fallback invalidation (docs/FAULTS.md): the home
            // could not get a WirDwgr/WirInv frame onto the faulty
            // channel and broadcast wired Invs instead. Treat it like
            // a WirInv: invalidate, ack without data (the home's LLC
            // slice observes every committed WirUpd, so W data is
            // never lost), and squash-and-retry any pending write.
            traceState(msg.line, L1State::W, L1State::I, "Inv");
            array_.invalidate(e);
            send(ack);
            squashWireless(msg.line, true);
            return;
        }
        if (msg.needData &&
            (static_cast<L1State>(e->state) == L1State::M)) {
            ack.hasData = true;
            ack.data = e->data;
            ack.dirtyData = true;
        }
        traceState(msg.line, static_cast<L1State>(e->state),
                   L1State::I, "Inv");
        array_.invalidate(e);
    }
    send(ack);
}

void
L1Controller::handleFwd(const Msg &msg)
{
    CacheEntry *e = array_.lookup(msg.line);
    if (!e || static_cast<L1State>(e->state) == L1State::I) {
        // We already evicted: our PutE/PutM is in flight and will
        // complete the directory's transaction; drop the forward.
        return;
    }
    L1State st = static_cast<L1State>(e->state);
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
        e->state = static_cast<std::uint8_t>(L1State::S);
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
    // As in receive(): the table action is uniform across states for
    // each frame kind; the handlers keep the per-state behavior.
    L1Action act =
        l1ActionFor(stateOf(frame.lineAddr), l1EventOf(frame.kind));
    if (act == L1Action::ApplyUpdate) {
        handleWirUpd(frame);
    } else if (act == L1Action::CensusJoin) {
        handleBrWirUpgr(frame);
    } else if (act == L1Action::Downgrade) {
        handleWirDwgr(frame);
    } else {
        WIDIR_ASSERT(act == L1Action::WirelessInvalidate,
                     "bad table action for frame");
        handleWirInv(frame);
    }
}

void
L1Controller::handleWirUpd(const wireless::Frame &frame)
{
    if (frame.src == node_)
        return; // own update was merged at commit
    CacheEntry *e = array_.lookup(frame.lineAddr);
    if (!e || static_cast<L1State>(e->state) != L1State::W)
        return;
    // Apply the fine-grain update.
    e->data.setWord(frame.wordAddr, frame.value);
    ++stats_.updatesApplied;

    // A pending local wireless RMW races this update: the paper's
    // hardware monitors for exactly this and retries the RMW with the
    // fresh value (Section IV-C). A pending plain write keeps its queue
    // slot (its value overwrites this one at its own commit).
    auto wit = wirelessTxns_.find(frame.lineAddr);
    if (wit != wirelessTxns_.end() &&
        wit->second.op.kind == TxnKind::Rmw) {
        squashWireless(frame.lineAddr, true);
        e = array_.lookup(frame.lineAddr); // retry path may not refill
    }

    // UpdateCount self-invalidation (Section III-B2): after too many
    // remote updates with no local access, leave the sharing group. A
    // line with local work queued is still "actively shared".
    if (e && wirelessTxns_.count(frame.lineAddr) == 0 && !e->locked) {
        if (++e->updateCount >=
            fabric_.config().updateCountThreshold) {
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
}

void
L1Controller::handleBrWirUpgr(const wireless::Frame &frame)
{
    // Global ToneAck census (Section III-B1). Every node participates;
    // the directory node began the census before this delivery.
    auto *tone = fabric_.toneChannel();
    WIDIR_ASSERT(tone, "BrWirUpgr without a tone channel");
    tone->raise();

    CacheEntry *e = array_.lookup(frame.lineAddr);
    auto tit = txns_.find(frame.lineAddr);

    if (e && static_cast<L1State>(e->state) == L1State::S) {
        // Table I, S->W case 1: a current sharer moves to W.
        traceState(frame.lineAddr, L1State::S, L1State::W, "BrWirUpgr");
        e->state = static_cast<std::uint8_t>(L1State::W);
        e->updateCount = 0;
        if (tit != txns_.end()) {
            // Table I, S->W case 2: our sharer-upgrade GetX raced the
            // transition; the directory discards it. Satisfy the write
            // through the wireless path instead.
            e->locked = false; // upgrade pin no longer needed
            Txn txn = std::move(tit->second);
            txns_.erase(tit);
            traceMshr(sim::TraceKind::MshrRetire, frame.lineAddr,
                      msgTypeName(txn.request), "BrWirUpgr");
            tone->drop();
            completeOps(std::move(txn.ops)); // re-executes as W ops
            return;
        }
        tone->drop();
        return;
    }

    if (tit != txns_.end()) {
        // Completion case (iii): we have a wired request in flight for
        // this line. Hold the tone until the line or a bounce arrives;
        // if the line arrives, it must be installed in W -- the
        // census counted us as a wireless sharer.
        tit->second.toneHeld = true;
        tit->second.fillAsW = true;
        return;
    }
    // Case (i): nothing to do.
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
    CacheEntry *e = array_.lookup(frame.lineAddr);
    if (!e || static_cast<L1State>(e->state) != L1State::W)
        return;
    // Table I, W->S: acknowledge with our core id over the wired
    // network and downgrade. Any queued wireless write re-issues after
    // the downgrade, so it takes the wired upgrade path as a plain S
    // sharer.
    traceState(frame.lineAddr, L1State::W, L1State::S, "WirDwgr");
    e->state = static_cast<std::uint8_t>(L1State::S);
    e->updateCount = 0;
    Msg ack;
    ack.type = MsgType::WirDwgrAck;
    ack.dst = frame.src;
    ack.line = frame.lineAddr;
    send(ack);
    squashWireless(frame.lineAddr, true);
}

void
L1Controller::handleWirInv(const wireless::Frame &frame)
{
    CacheEntry *e = array_.lookup(frame.lineAddr);
    if (!e || static_cast<L1State>(e->state) != L1State::W)
        return;
    // Table I, W->I: invalidate; squash any pending write and retry it
    // through the wired network (it will re-allocate the directory
    // entry).
    traceState(frame.lineAddr, L1State::W, L1State::I, "WirInv");
    array_.invalidate(e);
    squashWireless(frame.lineAddr, true);
}

} // namespace widir::coherence
