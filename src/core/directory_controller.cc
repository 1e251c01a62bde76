#include "core/directory_controller.h"

#include "mem/address.h"
#include "sim/log.h"

namespace widir::coherence {

using mem::lineAlign;
using sim::Addr;
using sim::NodeId;
using sim::Tick;

DirectoryController::DirectoryController(CoherenceFabric &fabric,
                                         sim::NodeId node,
                                         const LlcConfig &llc_cfg)
    : fabric_(fabric), node_(node),
      llc_(llc_cfg.sizeBytes, llc_cfg.assoc, fabric.numNodes())
{
    WIDIR_ASSERT(fabric.config().dirPointers <= SharerPtrs::kCapacity,
                 "dirPointers exceeds the inline sharer-pointer width");
}

const DirEntry *
DirectoryController::entryOf(Addr line) const
{
    return llc_.lookup(line);
}

DirEntry &
DirectoryController::mutableEntryForTest(Addr line)
{
    LlcFrame *e = llc_.lookup(line);
    WIDIR_ASSERT(e, "line %#llx is not in the LLC",
                 static_cast<unsigned long long>(lineAlign(line)));
    return *e;
}

DirState
DirectoryController::stateOf(Addr line) const
{
    const DirEntry *e = entryOf(line);
    return e ? e->state : DirState::I;
}

bool
DirectoryController::busy(Addr line) const
{
    return txns_.count(lineAlign(line)) > 0;
}

LlcFrame &
DirectoryController::entryAt(Addr line)
{
    LlcFrame *e = llc_.lookup(line);
    WIDIR_ASSERT(e, "transaction without dir entry");
    return *e;
}

DirectoryController::DirTxn *
DirectoryController::txnOf(Addr line)
{
    auto it = txns_.find(lineAlign(line));
    return it == txns_.end() ? nullptr : &it->second;
}

void
DirectoryController::describeOutstanding(std::string &out) const
{
    for (auto it = txns_.begin(); it != txns_.end(); ++it) {
        const DirTxn &t = it->second;
        out += sim::strfmt(
            "  dir %u: line %#llx %s requester %d acksExpected %u "
            "acksReceived %u ackIds {",
            node_, static_cast<unsigned long long>(t.line),
            dirTxnTypeName(t.type),
            t.requester == sim::kNodeNone ? -1
                                          : static_cast<int>(t.requester),
            t.acksExpected, t.acksReceived);
        for (std::size_t i = 0; i < t.ackIds.size(); ++i)
            out += sim::strfmt(i ? ",%u" : "%u", t.ackIds.begin()[i]);
        out += "}\n";
    }
}

void
DirectoryController::traceState(Addr line, DirState from, DirState to,
                                const char *why, std::uint64_t arg)
{
    sim::Tracer &tracer = fabric_.simulator().tracer();
    if (!(sim::kTraceCompiled && tracer.enabled()))
        return;
    sim::TraceRecord r;
    r.tick = fabric_.simulator().now();
    r.kind = sim::TraceKind::DirTransition;
    r.comp = sim::TraceComponent::Directory;
    r.node = node_;
    r.line = line;
    r.from = static_cast<std::uint8_t>(from);
    r.to = static_cast<std::uint8_t>(to);
    r.fromName = dirStateName(from);
    r.toName = dirStateName(to);
    r.note = why;
    r.arg = arg;
    tracer.emit(r);
}

DirectoryController::DirTxn &
DirectoryController::beginTxn(TxnType type, Addr line)
{
    auto [it, ok] = txns_.try_emplace(lineAlign(line));
    WIDIR_ASSERT(ok, "directory txn already in flight for the line");
    it->second.type = type;
    it->second.line = lineAlign(line);
    if (LlcFrame *e = llc_.lookup(line))
        e->locked = true;
    sim::Tracer &tracer = fabric_.simulator().tracer();
    if (sim::kTraceCompiled && tracer.enabled()) {
        sim::TraceRecord r;
        r.tick = fabric_.simulator().now();
        r.kind = sim::TraceKind::DirTxnBegin;
        r.comp = sim::TraceComponent::Directory;
        r.node = node_;
        r.line = it->second.line;
        r.op = static_cast<std::uint8_t>(type);
        r.opName = dirTxnTypeName(type);
        tracer.emit(r);
    }
    return it->second;
}

void
DirectoryController::endTxn(Addr line)
{
    auto it = txns_.find(lineAlign(line));
    WIDIR_ASSERT(it != txns_.end(), "ending unknown directory txn");
    if (it->second.jamming) {
        fabric_.dataChannel()->stopJamming(it->second.jamId);
        it->second.jamming = false;
    }
    sim::Tracer &tracer = fabric_.simulator().tracer();
    if (sim::kTraceCompiled && tracer.enabled()) {
        sim::TraceRecord r;
        r.tick = fabric_.simulator().now();
        r.kind = sim::TraceKind::DirTxnEnd;
        r.comp = sim::TraceComponent::Directory;
        r.node = node_;
        r.line = it->second.line;
        r.op = static_cast<std::uint8_t>(it->second.type);
        r.opName = dirTxnTypeName(it->second.type);
        tracer.emit(r);
    }
    txns_.erase(it);
    if (LlcFrame *e = llc_.lookup(line))
        e->locked = false;
}

void
DirectoryController::send(Msg msg, Tick extra_delay)
{
    msg.src = node_;
    fabric_.sendWired(msg, extra_delay);
}

void
DirectoryController::nack(const Msg &msg)
{
    ++stats_.nacksSent;
    Msg resp;
    resp.type = MsgType::Nack;
    resp.dst = msg.src;
    resp.line = msg.line;
    send(resp, fabric_.config().dirProcLatency);
}

// ---------------------------------------------------------------------
// Incoming wired messages
// ---------------------------------------------------------------------

void
DirectoryController::receive(const Msg &msg)
{
    WIDIR_ASSERT(fabric_.homeOf(msg.line) == node_,
                 "message homed at the wrong directory slice");
    ++stats_.dirAccesses;
    DirEvent ev;
    if (!dirEventOf(msg.type, ev))
        sim::panic("directory %u received unexpected %s", node_,
                   msgTypeName(msg.type));
    if (msg.type == MsgType::GetS)
        ++stats_.getS;
    else if (msg.type == MsgType::GetX)
        ++stats_.getX;
    // A PutS that finds the entry in W predates the S->W transition:
    // the census counted the node, so it leaves the group like a PutW.
    if (ev == DirEvent::MsgPutS && stateOf(msg.line) == DirState::W)
        ev = DirEvent::MsgPutW;
    // A transaction in flight decides through the in-transaction table;
    // otherwise the handlers apply Table II to the stable entry.
    if (DirTxn *txn = txnOf(msg.line)) {
        stepTxn(*txn, ev, msg);
        return;
    }
    switch (ev) {
      case DirEvent::MsgGetS:
      case DirEvent::MsgGetX:
        handleRequest(msg);
        return;
      case DirEvent::MsgPutS:
        handlePutS(msg);
        return;
      case DirEvent::MsgPutE:
      case DirEvent::MsgPutM:
        handlePutEM(msg);
        return;
      case DirEvent::MsgPutW:
        handlePutW(msg);
        return;
      case DirEvent::MsgInvAck:
      case DirEvent::MsgOwnerData:
      case DirEvent::MsgWirDwgrAck:
        // A reply that outlived its transaction, such as the owner's
        // InvAck after its own Put ended a RecallEM: a no-op row.
        return;
      case DirEvent::MsgWirUpgrAck:
        sim::panic("directory %u: WirUpgrAck without a WJoin txn",
                   node_);
      case DirEvent::FrameWirUpd:
      case DirEvent::FrameWirInv:
      case DirEvent::LlcEvict:
      case DirEvent::CensusDone:
        break;
    }
    sim::panic("directory %u: %s is not a message event", node_,
               dirEventName(ev));
}

SenderRole
DirectoryController::senderRole(const DirTxn &txn, const Msg &msg) const
{
    if (msg.src == txn.requester)
        return SenderRole::Requester;
    if (txn.ackIds.contains(msg.src))
        return SenderRole::Acked;
    const DirEntry *entry = entryOf(txn.line);
    if (msg.isSharer || (entry && entry->sharers.contains(msg.src)))
        return SenderRole::Sharer;
    return SenderRole::Other;
}

void
DirectoryController::stepTxn(DirTxn &txn, DirEvent ev, const Msg &msg)
{
    const Addr line = txn.line;
    const SenderRole role = senderRole(txn, msg);
    const int row = dirTxnRuleFor(txn.type, ev, role);
    if (row < 0)
        sim::panic("directory %u: no step for %s from %s node %u during "
                   "%s of line %#llx",
                   node_, dirEventName(ev), senderRoleName(role), msg.src,
                   dirTxnTypeName(txn.type),
                   static_cast<unsigned long long>(line));
    ++txnRuleHits_[static_cast<std::size_t>(row)];
    switch (dirTxnRules()[static_cast<std::size_t>(row)].step) {
      case DirStep::Nack:
        nack(msg);
        return;
      case DirStep::AdmitJoiner:
        // Each joiner gets its own WirUpgr and WirUpgrAck, and
        // SharerCount increments commute, so batching them under one
        // transaction (jamming held until the last ack) is safe and
        // avoids serializing a burst of first-time readers.
        admitJoiner(txn, msg.src);
        return;
      case DirStep::Ignore:
        return;
      case DirStep::LeaveCensus:
        // Drop the pointer too: the node no longer shares the line.
        entryAt(line).sharers.remove(msg.src);
        WIDIR_ASSERT(txn.censusSharers > 0, "census underflow");
        --txn.censusSharers;
        return;
      case DirStep::RequesterLeft:
        txn.censusRequesterLeft = true;
        return;
      case DirStep::LeaveGroup: {
        DirEntry &entry = entryAt(line);
        WIDIR_ASSERT(entry.sharerCount > 0, "SharerCount underflow");
        --entry.sharerCount;
        return;
      }
      case DirStep::LeaveDowngrade:
        WIDIR_ASSERT(txn.acksExpected > 0, "ack underflow");
        --txn.acksExpected;
        maybeFinishToShared(line);
        return;
      case DirStep::DropSurvivor:
        txn.ackIds.remove(msg.src);
        return;
      case DirStep::OwnerToShared: {
        absorbData(line, msg);
        LlcFrame &entry = entryAt(line);
        NodeId requester = txn.requester;
        traceState(line, DirState::EM, DirState::S, "FwdGetS",
                   requester);
        entry.state = DirState::S;
        entry.sharers.clear();
        // The old owner keeps an S copy unless it evicted (its PutE or
        // PutM completed the forward instead).
        if (msg.type == MsgType::OwnerData)
            entry.sharers.push_back(entry.owner);
        entry.sharers.push_back(requester);
        entry.owner = sim::kNodeNone;
        endTxn(line);
        grant(requester, line, GrantState::S, entry);
        return;
      }
      case DirStep::OwnerHandOff: {
        absorbData(line, msg);
        LlcFrame &entry = entryAt(line);
        NodeId requester = txn.requester;
        // Owner hand-off: EM->EM with a new owner (arg).
        traceState(line, DirState::EM, DirState::EM, "FwdGetX",
                   requester);
        entry.owner = requester;
        endTxn(line);
        grant(requester, line, GrantState::M, entry);
        return;
      }
      case DirStep::RecallOwner:
        absorbData(line, msg);
        finishRecall(line);
        return;
      case DirStep::CollectUpgradeAck: {
        absorbData(line, msg);
        if (++txn.acksReceived < txn.acksExpected)
            return;
        NodeId requester = txn.requester;
        LlcFrame &entry = entryAt(line);
        traceState(line, DirState::S, DirState::EM, "InvColl",
                   requester);
        entry.state = DirState::EM;
        entry.owner = requester;
        entry.sharers.clear();
        entry.bcast = false;
        endTxn(line);
        grant(requester, line, GrantState::M, entry);
        return;
      }
      case DirStep::CollectRecallAck:
        absorbData(line, msg);
        if (++txn.acksReceived == txn.acksExpected)
            finishRecall(line);
        return;
      case DirStep::CollectJoinAck: {
        DirEntry &entry = entryAt(line);
        ++entry.sharerCount;
        // W->W join: SharerCount grew (arg = new count).
        traceState(line, DirState::W, DirState::W, "join",
                   entry.sharerCount);
        if (++txn.acksReceived < txn.acksExpected)
            return; // more joiners in flight under this transaction
        endTxn(line);
        // PutWs that drained during the join may have left the count
        // at or below the threshold.
        maybeStartToShared(line);
        return;
      }
      case DirStep::CollectDwgrAck:
        txn.ackIds.push_back(msg.src);
        ++txn.acksReceived;
        maybeFinishToShared(line);
        return;
    }
}

void
DirectoryController::absorbData(Addr line, const Msg &msg)
{
    if (!msg.hasData)
        return;
    LlcFrame *e = llc_.lookup(line);
    WIDIR_ASSERT(e, "%s data without LLC entry", msgTypeName(msg.type));
    e->data = msg.data;
    e->dirty = e->dirty || msg.dirtyData;
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

void
DirectoryController::handleRequest(const Msg &msg)
{
    LlcFrame *entry = llc_.lookup(msg.line);
    if (!entry) {
        // LLC miss: fetch from memory (or bounce if the set is stuck
        // behind a recall).
        LlcFrame *room = makeRoom(msg.line);
        if (!room) {
            nack(msg);
            return;
        }
        startFetch(msg);
        return;
    }
    handleCachedRequest(msg, *entry);
}

void
DirectoryController::grant(NodeId dst, Addr line, GrantState state,
                           const LlcFrame &llc_entry)
{
    Msg resp;
    resp.type = MsgType::Data;
    resp.dst = dst;
    resp.line = lineAlign(line);
    resp.grant = state;
    resp.hasData = true;
    resp.data = llc_entry.data;
    send(resp, fabric_.config().llcDataLatency);
}

void
DirectoryController::handleCachedRequest(const Msg &msg, LlcFrame &entry)
{
    const auto &cfg = fabric_.config();
    llc_.touch(&entry, fabric_.simulator().now());

    switch (entry.state) {
      case DirState::I:
        // First reader gets Exclusive, first writer gets Modified.
        traceState(lineAlign(msg.line), DirState::I, DirState::EM,
                   msgTypeName(msg.type), msg.src);
        entry.state = DirState::EM;
        entry.owner = msg.src;
        grant(msg.src, msg.line,
              msg.type == MsgType::GetS ? GrantState::E : GrantState::M,
              entry);
        return;

      case DirState::S: {
        if (msg.type == MsgType::GetS) {
            if (entry.sharers.contains(msg.src)) {
                grant(msg.src, msg.line, GrantState::S, entry);
                return;
            }
            if (cfg.wireless() && !entry.bcast &&
                entry.sharers.size() >= cfg.maxWiredSharers) {
                // Table II, S->W: the new sharer would push the count
                // past MaxWiredSharers. Never from a bcast entry: the
                // census seeds SharerCount from the pointer list, so
                // an imprecise entry would undercount the group and
                // dissolve it too early. (With MaxWiredSharers <=
                // dirPointers the census starts before the pointers
                // can overflow.)
                startToWireless(msg, entry);
                return;
            }
            if (entry.sharers.size() < cfg.dirPointers) {
                entry.sharers.push_back(msg.src);
            } else {
                // Dir_3_B overflow (Baseline): give up precision.
                entry.bcast = true;
            }
            grant(msg.src, msg.line, GrantState::S, entry);
            return;
        }

        // GetX in S: either a WiDir transition or an invalidation
        // collect.
        bool sharer = entry.sharers.contains(msg.src);
        if (cfg.wireless() && !sharer && !entry.bcast &&
            entry.sharers.size() >= cfg.maxWiredSharers) {
            startToWireless(msg, entry);
            return;
        }

        // Invalidation targets: a broadcast burst walks a fixed-width
        // bitset in ascending node order (the order the old heap
        // vector was built in); a precise entry keeps the pointers'
        // insertion order, which is the send order the mesh observes.
        SharerBits bcast_targets;
        std::uint32_t n_targets = 0;
        bool was_bcast = entry.bcast;
        if (was_bcast) {
            // Broadcast invalidation: every node but the requester.
            ++stats_.bcastInvBursts;
            for (NodeId n = 0; n < fabric_.numNodes(); ++n) {
                if (n != msg.src)
                    bcast_targets.set(n);
            }
            n_targets = bcast_targets.count();
        } else {
            for (NodeId n : entry.sharers) {
                if (n != msg.src)
                    ++n_targets;
            }
        }
        if (n_targets == 0) {
            // Requester is the sole sharer: immediate upgrade.
            traceState(lineAlign(msg.line), DirState::S, DirState::EM,
                       "upgrade", msg.src);
            entry.state = DirState::EM;
            entry.owner = msg.src;
            entry.sharers.clear();
            entry.bcast = false;
            grant(msg.src, msg.line, GrantState::M, entry);
            return;
        }
        DirTxn &txn = beginTxn(TxnType::InvColl, msg.line);
        txn.requester = msg.src;
        txn.reqType = msg.type;
        txn.acksExpected = n_targets;
        stats_.invsSent += n_targets;
        auto send_inv = [&](NodeId n) {
            Msg inv;
            inv.type = MsgType::Inv;
            inv.dst = n;
            inv.line = lineAlign(msg.line);
            send(inv, cfg.dirProcLatency);
        };
        if (was_bcast) {
            bcast_targets.forEachSet(send_inv);
        } else {
            for (NodeId n : entry.sharers) {
                if (n != msg.src)
                    send_inv(n);
            }
        }
        entry.sharers.clear();
        entry.bcast = false;
        return;
      }

      case DirState::EM: {
        if (entry.owner == msg.src) {
            // The owner cannot want a line it still holds: its
            // PutE/PutM is in flight and this (smaller, faster)
            // request packet overtook the data-carrying writeback in
            // the mesh. Bounce it; the retry lands after the Put has
            // settled the entry back to I.
            nack(msg);
            return;
        }
        ++stats_.fwds;
        DirTxn &txn = beginTxn(msg.type == MsgType::GetS
                                   ? TxnType::FwdS
                                   : TxnType::FwdX,
                               msg.line);
        txn.requester = msg.src;
        txn.reqType = msg.type;
        Msg fwd;
        fwd.type = msg.type == MsgType::GetS ? MsgType::FwdGetS
                                             : MsgType::FwdGetX;
        fwd.dst = entry.owner;
        fwd.line = lineAlign(msg.line);
        fwd.requester = msg.src;
        send(fwd, cfg.dirProcLatency);
        return;
      }

      case DirState::W:
        if (msg.type == MsgType::GetX && msg.isSharer) {
            // Table II, W->W case 2: stale sharer upgrade; discard.
            return;
        }
        // Table II, W->W case 1: wired join of the wireless group.
        startWJoin(msg);
        return;
    }
}

void
DirectoryController::startFetch(const Msg &msg)
{
    DirTxn &txn = beginTxn(TxnType::Fetch, msg.line);
    txn.requester = msg.src;
    txn.reqType = msg.type;
    ++stats_.memFetches;
    Addr line = lineAlign(msg.line);
    fabric_.memory().readLine(line,
                              [this, line](const mem::LineData &data) {
        DirTxn *txn = txnOf(line);
        WIDIR_ASSERT(txn && txn->type == TxnType::Fetch,
                     "memory fill without fetch txn");
        NodeId requester = txn->requester;
        MsgType req_type = txn->reqType;
        endTxn(line);

        LlcFrame *frame = makeRoom(line);
        if (!frame) {
            // The set filled up while we were fetching (recalls in
            // flight). Bounce; the retry will find the set drained.
            Msg fake;
            fake.src = requester;
            fake.line = line;
            nack(fake);
            return;
        }
        llc_.fill(frame, line, data);
        traceState(line, DirState::I, DirState::EM, "fetch", requester);
        frame->state = DirState::EM;
        frame->owner = requester;
        grant(requester, line,
              req_type == MsgType::GetS ? GrantState::E
                                        : GrantState::M,
              *frame);
    });
}

// ---------------------------------------------------------------------
// Eviction notifications
// ---------------------------------------------------------------------

void
DirectoryController::handlePutS(const Msg &msg)
{
    Addr line = lineAlign(msg.line);
    DirEntry *entry = llc_.lookup(line);
    if (!entry)
        return;
    // Drop the evicting node's pointer: a stale one would inflate a
    // later S->W census snapshot (the protocol relies on the "always
    // inform the directory" rule for exact counts, Section III-B).
    entry->sharers.remove(msg.src);
    // In I or EM the notice is one of Table II's no-op rows.
    if (entry->state == DirState::S && entry->sharers.empty() &&
        !entry->bcast) {
        traceState(line, DirState::S, DirState::I, "PutS");
        entry->state = DirState::I;
    }
}

void
DirectoryController::handlePutEM(const Msg &msg)
{
    Addr line = lineAlign(msg.line);
    DirEntry *entry = llc_.lookup(line);
    if (!entry || entry->state != DirState::EM || entry->owner != msg.src)
        return; // not from the owner: one of Table II's no-op rows
    absorbData(line, msg);
    traceState(line, DirState::EM, DirState::I, msgTypeName(msg.type),
               msg.src);
    entry->state = DirState::I;
    entry->owner = sim::kNodeNone;
}

void
DirectoryController::handlePutW(const Msg &msg)
{
    Addr line = lineAlign(msg.line);
    DirEntry *entry = llc_.lookup(line);
    if (!entry || entry->state != DirState::W)
        return; // the group is gone (e.g. after WirInv): a no-op row
    WIDIR_ASSERT(entry->sharerCount > 0, "SharerCount underflow");
    --entry->sharerCount;
    traceState(line, DirState::W, DirState::W, "PutW",
               entry->sharerCount);
    // Table II, W->S: when the count falls back to MaxWiredSharers,
    // return the line to the wired protocol.
    maybeStartToShared(line);
}

// ---------------------------------------------------------------------
// WiDir transitions (Table II)
// ---------------------------------------------------------------------

void
DirectoryController::startToWireless(const Msg &msg, DirEntry &entry)
{
    ++stats_.toWireless;
    auto *data_channel = fabric_.dataChannel();
    auto *tone = fabric_.toneChannel();
    WIDIR_ASSERT(data_channel && tone,
                 "S->W transition without wireless hardware");

    DirTxn &txn = beginTxn(TxnType::ToWireless, msg.line);
    txn.requester = msg.src;
    txn.reqType = msg.type;
    txn.censusSharers =
        static_cast<std::uint32_t>(entry.sharers.size());

    Addr line = lineAlign(msg.line);
    // Broadcast BrWirUpgr on the data channel. At the commit point:
    // start jamming the line, send WirUpgr + line to the requester
    // over the wired network (Table II, S->W row), and begin the
    // global ToneAck census -- it covers every node, and the wired-OR
    // tone falls silent once all of them (and any overlapping
    // censuses' nodes) resolved (Section III-B1).
    wireless::Frame frame;
    frame.src = node_;
    frame.kind = wireless::FrameKind::BrWirUpgr;
    frame.lineAddr = line;
    fabric_.dataChannel()->transmit(frame, [this, line] {
        DirTxn *txn = txnOf(line);
        WIDIR_ASSERT(txn && txn->type == TxnType::ToWireless,
                     "BrWirUpgr commit without ToWireless txn");
        txn->jamId = fabric_.dataChannel()->startJamming(node_, line);
        txn->jamming = true;

        LlcFrame *e = llc_.lookup(line);
        WIDIR_ASSERT(e, "S->W without LLC entry");
        Msg upg;
        upg.type = MsgType::WirUpgr;
        upg.dst = txn->requester;
        upg.line = line;
        upg.needsAck = false; // census covers the requester
        upg.hasData = true;
        upg.data = e->data;
        send(upg);

        fabric_.toneChannel()->beginCensus(
            fabric_.numNodes(),
            [this, line] { finishToWireless(line); });
        });
}

void
DirectoryController::finishToWireless(Addr line)
{
    DirTxn *txn = txnOf(line);
    WIDIR_ASSERT(txn && txn->type == TxnType::ToWireless,
                 "finishing unknown S->W transition");
    DirEntry *entry = llc_.lookup(line);
    WIDIR_ASSERT(entry, "S->W without dir entry");
    // Census = surviving pre-transition sharers + the requester
    // (unless the requester already evicted again).
    entry->state = DirState::W;
    entry->sharerCount =
        txn->censusSharers + (txn->censusRequesterLeft ? 0 : 1);
    traceState(line, DirState::S, DirState::W, "census",
               entry->sharerCount);
    entry->sharers.clear();
    entry->bcast = false;
    entry->owner = sim::kNodeNone;
    endTxn(line); // also stops jamming
    // Self-invalidations during the census may already have drained
    // the group.
    maybeStartToShared(line);
}

void
DirectoryController::admitJoiner(DirTxn &txn, sim::NodeId requester)
{
    // Table II, W->W case 1: jam updates to the line so the copy we
    // ship stays coherent, send WirUpgr + line over the wired network,
    // and bump SharerCount when the ack returns.
    //
    // The line is read out of the LLC *after* the data-array latency:
    // jamming stops new wireless updates immediately, but a WirUpd
    // that had already committed when the join arrived is still in
    // flight and lands in the LLC a few cycles later -- reading early
    // would ship the joiner a stale copy.
    ++stats_.wJoins;
    ++txn.acksExpected;
    Addr line = txn.line;
    fabric_.simulator().scheduleInline(
        fabric_.config().llcDataLatency, [this, line, requester] {
            LlcFrame *e = llc_.lookup(line);
            WIDIR_ASSERT(e, "W join without LLC entry");
            Msg upg;
            upg.type = MsgType::WirUpgr;
            upg.dst = requester;
            upg.line = line;
            upg.needsAck = true;
            upg.hasData = true;
            upg.data = e->data;
            send(upg);
        });
}

void
DirectoryController::startWJoin(const Msg &msg)
{
    DirTxn &txn = beginTxn(TxnType::WJoin, msg.line);
    txn.requester = msg.src;
    txn.reqType = msg.type;
    txn.jamId = fabric_.dataChannel()->startJamming(node_,
                                                    lineAlign(msg.line));
    txn.jamming = true;
    admitJoiner(txn, msg.src);
}

void
DirectoryController::maybeStartToShared(Addr line)
{
    const DirEntry *entry = entryOf(line);
    if (!entry || entry->state != DirState::W)
        return;
    if (txnOf(line))
        return;
    if (entry->sharerCount > fabric_.config().maxWiredSharers)
        return;
    startToShared(line);
}

void
DirectoryController::startToShared(Addr line)
{
    ++stats_.toShared;
    const DirEntry *entry = entryOf(line);
    WIDIR_ASSERT(entry && entry->state == DirState::W,
                 "W->S on a non-W line");
    DirTxn &txn = beginTxn(TxnType::ToShared, line);
    txn.acksExpected = entry->sharerCount;
    wireless::Frame frame;
    frame.src = node_;
    frame.kind = wireless::FrameKind::WirDwgr;
    frame.lineAddr = line;
    txn.frameToken = fabric_.dataChannel()->transmit(frame, nullptr);
    if (txn.acksExpected == 0) {
        // Every sharer already self-invalidated; nothing will ack.
        maybeFinishToShared(line);
    }
}

void
DirectoryController::maybeFinishToShared(Addr line)
{
    DirTxn *txn = txnOf(line);
    WIDIR_ASSERT(txn && txn->type == TxnType::ToShared,
                 "completing unknown W->S transition");
    if (txn->acksReceived < txn->acksExpected)
        return;
    if (!txn->frameResolved) {
        // Every expected ack is in (or racing PutWs drained the count
        // to zero) but the WirDwgr broadcast is still inside the MAC.
        // Withdraw it if it has not committed; otherwise hold the
        // transaction open until our own delivery resolves it --
        // completing now would orphan a chip-wide downgrade that could
        // land in the middle of this line's next wireless epoch.
        if (fabric_.dataChannel()->cancelPending(txn->frameToken)) {
            txn->frameResolved = true;
            finishToShared(line);
        }
        return; // otherwise handleFrame(WirDwgr) finishes
    }
    finishToShared(line);
}

void
DirectoryController::finishToShared(Addr line)
{
    DirTxn *txn = txnOf(line);
    WIDIR_ASSERT(txn && txn->type == TxnType::ToShared,
                 "finishing unknown W->S transition");
    LlcFrame *e = llc_.lookup(line);
    WIDIR_ASSERT(e, "W->S without dir entry");
    e->sharers = txn->ackIds;
    e->sharerCount = 0;
    e->owner = sim::kNodeNone;
    e->bcast = false;
    if (e->sharers.empty()) {
        traceState(line, DirState::W, DirState::I, "WirDwgr");
        e->state = DirState::I;
    } else {
        traceState(line, DirState::W, DirState::S, "WirDwgr",
                   e->sharers.size());
        e->state = DirState::S;
    }
    // Table II, W->S row: a dirty LLC copy is written to memory.
    writebackIfDirty(e);
    endTxn(line);
}

// ---------------------------------------------------------------------
// Wireless frames observed at the home slice
// ---------------------------------------------------------------------

void
DirectoryController::receiveFrame(const wireless::Frame &frame)
{
    if (fabric_.homeOf(frame.lineAddr) != node_)
        return;
    Addr line = lineAlign(frame.lineAddr);
    switch (frame.kind) {
      case wireless::FrameKind::WirUpd: {
        LlcFrame *e = llc_.lookup(line);
        if (!e || e->state != DirState::W)
            return;
        // Keep the LLC copy current so wired joins ship fresh data.
        // (The paper's Table II says SharerCount++ here; we treat that
        // as an erratum -- see DESIGN.md -- and leave the count to the
        // exact WirUpgrAck/PutW flows.)
        e->data.setWord(frame.wordAddr, frame.value);
        e->dirty = true;
        ++stats_.updatesObserved;
        // Fig. 5: how many other caches this write updated.
        WIDIR_ASSERT(e->sharerCount > 0,
                     "update on an empty wireless group");
        sharersUpdated_.sample(e->sharerCount - 1);
        return;
      }
      case wireless::FrameKind::WirInv: {
        // Our own W->I eviction completed its broadcast.
        DirTxn *txn = txnOf(line);
        if (txn && txn->type == TxnType::RecallW)
            finishRecall(line);
        return;
      }
      case wireless::FrameKind::WirDwgr: {
        // Our own downgrade broadcast is on the air no longer; the
        // transition completes once the WirDwgrAcks are in -- which
        // may already be the case if racing PutWs drained the count.
        DirTxn *txn = txnOf(line);
        if (txn && txn->type == TxnType::ToShared) {
            txn->frameResolved = true;
            maybeFinishToShared(line);
        }
        return;
      }
      case wireless::FrameKind::BrWirUpgr:
        // Our own census broadcast: it completes through the tone
        // callback, not through this delivery.
        return;
    }
}

// ---------------------------------------------------------------------
// LLC management
// ---------------------------------------------------------------------

void
DirectoryController::writebackIfDirty(LlcFrame *e)
{
    if (!e->dirty)
        return;
    ++stats_.memWritebacks;
    fabric_.memory().writeLine(e->line, e->data);
    e->dirty = false;
}

LlcFrame *
DirectoryController::makeRoom(Addr line)
{
    if (LlcFrame *hit = llc_.lookup(line))
        return hit;
    LlcFrame *victim = llc_.pickVictim(line);
    if (!victim)
        return nullptr; // set fully locked by in-flight transactions
    if (!victim->valid)
        return victim;
    if (victim->state == DirState::I) {
        // No cached copies: silent replacement (write back if dirty).
        writebackIfDirty(victim);
        llc_.invalidate(victim);
        return victim;
    }
    // Cached copies exist: recall them first; the requester bounces.
    startRecall(victim);
    return nullptr;
}

void
DirectoryController::startRecall(LlcFrame *victim)
{
    ++stats_.llcRecalls;
    WIDIR_ASSERT(victim->valid, "recall without dir entry");
    Addr line = victim->line;
    const DirEntry &entry = *victim;
    const auto &cfg = fabric_.config();

    switch (entry.state) {
      case DirState::EM: {
        DirTxn &txn = beginTxn(TxnType::RecallEM, line);
        txn.acksExpected = 1;
        Msg inv;
        inv.type = MsgType::Inv;
        inv.dst = entry.owner;
        inv.line = line;
        inv.needData = true;
        send(inv, cfg.dirProcLatency);
        return;
      }
      case DirState::S: {
        DirTxn &txn = beginTxn(TxnType::RecallS, line);
        // Imprecise entries recall with a full ascending broadcast
        // (bitset walk); precise ones walk the pointer list in
        // insertion order, exactly as the old target vector did.
        auto send_inv = [&](NodeId n) {
            Msg inv;
            inv.type = MsgType::Inv;
            inv.dst = n;
            inv.line = line;
            send(inv, cfg.dirProcLatency);
        };
        if (entry.bcast) {
            SharerBits targets;
            for (NodeId n = 0; n < fabric_.numNodes(); ++n)
                targets.set(n);
            txn.acksExpected = targets.count();
            stats_.invsSent += txn.acksExpected;
            targets.forEachSet(send_inv);
        } else {
            txn.acksExpected = entry.sharers.size();
            stats_.invsSent += txn.acksExpected;
            for (NodeId n : entry.sharers)
                send_inv(n);
        }
        if (txn.acksExpected == 0)
            finishRecall(line);
        return;
      }
      case DirState::W: {
        // Table II, W->I: broadcast WirInv; no acknowledgments are
        // needed (reliable wireless broadcast); completion is the
        // frame's own delivery, observed in receiveFrame.
        ++stats_.wirInvs;
        beginTxn(TxnType::RecallW, line);
        wireless::Frame frame;
        frame.src = node_;
        frame.kind = wireless::FrameKind::WirInv;
        frame.lineAddr = line;
        fabric_.dataChannel()->transmit(frame, nullptr);
        return;
      }
      case DirState::I:
        sim::panic("recall of an idle line");
    }
}

void
DirectoryController::finishRecall(Addr line)
{
    LlcFrame *e = llc_.lookup(line);
    WIDIR_ASSERT(e, "recall without LLC entry");
    writebackIfDirty(e);
    traceState(line, e->state, DirState::I, "recall");
    endTxn(line);
    llc_.invalidate(e);
}

} // namespace widir::coherence
