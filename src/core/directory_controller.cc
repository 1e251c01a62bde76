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

sim::TraceRecord
DirectoryController::record(sim::TraceKind kind, Addr line) const
{
    sim::TraceRecord r;
    r.tick = fabric_.simulator().now();
    r.kind = kind;
    r.comp = sim::TraceComponent::Directory;
    r.node = node_;
    r.line = line;
    return r;
}

void
DirectoryController::traceState(Addr line, DirState from, DirState to,
                                const char *why, std::uint64_t arg)
{
    sim::Tracer &tracer = fabric_.simulator().tracer();
    if (!(sim::kTraceCompiled && tracer.enabled()))
        return;
    sim::TraceRecord r = record(sim::TraceKind::DirTransition, line);
    r.from = static_cast<std::uint8_t>(from);
    r.to = static_cast<std::uint8_t>(to);
    r.fromName = dirStateName(from);
    r.toName = dirStateName(to);
    r.note = why;
    r.arg = arg;
    tracer.emit(r);
}

void
DirectoryController::traceTxn(sim::TraceKind kind, const DirTxn &txn)
{
    sim::Tracer &tracer = fabric_.simulator().tracer();
    if (!(sim::kTraceCompiled && tracer.enabled()))
        return;
    sim::TraceRecord r = record(kind, txn.line);
    r.op = static_cast<std::uint8_t>(txn.type);
    r.opName = dirTxnTypeName(txn.type);
    tracer.emit(r);
}

DirectoryController::DirTxn &
DirectoryController::beginTxn(TxnType type, Addr line, LlcFrame *frame)
{
    auto [it, ok] = txns_.try_emplace(lineAlign(line));
    WIDIR_ASSERT(ok, "directory txn already in flight for the line");
    it->second.type = type;
    it->second.line = lineAlign(line);
    if (frame)
        frame->locked = true;
    traceTxn(sim::TraceKind::DirTxnBegin, it->second);
    return it->second;
}

void
DirectoryController::endTxn(Addr line, LlcFrame *frame)
{
    auto it = txns_.find(lineAlign(line));
    WIDIR_ASSERT(it != txns_.end(), "ending unknown directory txn");
    if (it->second.jamming) {
        fabric_.dataChannel()->stopJamming(it->second.jamId);
        it->second.jamming = false;
    }
    traceTxn(sim::TraceKind::DirTxnEnd, it->second);
    txns_.erase(it);
    if (frame)
        frame->locked = false;
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
// Dispatch: every event picks one row, and runStep runs its step
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
    // The line's one LLC lookup: the rewrite below, the guards and the
    // step all work on this frame (null when the line is not resident).
    LlcFrame *frame = llc_.lookup(msg.line);
    // A PutS that finds the entry in W predates the S->W transition:
    // the census counted the node, so it leaves the group like a PutW.
    if (ev == DirEvent::MsgPutS && frame && frame->state == DirState::W)
        ev = DirEvent::MsgPutW;
    if (DirTxn *txn = txnOf(msg.line)) {
        stepTxn(*txn, ev, msg, frame);
        return;
    }
    // A request for a resident line refreshes its LRU stamp.
    if (frame && (ev == DirEvent::MsgGetS || ev == DirEvent::MsgGetX))
        llc_.touch(frame, fabric_.simulator().now());
    const DirState state = frame ? frame->state : DirState::I;
    const DirGuards guards = guardsOf(msg, frame);
    const int row = dirRuleFor(state, ev, guards);
    if (row < 0)
        sim::panic("directory %u: no Table II row for %s in %s with "
                   "{%s} from node %u, line %#llx",
                   node_, dirEventName(ev), dirStateName(state),
                   dirGuardText({0xff, guards}).c_str(), msg.src,
                   static_cast<unsigned long long>(lineAlign(msg.line)));
    ++stableRuleHits_[static_cast<std::size_t>(row)];
    const DirRule &rule = dirRules()[static_cast<std::size_t>(row)];
    runStep(rule.step, msg, frame, nullptr, &rule);
}

DirGuards
DirectoryController::guardsOf(const Msg &msg, const LlcFrame *frame) const
{
    DirGuards g = msg.isSharer ? guardBit(DirGuard::IsSharer) : 0;
    if (!frame)
        return g;
    const auto &cfg = fabric_.config();
    const std::uint32_t ptrs = frame->sharers.size();
    // A broadcast entry may name any node, so it always has another
    // invalidation target.
    bool sharer = false, others = frame->bcast;
    for (NodeId n : frame->sharers) {
        if (n == msg.src)
            sharer = true;
        else
            others = true;
    }
    g |= guardBit(DirGuard::InLlc);
    if (sharer)
        g |= guardBit(DirGuard::Sharer);
    if (frame->bcast)
        g |= guardBit(DirGuard::Bcast);
    if (cfg.wireless() && ptrs >= cfg.maxWiredSharers)
        g |= guardBit(DirGuard::Crowded);
    if (ptrs >= cfg.dirPointers)
        g |= guardBit(DirGuard::PtrsFull);
    if (!others)
        g |= guardBit(DirGuard::Alone);
    if (frame->owner == msg.src)
        g |= guardBit(DirGuard::Owner);
    return g;
}

SenderRole
DirectoryController::senderRole(const DirTxn &txn, const Msg &msg,
                                const LlcFrame *frame) const
{
    if (msg.src == txn.requester)
        return SenderRole::Requester;
    if (txn.ackIds.contains(msg.src))
        return SenderRole::Acked;
    if (msg.isSharer || (frame && frame->sharers.contains(msg.src)))
        return SenderRole::Sharer;
    return SenderRole::Other;
}

void
DirectoryController::stepTxn(DirTxn &txn, DirEvent ev, const Msg &msg,
                             LlcFrame *frame)
{
    const SenderRole role = senderRole(txn, msg, frame);
    const int row = dirTxnRuleFor(txn.type, ev, role);
    if (row < 0)
        sim::panic("directory %u: no step for %s from %s node %u during "
                   "%s of line %#llx",
                   node_, dirEventName(ev), senderRoleName(role), msg.src,
                   dirTxnTypeName(txn.type),
                   static_cast<unsigned long long>(txn.line));
    ++txnRuleHits_[static_cast<std::size_t>(row)];
    runStep(dirTxnRules()[static_cast<std::size_t>(row)].step, msg, frame,
            &txn, nullptr);
}

void
DirectoryController::ownEvent(DirEvent ev, Addr line, LlcFrame *frame,
                              const mem::LineData *data)
{
    DirTxn *txn = txnOf(line);
    if (!txn)
        sim::panic("directory %u: %s for line %#llx with no transaction "
                   "open",
                   node_, dirEventName(ev),
                   static_cast<unsigned long long>(line));
    Msg own;
    own.src = node_;
    own.line = line;
    if (data) {
        own.hasData = true;
        own.data = *data;
    }
    stepTxn(*txn, ev, own, frame);
}

void
DirectoryController::enter(LlcFrame &frame, const DirRule &rule,
                           Addr line, std::uint64_t arg)
{
    if (rule.note)
        traceState(line, rule.from, rule.to, rule.note, arg);
    frame.state = rule.to;
}

void
DirectoryController::runStep(DirStep step, const Msg &msg, LlcFrame *frame,
                             DirTxn *txn, const DirRule *rule)
{
    const auto &cfg = fabric_.config();
    const Addr line = txn ? txn->line : lineAlign(msg.line);
    switch (step) {
      // -- Table II: no transaction open ---------------------------------
      case DirStep::GrantExclusive:
        enter(*frame, *rule, line, msg.src);
        frame->owner = msg.src;
        grant(msg.src, line,
              msg.type == MsgType::GetS ? GrantState::E : GrantState::M,
              *frame);
        return;
      case DirStep::AddSharer:
        frame->sharers.push_back(msg.src);
        grant(msg.src, line, GrantState::S, *frame);
        return;
      case DirStep::SetBroadcast:
        // Dir_3_B overflow (Baseline): give up precision.
        frame->bcast = true;
        grant(msg.src, line, GrantState::S, *frame);
        return;
      case DirStep::StartCensus:
        startToWireless(msg, *frame);
        return;
      case DirStep::Upgrade:
        enter(*frame, *rule, line, msg.src);
        frame->owner = msg.src;
        frame->sharers.clear();
        frame->bcast = false;
        grant(msg.src, line, GrantState::M, *frame);
        return;
      case DirStep::InvalidateSharers: {
        if (frame->bcast)
            ++stats_.bcastInvBursts;
        DirTxn &coll = beginTxn(TxnType::InvColl, line, frame);
        coll.requester = msg.src;
        coll.reqType = msg.type;
        coll.acksExpected = sendInvs(*frame, msg.src);
        frame->sharers.clear();
        frame->bcast = false;
        return;
      }
      case DirStep::Forward: {
        ++stats_.fwds;
        const bool gets = msg.type == MsgType::GetS;
        DirTxn &fwd_txn =
            beginTxn(gets ? TxnType::FwdS : TxnType::FwdX, line, frame);
        fwd_txn.requester = msg.src;
        fwd_txn.reqType = msg.type;
        Msg fwd;
        fwd.type = gets ? MsgType::FwdGetS : MsgType::FwdGetX;
        fwd.dst = frame->owner;
        fwd.line = line;
        fwd.requester = msg.src;
        send(fwd, cfg.dirProcLatency);
        return;
      }
      case DirStep::FetchFromMemory:
        // Bounce when the set is stuck behind a recall.
        if (!makeRoom(line)) {
            nack(msg);
            return;
        }
        {
            DirTxn &fetch = beginTxn(TxnType::Fetch, line, nullptr);
            fetch.requester = msg.src;
            fetch.reqType = msg.type;
        }
        ++stats_.memFetches;
        fabric_.memory().readLine(line,
                                  [this, line](const mem::LineData &data) {
            ownEvent(DirEvent::MemData, line, nullptr, &data);
        });
        return;
      case DirStep::JoinWireless: {
        DirTxn &join = beginTxn(TxnType::WJoin, line, frame);
        join.requester = msg.src;
        join.reqType = msg.type;
        join.jamId = fabric_.dataChannel()->startJamming(node_, line);
        join.jamming = true;
        admitJoiner(join, msg.src);
        return;
      }
      case DirStep::DropPointer:
        // A stale pointer would inflate a later S->W census snapshot
        // (the protocol relies on the "always inform the directory"
        // rule for exact counts, Section III-B).
        frame->sharers.remove(msg.src);
        enter(*frame, *rule, line);
        return;
      case DirStep::OwnerPut:
        absorbData(frame, msg);
        enter(*frame, *rule, line, msg.src);
        frame->owner = sim::kNodeNone;
        return;
      case DirStep::ShrinkGroup:
        WIDIR_ASSERT(frame->sharerCount > 0, "SharerCount underflow");
        --frame->sharerCount;
        enter(*frame, *rule, line, frame->sharerCount);
        maybeStartToShared(*frame);
        return;

      // -- either table ---------------------------------------------------
      case DirStep::Nack:
        nack(msg);
        return;
      case DirStep::Ignore:
        return;

      // -- a transaction is open ------------------------------------------
      case DirStep::AdmitJoiner:
        // Each joiner gets its own WirUpgr and WirUpgrAck, and
        // SharerCount increments commute, so batching them under one
        // transaction (jamming held until the last ack) is safe and
        // avoids serializing a burst of first-time readers.
        admitJoiner(*txn, msg.src);
        return;
      case DirStep::LeaveCensus:
        // Drop the pointer too: the node no longer shares the line.
        frame->sharers.remove(msg.src);
        WIDIR_ASSERT(txn->censusSharers > 0, "census underflow");
        --txn->censusSharers;
        return;
      case DirStep::RequesterLeft:
        txn->censusRequesterLeft = true;
        return;
      case DirStep::LeaveGroup:
        WIDIR_ASSERT(frame->sharerCount > 0, "SharerCount underflow");
        --frame->sharerCount;
        return;
      case DirStep::LeaveDowngrade:
        WIDIR_ASSERT(txn->acksExpected > 0, "ack underflow");
        --txn->acksExpected;
        maybeFinishToShared(*txn, *frame);
        return;
      case DirStep::DropSurvivor:
        txn->ackIds.remove(msg.src);
        return;
      case DirStep::OwnerToShared: {
        absorbData(frame, msg);
        const NodeId requester = txn->requester;
        traceState(line, DirState::EM, DirState::S, "FwdGetS",
                   requester);
        frame->state = DirState::S;
        frame->sharers.clear();
        // The old owner keeps an S copy unless it evicted (its PutE or
        // PutM completed the forward instead).
        if (msg.type == MsgType::OwnerData)
            frame->sharers.push_back(frame->owner);
        frame->sharers.push_back(requester);
        frame->owner = sim::kNodeNone;
        endAndGrant(*frame, requester, GrantState::S);
        return;
      }
      case DirStep::OwnerHandOff:
        absorbData(frame, msg);
        // Owner hand-off: EM->EM with a new owner (arg).
        traceState(line, DirState::EM, DirState::EM, "FwdGetX",
                   txn->requester);
        frame->owner = txn->requester;
        endAndGrant(*frame, txn->requester, GrantState::M);
        return;
      case DirStep::FinishRecall:
        absorbData(frame, msg);
        finishRecall(*frame);
        return;
      case DirStep::CollectUpgradeAck:
        absorbData(frame, msg);
        if (++txn->acksReceived < txn->acksExpected)
            return;
        traceState(line, DirState::S, DirState::EM, "InvColl",
                   txn->requester);
        frame->state = DirState::EM;
        frame->owner = txn->requester;
        frame->sharers.clear();
        frame->bcast = false;
        endAndGrant(*frame, txn->requester, GrantState::M);
        return;
      case DirStep::CollectRecallAck:
        absorbData(frame, msg);
        if (++txn->acksReceived == txn->acksExpected)
            finishRecall(*frame);
        return;
      case DirStep::CollectJoinAck:
        ++frame->sharerCount;
        // W->W join: SharerCount grew (arg = new count).
        traceState(line, DirState::W, DirState::W, "join",
                   frame->sharerCount);
        if (++txn->acksReceived < txn->acksExpected)
            return; // more joiners in flight under this transaction
        endTxn(line, frame);
        // PutWs that drained during the join may have left the count
        // at or below the threshold.
        maybeStartToShared(*frame);
        return;
      case DirStep::CollectDwgrAck:
        txn->ackIds.push_back(msg.src);
        ++txn->acksReceived;
        maybeFinishToShared(*txn, *frame);
        return;
      case DirStep::FillFromMemory: {
        const NodeId requester = txn->requester;
        const MsgType req_type = txn->reqType;
        endTxn(line, nullptr);
        LlcFrame *fill = makeRoom(line);
        if (!fill) {
            // The set filled up while we were fetching (recalls in
            // flight). Bounce; the retry will find the set drained.
            Msg bounce;
            bounce.src = requester;
            bounce.line = line;
            nack(bounce);
            return;
        }
        llc_.fill(fill, line, msg.data);
        traceState(line, DirState::I, DirState::EM, "fetch", requester);
        fill->state = DirState::EM;
        fill->owner = requester;
        grant(requester, line,
              req_type == MsgType::GetS ? GrantState::E : GrantState::M,
              *fill);
        return;
      }
      case DirStep::CommitCensus:
        // Census = surviving pre-transition sharers + the requester
        // (unless the requester already evicted again).
        frame->state = DirState::W;
        frame->sharerCount =
            txn->censusSharers + (txn->censusRequesterLeft ? 0 : 1);
        traceState(line, DirState::S, DirState::W, "census",
                   frame->sharerCount);
        frame->sharers.clear();
        frame->bcast = false;
        frame->owner = sim::kNodeNone;
        endTxn(line, frame); // also stops jamming
        // Self-invalidations during the census may already have
        // drained the group.
        maybeStartToShared(*frame);
        return;
      case DirStep::DowngradeSent:
        // Our own downgrade broadcast is on the air no longer; the
        // transition completes once the WirDwgrAcks are in -- which
        // may already be the case if racing PutWs drained the count.
        txn->frameResolved = true;
        maybeFinishToShared(*txn, *frame);
        return;
    }
}

std::uint32_t
DirectoryController::sendInvs(const LlcFrame &e, NodeId except)
{
    // A broadcast entry may name any node: it invalidates every node
    // in ascending order. A precise one keeps the pointers' insertion
    // order, which is the send order the mesh observes.
    std::uint32_t sent = 0;
    auto send_inv = [&](NodeId n) {
        if (n == except)
            return;
        Msg inv;
        inv.type = MsgType::Inv;
        inv.dst = n;
        inv.line = e.line;
        send(inv, fabric_.config().dirProcLatency);
        ++sent;
    };
    if (e.bcast) {
        for (NodeId n = 0; n < fabric_.numNodes(); ++n)
            send_inv(n);
    } else {
        for (NodeId n : e.sharers)
            send_inv(n);
    }
    stats_.invsSent += sent;
    return sent;
}

void
DirectoryController::endAndGrant(LlcFrame &frame, NodeId requester,
                                 GrantState state)
{
    endTxn(frame.line, &frame);
    grant(requester, frame.line, state, frame);
}

void
DirectoryController::absorbData(LlcFrame *frame, const Msg &msg)
{
    if (!msg.hasData)
        return;
    WIDIR_ASSERT(frame, "%s data without LLC entry", msgTypeName(msg.type));
    frame->data = msg.data;
    frame->dirty = frame->dirty || msg.dirtyData;
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// WiDir transitions (Table II)
// ---------------------------------------------------------------------

void
DirectoryController::startToWireless(const Msg &msg, LlcFrame &entry)
{
    ++stats_.toWireless;
    auto *data_channel = fabric_.dataChannel();
    auto *tone = fabric_.toneChannel();
    WIDIR_ASSERT(data_channel && tone,
                 "S->W transition without wireless hardware");

    Addr line = lineAlign(msg.line);
    DirTxn &txn = beginTxn(TxnType::ToWireless, line, &entry);
    txn.requester = msg.src;
    txn.reqType = msg.type;
    txn.censusSharers =
        static_cast<std::uint32_t>(entry.sharers.size());

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

        fabric_.toneChannel()->beginCensus(fabric_.numNodes(), [this, line] {
            ownEvent(DirEvent::CensusDone, line, llc_.lookup(line));
        });
        });
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
DirectoryController::maybeStartToShared(LlcFrame &entry)
{
    // Table II, W->S: when the count falls back to MaxWiredSharers,
    // return the line to the wired protocol. Every caller holds a W
    // line with no transaction open.
    if (entry.sharerCount > fabric_.config().maxWiredSharers)
        return;
    ++stats_.toShared;
    DirTxn &txn = beginTxn(TxnType::ToShared, entry.line, &entry);
    txn.acksExpected = entry.sharerCount;
    wireless::Frame frame;
    frame.src = node_;
    frame.kind = wireless::FrameKind::WirDwgr;
    frame.lineAddr = entry.line;
    txn.frameToken = fabric_.dataChannel()->transmit(frame, nullptr);
    if (txn.acksExpected == 0) {
        // Every sharer already self-invalidated; nothing will ack.
        maybeFinishToShared(txn, entry);
    }
}

void
DirectoryController::maybeFinishToShared(DirTxn &txn, LlcFrame &entry)
{
    if (txn.acksReceived < txn.acksExpected)
        return;
    if (!txn.frameResolved) {
        // Every expected ack is in (or racing PutWs drained the count
        // to zero) but the WirDwgr broadcast is still inside the MAC.
        // Withdraw it if it has not committed; otherwise hold the
        // transaction open until our own delivery resolves it --
        // completing now would orphan a chip-wide downgrade that could
        // land in the middle of this line's next wireless epoch.
        if (fabric_.dataChannel()->cancelPending(txn.frameToken)) {
            txn.frameResolved = true;
            finishToShared(txn, entry);
        }
        return; // otherwise the DowngradeSent step finishes
    }
    finishToShared(txn, entry);
}

void
DirectoryController::finishToShared(DirTxn &txn, LlcFrame &e)
{
    const Addr line = txn.line;
    e.sharers = txn.ackIds;
    e.sharerCount = 0;
    e.owner = sim::kNodeNone;
    e.bcast = false;
    if (e.sharers.empty()) {
        traceState(line, DirState::W, DirState::I, "WirDwgr");
        e.state = DirState::I;
    } else {
        traceState(line, DirState::W, DirState::S, "WirDwgr",
                   e.sharers.size());
        e.state = DirState::S;
    }
    // Table II, W->S row: a dirty LLC copy is written to memory.
    writebackIfDirty(&e);
    endTxn(line, &e);
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
      case wireless::FrameKind::WirInv:
        // Our own W->I eviction completed its broadcast.
        ownEvent(DirEvent::FrameWirInv, line, llc_.lookup(line));
        return;
      case wireless::FrameKind::WirDwgr:
        ownEvent(DirEvent::FrameWirDwgr, line, llc_.lookup(line));
        return;
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
        DirTxn &txn = beginTxn(TxnType::RecallEM, line, victim);
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
        DirTxn &txn = beginTxn(TxnType::RecallS, line, victim);
        txn.acksExpected = sendInvs(*victim, sim::kNodeNone);
        if (txn.acksExpected == 0)
            finishRecall(*victim);
        return;
      }
      case DirState::W: {
        // Table II, W->I: broadcast WirInv; no acknowledgments are
        // needed (reliable wireless broadcast); completion is the
        // frame's own delivery (the FrameWirInv row).
        ++stats_.wirInvs;
        beginTxn(TxnType::RecallW, line, victim);
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
DirectoryController::finishRecall(LlcFrame &e)
{
    writebackIfDirty(&e);
    traceState(e.line, e.state, DirState::I, "recall");
    endTxn(e.line, &e);
    llc_.invalidate(&e);
}

} // namespace widir::coherence
