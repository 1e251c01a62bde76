#include "core/protocol_table.h"

#include <array>
#include <string>

#include "sim/log.h"

namespace widir::coherence {

// ---------------------------------------------------------------------
// Enum -> string helpers
// ---------------------------------------------------------------------

const char *
l1StateName(L1State s)
{
    switch (s) {
      case L1State::I: return "I";
      case L1State::S: return "S";
      case L1State::E: return "E";
      case L1State::M: return "M";
      case L1State::W: return "W";
    }
    return "?";
}

const char *
dirStateName(DirState s)
{
    switch (s) {
      case DirState::I:  return "I";
      case DirState::S:  return "S";
      case DirState::EM: return "EM";
      case DirState::W:  return "W";
    }
    return "?";
}

const char *
dirTxnTypeName(DirTxnType t)
{
    switch (t) {
      case DirTxnType::Fetch:      return "Fetch";
      case DirTxnType::FwdS:       return "FwdS";
      case DirTxnType::FwdX:       return "FwdX";
      case DirTxnType::InvColl:    return "InvColl";
      case DirTxnType::RecallEM:   return "RecallEM";
      case DirTxnType::RecallS:    return "RecallS";
      case DirTxnType::RecallW:    return "RecallW";
      case DirTxnType::ToWireless: return "ToWireless";
      case DirTxnType::WJoin:      return "WJoin";
      case DirTxnType::ToShared:   return "ToShared";
    }
    return "?";
}

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS:       return "GetS";
      case MsgType::GetX:       return "GetX";
      case MsgType::PutS:       return "PutS";
      case MsgType::PutE:       return "PutE";
      case MsgType::PutM:       return "PutM";
      case MsgType::PutW:       return "PutW";
      case MsgType::Data:       return "Data";
      case MsgType::Nack:       return "Nack";
      case MsgType::Inv:        return "Inv";
      case MsgType::FwdGetS:    return "FwdGetS";
      case MsgType::FwdGetX:    return "FwdGetX";
      case MsgType::WirUpgr:    return "WirUpgr";
      case MsgType::InvAck:     return "InvAck";
      case MsgType::OwnerData:  return "OwnerData";
      case MsgType::WirUpgrAck: return "WirUpgrAck";
      case MsgType::WirDwgrAck: return "WirDwgrAck";
    }
    return "?";
}

const char *
grantStateName(GrantState s)
{
    switch (s) {
      case GrantState::S: return "S";
      case GrantState::E: return "E";
      case GrantState::M: return "M";
    }
    return "?";
}

const char *
protocolName(Protocol p)
{
    switch (p) {
      case Protocol::BaselineMESI: return "baseline";
      case Protocol::WiDir:        return "widir";
    }
    return "?";
}

const char *
l1EventName(L1Event e)
{
    switch (e) {
      case L1Event::CpuLoad:        return "CpuLoad";
      case L1Event::CpuStore:       return "CpuStore";
      case L1Event::CpuRmw:         return "CpuRmw";
      case L1Event::Evict:          return "Evict";
      case L1Event::MsgData:        return "MsgData";
      case L1Event::MsgNack:        return "MsgNack";
      case L1Event::MsgInv:         return "MsgInv";
      case L1Event::MsgFwdGetS:     return "MsgFwdGetS";
      case L1Event::MsgFwdGetX:     return "MsgFwdGetX";
      case L1Event::MsgWirUpgr:     return "MsgWirUpgr";
      case L1Event::FrameWirUpd:    return "FrameWirUpd";
      case L1Event::FrameBrWirUpgr: return "FrameBrWirUpgr";
      case L1Event::FrameWirDwgr:   return "FrameWirDwgr";
      case L1Event::FrameWirInv:    return "FrameWirInv";
      case L1Event::ChannelCommit:  return "ChannelCommit";
    }
    return "?";
}

const char *
dirEventName(DirEvent e)
{
    switch (e) {
      case DirEvent::MsgGetS:       return "MsgGetS";
      case DirEvent::MsgGetX:       return "MsgGetX";
      case DirEvent::MsgPutS:       return "MsgPutS";
      case DirEvent::MsgPutE:       return "MsgPutE";
      case DirEvent::MsgPutM:       return "MsgPutM";
      case DirEvent::MsgPutW:       return "MsgPutW";
      case DirEvent::MsgInvAck:     return "MsgInvAck";
      case DirEvent::MsgOwnerData:  return "MsgOwnerData";
      case DirEvent::MsgWirUpgrAck: return "MsgWirUpgrAck";
      case DirEvent::MsgWirDwgrAck: return "MsgWirDwgrAck";
      case DirEvent::MemData:       return "MemData";
      case DirEvent::CensusDone:    return "CensusDone";
      case DirEvent::FrameWirInv:   return "FrameWirInv";
      case DirEvent::FrameWirDwgr:  return "FrameWirDwgr";
    }
    return "?";
}

const char *
l1PhaseName(L1Phase p)
{
    switch (p) {
      case L1Phase::Miss:     return "Miss";
      case L1Phase::Upgrade:  return "Upgrade";
      case L1Phase::Landing:  return "Landing";
      case L1Phase::Wireless: return "Wireless";
    }
    return "?";
}

const char *
l1StepName(L1Step s)
{
    switch (s) {
      case L1Step::Stable:            return "Stable";
      case L1Step::Fill:              return "Fill";
      case L1Step::Retry:             return "Retry";
      case L1Step::Wait:              return "Wait";
      case L1Step::HoldTone:          return "HoldTone";
      case L1Step::SatisfyUpgrade:    return "SatisfyUpgrade";
      case L1Step::Squash:            return "Squash";
      case L1Step::UpdateDuringWrite: return "UpdateDuringWrite";
      case L1Step::Commit:            return "Commit";
    }
    return "?";
}

const char *
senderRoleName(SenderRole r)
{
    switch (r) {
      case SenderRole::Requester: return "Requester";
      case SenderRole::Acked:     return "Acked";
      case SenderRole::Sharer:    return "Sharer";
      case SenderRole::Other:     return "Other";
    }
    return "?";
}

const char *
dirStepName(DirStep s)
{
    switch (s) {
      case DirStep::GrantExclusive:     return "GrantExclusive";
      case DirStep::AddSharer:          return "AddSharer";
      case DirStep::SetBroadcast:       return "SetBroadcast";
      case DirStep::StartCensus:        return "StartCensus";
      case DirStep::Upgrade:            return "Upgrade";
      case DirStep::InvalidateSharers:  return "InvalidateSharers";
      case DirStep::Forward:            return "Forward";
      case DirStep::FetchFromMemory:    return "FetchFromMemory";
      case DirStep::JoinWireless:       return "JoinWireless";
      case DirStep::DropPointer:        return "DropPointer";
      case DirStep::OwnerPut:           return "OwnerPut";
      case DirStep::ShrinkGroup:        return "ShrinkGroup";
      case DirStep::Nack:               return "Nack";
      case DirStep::Ignore:             return "Ignore";
      case DirStep::AdmitJoiner:        return "AdmitJoiner";
      case DirStep::LeaveCensus:        return "LeaveCensus";
      case DirStep::RequesterLeft:      return "RequesterLeft";
      case DirStep::LeaveGroup:         return "LeaveGroup";
      case DirStep::LeaveDowngrade:     return "LeaveDowngrade";
      case DirStep::DropSurvivor:       return "DropSurvivor";
      case DirStep::OwnerToShared:      return "OwnerToShared";
      case DirStep::OwnerHandOff:       return "OwnerHandOff";
      case DirStep::FinishRecall:       return "FinishRecall";
      case DirStep::CollectUpgradeAck:  return "CollectUpgradeAck";
      case DirStep::CollectRecallAck:   return "CollectRecallAck";
      case DirStep::CollectJoinAck:     return "CollectJoinAck";
      case DirStep::CollectDwgrAck:     return "CollectDwgrAck";
      case DirStep::FillFromMemory:     return "FillFromMemory";
      case DirStep::CommitCensus:       return "CommitCensus";
      case DirStep::DowngradeSent:      return "DowngradeSent";
    }
    return "?";
}

std::string
dirGuardText(DirGuardTest t)
{
    static constexpr const char *kNames[] = {
        "InLlc", "Sharer", "IsSharer", "Bcast",
        "Crowded", "PtrsFull", "Alone", "Owner",
    };
    static_assert(std::size(kNames) == kNumDirGuards);
    std::string out;
    for (std::size_t g = 0; g < kNumDirGuards; ++g) {
        if (!((t.care >> g) & 1u))
            continue;
        out += out.empty() ? "" : ", ";
        out += ((t.want >> g) & 1u) ? kNames[g] : std::string("!") + kNames[g];
    }
    return out.empty() ? "-" : out;
}

DirState
dirTxnState(DirTxnType t)
{
    switch (t) {
      case DirTxnType::Fetch:      return DirState::I;
      case DirTxnType::FwdS:
      case DirTxnType::FwdX:
      case DirTxnType::RecallEM:   return DirState::EM;
      case DirTxnType::InvColl:
      case DirTxnType::RecallS:
      case DirTxnType::ToWireless: return DirState::S;
      case DirTxnType::RecallW:
      case DirTxnType::WJoin:
      case DirTxnType::ToShared:   return DirState::W;
    }
    return DirState::I;
}

// ---------------------------------------------------------------------
// Wire input -> event mapping
// ---------------------------------------------------------------------

bool
l1EventOf(MsgType t, L1Event &ev)
{
    switch (t) {
      case MsgType::Data:    ev = L1Event::MsgData; return true;
      case MsgType::Nack:    ev = L1Event::MsgNack; return true;
      case MsgType::Inv:     ev = L1Event::MsgInv; return true;
      case MsgType::FwdGetS: ev = L1Event::MsgFwdGetS; return true;
      case MsgType::FwdGetX: ev = L1Event::MsgFwdGetX; return true;
      case MsgType::WirUpgr: ev = L1Event::MsgWirUpgr; return true;
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::PutS:
      case MsgType::PutE:
      case MsgType::PutM:
      case MsgType::PutW:
      case MsgType::InvAck:
      case MsgType::OwnerData:
      case MsgType::WirUpgrAck:
      case MsgType::WirDwgrAck:
        return false;
    }
    return false;
}

bool
dirEventOf(MsgType t, DirEvent &ev)
{
    switch (t) {
      case MsgType::GetS:       ev = DirEvent::MsgGetS; return true;
      case MsgType::GetX:       ev = DirEvent::MsgGetX; return true;
      case MsgType::PutS:       ev = DirEvent::MsgPutS; return true;
      case MsgType::PutE:       ev = DirEvent::MsgPutE; return true;
      case MsgType::PutM:       ev = DirEvent::MsgPutM; return true;
      case MsgType::PutW:       ev = DirEvent::MsgPutW; return true;
      case MsgType::InvAck:     ev = DirEvent::MsgInvAck; return true;
      case MsgType::OwnerData:  ev = DirEvent::MsgOwnerData; return true;
      case MsgType::WirUpgrAck: ev = DirEvent::MsgWirUpgrAck; return true;
      case MsgType::WirDwgrAck: ev = DirEvent::MsgWirDwgrAck; return true;
      case MsgType::Data:
      case MsgType::Nack:
      case MsgType::Inv:
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
      case MsgType::WirUpgr:
        return false;
    }
    return false;
}

L1Event
l1EventOf(wireless::FrameKind k)
{
    switch (k) {
      case wireless::FrameKind::WirUpd:    return L1Event::FrameWirUpd;
      case wireless::FrameKind::BrWirUpgr: return L1Event::FrameBrWirUpgr;
      case wireless::FrameKind::WirDwgr:   return L1Event::FrameWirDwgr;
      case wireless::FrameKind::WirInv:    return L1Event::FrameWirInv;
    }
    sim::panic("unknown frame kind %d", static_cast<int>(k));
}

// ---------------------------------------------------------------------
// Rules: Table I (L1 side)
// ---------------------------------------------------------------------

namespace {

constexpr L1State L1_I = L1State::I;
constexpr L1State L1_S = L1State::S;
constexpr L1State L1_E = L1State::E;
constexpr L1State L1_M = L1State::M;
constexpr L1State L1_W = L1State::W;

// Rows enumerate the possible outcome states of each (state, event)
// cell that can occur outside a transaction; the in-transaction table
// below covers the rest. A null note means "no traced transition".
constexpr L1Rule kL1Rules[] = {
    // CPU load: hit everywhere but I (a W hit resets UpdateCount).
    {L1_I, L1Event::CpuLoad, L1_I, nullptr},
    {L1_S, L1Event::CpuLoad, L1_S, nullptr},
    {L1_E, L1Event::CpuLoad, L1_E, nullptr},
    {L1_M, L1Event::CpuLoad, L1_M, nullptr},
    {L1_W, L1Event::CpuLoad, L1_W, nullptr},

    // CPU store: silent E->M upgrade, wireless broadcast from W,
    // sharer upgrade from S, plain miss from I.
    {L1_I, L1Event::CpuStore, L1_I, nullptr},
    {L1_S, L1Event::CpuStore, L1_S, nullptr},
    {L1_E, L1Event::CpuStore, L1_M, "store"},
    {L1_M, L1Event::CpuStore, L1_M, nullptr},
    {L1_W, L1Event::CpuStore, L1_W, nullptr},

    // CPU RMW: like a store (a no-op RMW in W linearizes as a load).
    {L1_I, L1Event::CpuRmw, L1_I, nullptr},
    {L1_S, L1Event::CpuRmw, L1_S, nullptr},
    {L1_E, L1Event::CpuRmw, L1_M, "rmw"},
    {L1_M, L1Event::CpuRmw, L1_M, nullptr},
    {L1_W, L1Event::CpuRmw, L1_W, nullptr},

    // Capacity eviction: PutS/PutE/PutM/PutW to the home.
    {L1_S, L1Event::Evict, L1_I, "evict"},
    {L1_E, L1Event::Evict, L1_I, "evict"},
    {L1_M, L1Event::Evict, L1_I, "evict"},
    {L1_W, L1Event::Evict, L1_I, "evict"},

    // Data / WirUpgr: fill the outstanding miss (I->granted state, or
    // S->M on an upgrade; I->W when a census counted the requester,
    // Section III-B1 case iii, or on a W join). Every grant answers a
    // request whose transaction is still open.
    {L1_I, L1Event::MsgData, L1_S, "fill"},
    {L1_I, L1Event::MsgData, L1_E, "fill"},
    {L1_I, L1Event::MsgData, L1_M, "fill"},
    {L1_I, L1Event::MsgData, L1_W, "fill"},
    {L1_S, L1Event::MsgData, L1_M, "fill"},
    {L1_I, L1Event::MsgWirUpgr, L1_W, "fill"},

    // Nack: back off and retry the outstanding request (releases a
    // held census tone). With none open the bounce is stale (a census
    // satisfied the upgrade it answers). No state change in any state.
    {L1_I, L1Event::MsgNack, L1_I, nullptr},
    {L1_S, L1Event::MsgNack, L1_S, nullptr},
    {L1_E, L1Event::MsgNack, L1_E, nullptr},
    {L1_M, L1Event::MsgNack, L1_M, nullptr},
    {L1_W, L1Event::MsgNack, L1_W, nullptr},

    // Inv: ack (with data on an owner recall) and drop the copy; a
    // miss still acks (broadcast recalls target every node). The home
    // sends no Inv for a line in W.
    {L1_I, L1Event::MsgInv, L1_I, nullptr},
    {L1_S, L1Event::MsgInv, L1_I, "Inv"},
    {L1_E, L1Event::MsgInv, L1_I, "Inv"},
    {L1_M, L1Event::MsgInv, L1_I, "Inv"},

    // FwdGetS / FwdGetX: the owner supplies data and downgrades or
    // invalidates. A node that already evicted drops the forward (its
    // PutE/PutM completes the directory's transaction instead).
    {L1_I, L1Event::MsgFwdGetS, L1_I, nullptr},
    {L1_E, L1Event::MsgFwdGetS, L1_S, "FwdGetS"},
    {L1_M, L1Event::MsgFwdGetS, L1_S, "FwdGetS"},
    {L1_I, L1Event::MsgFwdGetX, L1_I, nullptr},
    {L1_E, L1Event::MsgFwdGetX, L1_I, "FwdGetX"},
    {L1_M, L1Event::MsgFwdGetX, L1_I, "FwdGetX"},

    // The home sends WirUpd, WirDwgr and WirInv only for a line in W,
    // which leaves no S/E/M copy, and BrWirUpgr only for a line in S,
    // which leaves no E/M/W copy: the frames reach those states only
    // mid-transaction.
    //
    // Foreign WirUpd: W sharers apply the word (and may self-
    // invalidate once UpdateCount trips); a node without a copy
    // ignores it.
    {L1_I, L1Event::FrameWirUpd, L1_I, nullptr},
    {L1_W, L1Event::FrameWirUpd, L1_W, nullptr},
    {L1_W, L1Event::FrameWirUpd, L1_I, "UpdateCount"},

    // BrWirUpgr census: every node raises the tone; current sharers
    // adopt W (case 1/2), nodes with a request in flight hold the
    // tone (case iii), everyone else drops it immediately (case i).
    {L1_I, L1Event::FrameBrWirUpgr, L1_I, nullptr},
    {L1_S, L1Event::FrameBrWirUpgr, L1_W, "BrWirUpgr"},

    // WirDwgr: W sharers ack with their id and downgrade.
    {L1_I, L1Event::FrameWirDwgr, L1_I, nullptr},
    {L1_W, L1Event::FrameWirDwgr, L1_S, "WirDwgr"},

    // WirInv: W sharers invalidate and retry pending writes wired.
    {L1_I, L1Event::FrameWirInv, L1_I, nullptr},
    {L1_W, L1Event::FrameWirInv, L1_I, "WirInv"},

    // Own WirUpd reached its commit point: the word merges into the
    // W copy. Only a write that won the channel commits, and nothing
    // squashes it after that, so the copy is still W.
    {L1_W, L1Event::ChannelCommit, L1_W, nullptr},
};

// ---------------------------------------------------------------------
// Rules: L1 events during a transaction
// ---------------------------------------------------------------------

namespace l1_txn_rows {

using enum L1Phase;
using enum L1Event;
using enum L1Step;

// CPU operations queue behind an open transaction (a load that hits
// is served), so they are not rows. A missing cell panics;
// docs/PROTOCOL.md ("L1 events during a transaction") argues why each
// cannot happen.
constexpr L1TxnRule kL1TxnRules[] = {
    // Miss: only the reply ends it; a census that catches the request
    // counts the node, so the fill lands in W (Section III-B1, case
    // iii). Everything else meets an absent copy, as in Table I.
    {Miss, MsgData, Fill},
    {Miss, MsgWirUpgr, Fill},
    {Miss, MsgNack, Retry},
    {Miss, MsgInv, Stable},
    {Miss, MsgFwdGetS, Stable},
    {Miss, MsgFwdGetX, Stable},
    {Miss, FrameWirUpd, Stable},
    {Miss, FrameBrWirUpgr, HoldTone},
    {Miss, FrameWirDwgr, Stable},
    {Miss, FrameWirInv, Stable},

    // Upgrade: the pinned S copy is invalidated like any S copy, and a
    // census turns it W and sends the queued writes wireless (Table I,
    // S->W case 2); the directory discards the upgrade.
    {Upgrade, MsgData, Fill},
    {Upgrade, MsgNack, Retry},
    {Upgrade, MsgInv, Stable},
    {Upgrade, FrameBrWirUpgr, SatisfyUpgrade},

    // Landing: the directory has granted the line, so the node answers
    // for it once the line lands -- from the granted state, after the
    // queued ops. A census counts it (case iii).
    {Landing, MsgInv, Wait},
    {Landing, MsgFwdGetS, Wait},
    {Landing, MsgFwdGetX, Wait},
    {Landing, FrameBrWirUpgr, HoldTone},

    // Wireless: the commit point serializes the write. A racing
    // update voids a pending RMW's value; losing the W copy squashes
    // the write and retries it on the new state. A Nack is the stale
    // answer to an upgrade a census satisfied.
    {Wireless, MsgNack, Stable},
    {Wireless, FrameWirUpd, UpdateDuringWrite},
    {Wireless, FrameWirDwgr, Squash},
    {Wireless, FrameWirInv, Squash},
    {Wireless, ChannelCommit, Commit},
};

static_assert(std::size(kL1TxnRules) == kNumL1TxnRules);

} // namespace l1_txn_rows

// ---------------------------------------------------------------------
// Rules: Table II (directory side, no transaction open)
// ---------------------------------------------------------------------

namespace dir_rows {

using enum DirState;
using enum DirEvent;
using enum DirGuard;
using enum DirStep;

constexpr DirGuardTest kAny{};

// Rows for one (state, event) split on guards so that they never
// match the same guard set; read together they keep the order the
// protocol tests its conditions in. A cell with no row is a protocol
// bug and panics; docs/PROTOCOL.md ("Table II as executed") argues
// why each missing one cannot happen.
constexpr DirRule kDirRules[] = {
    // GetS. I: fetch on an LLC miss (the memory read's completion
    // traces I->EM "fetch"), else the first reader gets E. S: a new
    // sharer past MaxWiredSharers starts the S->W census (never from
    // a bcast entry: SharerCount is seeded from the pointers), else
    // it takes a free pointer, else the broadcast bit. EM: forward to
    // the owner. W: a wired join.
    {I, MsgGetS, no(InLlc), FetchFromMemory, I, nullptr},
    {I, MsgGetS, is(InLlc), GrantExclusive, EM, "GetS"},
    {S, MsgGetS, no(Sharer) & is(Crowded) & no(Bcast), StartCensus, S,
     nullptr},
    {S, MsgGetS, no(Sharer) & no(Crowded) & no(PtrsFull), AddSharer, S,
     nullptr},
    {S, MsgGetS, no(Sharer) & no(Crowded) & is(PtrsFull), SetBroadcast, S,
     nullptr},
    {EM, MsgGetS, no(Owner), Forward, EM, nullptr},
    {W, MsgGetS, kAny, JoinWireless, W, nullptr},

    // GetX: like GetS, but in S the census comes first, then the sole
    // sharer's immediate upgrade, then an invalidation collect. In W a
    // sharer's upgrade is stale (the census already made its copy W)
    // and is discarded (Table II, W->W case 2).
    {I, MsgGetX, no(InLlc), FetchFromMemory, I, nullptr},
    {I, MsgGetX, is(InLlc), GrantExclusive, EM, "GetX"},
    {S, MsgGetX, no(Sharer) & is(Crowded) & no(Bcast), StartCensus, S,
     nullptr},
    {S, MsgGetX, is(Sharer) & is(Alone), Upgrade, EM, "upgrade"},
    {S, MsgGetX, is(Sharer) & no(Alone), InvalidateSharers, S, nullptr},
    {S, MsgGetX, no(Sharer) & no(Crowded) & no(Alone), InvalidateSharers,
     S, nullptr},
    {EM, MsgGetX, no(Owner), Forward, EM, nullptr},
    {W, MsgGetX, is(IsSharer), Ignore, W, nullptr},
    {W, MsgGetX, no(IsSharer), JoinWireless, W, nullptr},

    // PutS: drop the pointer; the last one empties the entry. A PutS
    // finding the entry in W predates the S->W transition and is
    // taken as a PutW.
    {S, MsgPutS, is(Alone), DropPointer, I, "PutS"},
    {S, MsgPutS, no(Alone), DropPointer, S, nullptr},

    // PutE / PutM: the owner evicted.
    {EM, MsgPutE, is(Owner), OwnerPut, I, "PutE"},
    {EM, MsgPutM, is(Owner), OwnerPut, I, "PutM"},

    // PutW: SharerCount - 1; falling to MaxWiredSharers starts W->S
    // (traced under ToShared's rows, even when nothing is left to
    // ack). A PutW sent as a WirInv recalled the line is stale.
    {I, MsgPutW, kAny, Ignore, I, nullptr},
    {W, MsgPutW, kAny, ShrinkGroup, W, "PutW"},

    // The owner's InvAck after its own Put ended a RecallEM outlives
    // the transaction.
    {I, MsgInvAck, kAny, Ignore, I, nullptr},
};

static_assert(std::size(kDirRules) == kNumDirRules);

} // namespace dir_rows

// ---------------------------------------------------------------------
// Rules: directory events during a transaction
// ---------------------------------------------------------------------

namespace txn_rows {

using enum DirTxnType;
using enum DirEvent;
using enum DirStep;

constexpr std::uint8_t kEndI = stateBit(DirState::I);
constexpr std::uint8_t kEndS = stateBit(DirState::S);
constexpr std::uint8_t kEndEM = stateBit(DirState::EM);
constexpr std::uint8_t kEndW = stateBit(DirState::W);

// The blocking directory bounces every request except a W join. A
// PutS that finds the entry in W arrives as a PutW. A combination no
// row covers is a protocol bug and panics; docs/PROTOCOL.md ("Events
// during a transaction") argues why each missing one cannot happen.
// A row with a note traces the transaction's end when its step ends
// it (a collect step only on its last ack).
constexpr DirTxnRule kDirTxnRules[] = {
    // Fetch: memory read in flight, no directory entry yet. The read
    // installs the line and grants it, or bounces the requester when
    // recalls fill the set meanwhile.
    {Fetch, MsgGetS, kByAny, Nack, 0, nullptr},
    {Fetch, MsgGetX, kByAny, Nack, 0, nullptr},
    {Fetch, MsgPutW, kByAny, Ignore, 0, nullptr},
    {Fetch, MsgInvAck, kByAny, Ignore, 0, nullptr},
    {Fetch, MemData, kByAny, FillFromMemory, kEndEM, "fetch"},

    // FwdS / FwdX: the owner's OwnerData completes the forward, and
    // so does its PutE/PutM when it evicted first (the forward then
    // finds no copy and is dropped).
    {FwdS, MsgGetS, kByAny, Nack, 0, nullptr},
    {FwdS, MsgGetX, kByAny, Nack, 0, nullptr},
    {FwdS, MsgPutE, kByAny, OwnerToShared, kEndS, "FwdGetS"},
    {FwdS, MsgPutM, kByAny, OwnerToShared, kEndS, "FwdGetS"},
    {FwdS, MsgOwnerData, kByAny, OwnerToShared, kEndS, "FwdGetS"},
    {FwdX, MsgGetS, kByAny, Nack, 0, nullptr},
    {FwdX, MsgGetX, kByAny, Nack, 0, nullptr},
    {FwdX, MsgPutE, kByAny, OwnerHandOff, kEndEM, "FwdGetX"},
    {FwdX, MsgPutM, kByAny, OwnerHandOff, kEndEM, "FwdGetX"},
    {FwdX, MsgOwnerData, kByAny, OwnerHandOff, kEndEM, "FwdGetX"},

    // InvColl / RecallS: every Inv is acked, even by a sharer that
    // evicted first, so its PutS changes nothing.
    {InvColl, MsgGetS, kByAny, Nack, 0, nullptr},
    {InvColl, MsgGetX, kByAny, Nack, 0, nullptr},
    {InvColl, MsgPutS, kByAny, Ignore, 0, nullptr},
    {InvColl, MsgInvAck, kByAny, CollectUpgradeAck, kEndEM, "InvColl"},
    {RecallS, MsgGetS, kByAny, Nack, 0, nullptr},
    {RecallS, MsgGetX, kByAny, Nack, 0, nullptr},
    {RecallS, MsgPutS, kByAny, Ignore, 0, nullptr},
    {RecallS, MsgInvAck, kByAny, CollectRecallAck, kEndI, "recall"},

    // RecallEM: the owner's InvAck (with data when dirty) ends the
    // recall, or its racing PutE/PutM does.
    {RecallEM, MsgGetS, kByAny, Nack, 0, nullptr},
    {RecallEM, MsgGetX, kByAny, Nack, 0, nullptr},
    {RecallEM, MsgPutE, kByAny, FinishRecall, kEndI, "recall"},
    {RecallEM, MsgPutM, kByAny, FinishRecall, kEndI, "recall"},
    {RecallEM, MsgInvAck, kByAny, FinishRecall, kEndI, "recall"},

    // RecallW: the WirInv frame's own delivery ends the recall, so a
    // member's PutW changes nothing.
    {RecallW, MsgGetS, kByAny, Nack, 0, nullptr},
    {RecallW, MsgGetX, kByAny, Nack, 0, nullptr},
    {RecallW, MsgPutW, kByAny, Ignore, 0, nullptr},
    {RecallW, FrameWirInv, kByAny, FinishRecall, kEndI, "recall"},

    // ToWireless: a counted sharer that evicts before the census ends
    // will not join the group; neither will a requester that already
    // left its fresh W copy. Requests bounce, a sharer's upgrade
    // included: the bounce releases its tone (Section III-B1, case
    // iii) and the retry meets the settled W state. The silent tone
    // commits S->W with the sharers it counted.
    {ToWireless, MsgGetS, kByAny, Nack, 0, nullptr},
    {ToWireless, MsgGetX, kByAny, Nack, 0, nullptr},
    {ToWireless, MsgPutS, kBySharer, LeaveCensus, 0, nullptr},
    {ToWireless, MsgPutW, kByRequester, RequesterLeft, 0, nullptr},
    {ToWireless, MsgPutW, kBySharer, LeaveCensus, 0, nullptr},
    {ToWireless, CensusDone, kByAny, CommitCensus, kEndW, "census"},

    // WJoin: further joiners ride the open join; a sharer's stale
    // upgrade (the census already made it W) waits for the join.
    {WJoin, MsgGetS, kByAny, AdmitJoiner, 0, nullptr},
    {WJoin, MsgGetX, kBySharer, Nack, 0, nullptr},
    {WJoin, MsgGetX, kByRequester | kByAcked | kByOther, AdmitJoiner, 0,
     nullptr},
    {WJoin, MsgPutW, kByAny, LeaveGroup, 0, nullptr},
    {WJoin, MsgWirUpgrAck, kByAny, CollectJoinAck, kEndW, "join"},

    // ToShared: a W copy that leaves before the WirDwgr reaches it
    // never acks, so expect one ack fewer. A node that acked and then
    // evicted its new S copy was counted by its ack: it only stops
    // being a survivor (docs/PROTOCOL.md, the W->S ack-then-PutS
    // race). The downgrade ends once every ack is in and its own
    // frame has left the MAC, in S, or in I when no survivor is left.
    {ToShared, MsgGetS, kByAny, Nack, 0, nullptr},
    {ToShared, MsgGetX, kByAny, Nack, 0, nullptr},
    {ToShared, MsgPutW, kByAcked, DropSurvivor, 0, nullptr},
    {ToShared, MsgPutW, kByRequester | kBySharer | kByOther,
     LeaveDowngrade, kEndS | kEndI, "WirDwgr"},
    {ToShared, MsgWirDwgrAck, kByAny, CollectDwgrAck, kEndS, "WirDwgr"},
    {ToShared, FrameWirDwgr, kByAny, DowngradeSent, kEndS | kEndI,
     "WirDwgr"},
};

static_assert(std::size(kDirTxnRules) == kNumDirTxnRules);

} // namespace txn_rows

// ---------------------------------------------------------------------
// Dispatch tables and edge sets, derived once from the rules
// ---------------------------------------------------------------------

constexpr std::size_t
l1TxnCell(L1Phase p, L1Event e)
{
    return static_cast<std::size_t>(p) * kNumL1Events +
           static_cast<std::size_t>(e);
}

constexpr std::size_t
dirCell(DirState s, DirEvent e, DirGuards g)
{
    return (static_cast<std::size_t>(s) * kNumDirEvents +
            static_cast<std::size_t>(e)) *
               (std::size_t{1} << kNumDirGuards) +
           g;
}

constexpr std::size_t
txnCell(DirTxnType t, DirEvent e, SenderRole r)
{
    return (static_cast<std::size_t>(t) * kNumDirEvents +
            static_cast<std::size_t>(e)) *
               kNumSenderRoles +
           static_cast<std::size_t>(r);
}

struct DerivedTables
{
    /** Row index into l1_txn_rows::kL1TxnRules per cell, -1 when none. */
    std::array<std::int8_t, kNumL1Phases * kNumL1Events> l1Txn;
    /** Row index into dir_rows::kDirRules per cell, -1 when none. */
    std::array<std::int8_t,
               kNumDirStates * kNumDirEvents * (1u << kNumDirGuards)>
        dir;
    /** Row index into txn_rows::kDirTxnRules per cell, -1 when none. */
    std::array<std::int16_t,
               kNumDirTxnTypes * kNumDirEvents * kNumSenderRoles>
        dirTxn;
    // edge masks: bit `to` set in [from] when a noted rule traces it
    std::array<std::uint8_t, kNumL1States> l1Edges;
    std::array<std::uint8_t, kNumDirStates> dirEdges;
};

DerivedTables
buildTables()
{
    DerivedTables t{};
    t.l1Txn.fill(-1);
    t.dir.fill(-1);
    t.dirTxn.fill(-1);
    t.l1Edges.fill(0);
    t.dirEdges.fill(0);

    for (const L1Rule &r : kL1Rules) {
        if (r.note)
            t.l1Edges[static_cast<std::size_t>(r.from)] |=
                std::uint8_t{1} << static_cast<std::uint8_t>(r.to);
    }
    for (std::size_t i = 0; i < std::size(l1_txn_rows::kL1TxnRules); ++i) {
        const L1TxnRule &r = l1_txn_rows::kL1TxnRules[i];
        std::int8_t &cell = t.l1Txn[l1TxnCell(r.phase, r.event)];
        WIDIR_ASSERT(cell < 0, "L1 in-transaction rows %d and %zu overlap "
                     "on (%s, %s)", cell, i, l1PhaseName(r.phase),
                     l1EventName(r.event));
        cell = static_cast<std::int8_t>(i);
    }
    for (std::size_t i = 0; i < std::size(dir_rows::kDirRules); ++i) {
        const DirRule &r = dir_rows::kDirRules[i];
        if (r.note)
            t.dirEdges[static_cast<std::size_t>(r.from)] |= stateBit(r.to);
        for (std::size_t g = 0; g < (1u << kNumDirGuards); ++g) {
            if (!r.guard.matches(static_cast<DirGuards>(g)))
                continue;
            std::int8_t &cell = t.dir[dirCell(r.from, r.event,
                                              static_cast<DirGuards>(g))];
            WIDIR_ASSERT(cell < 0,
                         "Table II rows %d and %zu overlap on (%s, %s, "
                         "%s)",
                         cell, i, dirStateName(r.from),
                         dirEventName(r.event),
                         dirGuardText({0xff, static_cast<DirGuards>(g)})
                             .c_str());
            cell = static_cast<std::int8_t>(i);
        }
    }
    for (std::size_t i = 0; i < std::size(txn_rows::kDirTxnRules); ++i) {
        const DirTxnRule &r = txn_rows::kDirTxnRules[i];
        if (r.note)
            t.dirEdges[static_cast<std::size_t>(dirTxnState(r.txn))] |=
                r.ends;
        for (std::size_t role = 0; role < kNumSenderRoles; ++role) {
            if (!((r.roles >> role) & 1u))
                continue;
            std::int16_t &cell = t.dirTxn[txnCell(
                r.txn, r.event, static_cast<SenderRole>(role))];
            WIDIR_ASSERT(cell < 0,
                         "in-transaction rows %d and %zu overlap on "
                         "(%s, %s, %s)",
                         cell, i, dirTxnTypeName(r.txn),
                         dirEventName(r.event),
                         senderRoleName(static_cast<SenderRole>(role)));
            cell = static_cast<std::int16_t>(i);
        }
    }
    return t;
}

const DerivedTables &
tables()
{
    static const DerivedTables t = buildTables();
    return t;
}

} // namespace

std::span<const L1Rule>
l1Rules()
{
    return kL1Rules;
}

std::span<const DirRule>
dirRules()
{
    return dir_rows::kDirRules;
}

int
dirRuleFor(DirState s, DirEvent e, DirGuards g)
{
    return tables().dir[dirCell(s, e, g)];
}

std::span<const L1TxnRule>
l1TxnRules()
{
    return l1_txn_rows::kL1TxnRules;
}

int
l1TxnRuleFor(L1Phase p, L1Event e)
{
    return tables().l1Txn[l1TxnCell(p, e)];
}

std::span<const DirTxnRule>
dirTxnRules()
{
    return txn_rows::kDirTxnRules;
}

int
dirTxnRuleFor(DirTxnType t, DirEvent e, SenderRole r)
{
    return tables().dirTxn[txnCell(t, e, r)];
}

bool
l1EdgeLegal(L1State from, L1State to)
{
    return (tables().l1Edges[static_cast<std::size_t>(from)] >>
            static_cast<std::uint8_t>(to)) &
           1u;
}

bool
dirEdgeLegal(DirState from, DirState to)
{
    return (tables().dirEdges[static_cast<std::size_t>(from)] >>
            static_cast<std::uint8_t>(to)) &
           1u;
}

} // namespace widir::coherence
