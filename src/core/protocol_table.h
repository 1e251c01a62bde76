/**
 * @file
 * Declarative transition table for both coherence state machines --
 * the single source of truth for the protocol's transition relation.
 *
 * Tables I and II of the paper are encoded as flat rule arrays. For
 * the L1, `L1Rule` rows name every outcome state each (stable state,
 * event) cell can produce. For the directory, Table II is executed:
 * each `DirRule` row names, for a (state, event, guards) cell, the
 * `DirStep` the directory runs and the state it leaves the line in.
 * Two more arrays say what a controller does with an event for a line
 * whose transaction is still open: `L1TxnRule` for the L1 and
 * `DirTxnRule` for the directory. The rows feed four consumers:
 *
 *  - `L1Controller` looks up `l1TxnRuleFor()` whenever the line has a
 *    transaction open (with none open, its handlers apply Table I);
 *    `DirectoryController` decides every wired message, and every
 *    completion of its own transactions, by looking up
 *    `dirRuleFor()` or `dirTxnRuleFor()` and running the row's step;
 *  - `sys::checkTraceLegality` derives its legal-edge sets from
 *    `l1EdgeLegal()` / `dirEdgeLegal()` instead of a private copy;
 *  - `tools/gen_protocol_docs` renders the rows into the generated
 *    section of docs/PROTOCOL.md (the `docs_check` CTest fails when
 *    that section is stale);
 *  - `tests/test_state_explorer.cc` walks small machines and asserts
 *    the observed transition edges are exactly the noted rows and
 *    that every executed row is taken.
 *
 * Rows with a non-null `note` are *traced edges*: the controller emits
 * an `L1Transition`/`DirTransition` record with that note when the
 * rule fires. Rows with a null note are tolerated no-ops or transient
 * bookkeeping.
 *
 * The protocol vocabulary (states, transaction kinds) and every
 * enum -> string helper live here as well, so a new enumerator has
 * exactly one place to be named (and `-Werror=switch` makes missing
 * one a build error).
 */

#ifndef WIDIR_CORE_PROTOCOL_TABLE_H
#define WIDIR_CORE_PROTOCOL_TABLE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "core/messages.h"
#include "core/protocol_config.h"
#include "wireless/frame.h"

namespace widir::coherence {

// ---------------------------------------------------------------------
// Protocol vocabulary
// ---------------------------------------------------------------------

/** L1 line states (stored in coherence::L1Line::state). */
enum class L1State : std::uint8_t
{
    I = 0,
    S,
    E,
    M,
    W, ///< WiDir Wireless Shared
};
inline constexpr std::size_t kNumL1States = 5;

/** Directory states for a line resident in an LLC slice. */
enum class DirState : std::uint8_t
{
    I = 0, ///< in LLC, no cached copies
    S,     ///< shared by the pointer set (or broadcast bit)
    EM,    ///< exclusive/modified at `owner`
    W,     ///< WiDir Wireless Shared: only SharerCount is known
};
inline constexpr std::size_t kNumDirStates = 4;

/** Multi-message directory transaction kinds (transient states). */
enum class DirTxnType : std::uint8_t
{
    Fetch,      ///< LLC miss: memory read in flight
    FwdS,       ///< GetS forwarded to owner
    FwdX,       ///< GetX forwarded to owner
    InvColl,    ///< collecting InvAcks for a GetX in S
    RecallEM,   ///< LLC eviction: retrieving the owner's copy
    RecallS,    ///< LLC eviction: invalidating sharers
    RecallW,    ///< LLC eviction of a W line (WirInv in flight)
    ToWireless, ///< S->W: BrWirUpgr census in flight (Table II)
    WJoin,      ///< W->W: WirUpgr sent, awaiting WirUpgrAck
    ToShared,   ///< W->S: WirDwgr sent, awaiting WirDwgrAcks
};
inline constexpr std::size_t kNumDirTxnTypes = 10;

/// @name Enum -> string helpers (single home for all protocol names)
/// @{
const char *l1StateName(L1State s);
const char *dirStateName(DirState s);
const char *dirTxnTypeName(DirTxnType t);
const char *grantStateName(GrantState s);
const char *protocolName(Protocol p);
// msgTypeName(MsgType) is declared in messages.h; defined here too.
// frameKindName(FrameKind) stays in src/wireless (dependency order).
/// @}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/**
 * Everything that can happen to an L1 line: CPU operations, capacity
 * eviction, wired messages addressed to a cache, wireless frames, and
 * the commit point of our own WirUpd.
 */
enum class L1Event : std::uint8_t
{
    CpuLoad = 0,
    CpuStore,
    CpuRmw,
    Evict,          ///< replacement selected this line as victim
    MsgData,
    MsgNack,
    MsgInv,
    MsgFwdGetS,
    MsgFwdGetX,
    MsgWirUpgr,
    FrameWirUpd,
    FrameBrWirUpgr,
    FrameWirDwgr,
    FrameWirInv,
    ChannelCommit,  ///< own WirUpd reached its commit point
};
inline constexpr std::size_t kNumL1Events = 15;

/**
 * Everything that can happen to a directory entry: wired messages
 * addressed to a home slice, and the internal events that complete
 * the directory's own transactions without a message arriving.
 */
enum class DirEvent : std::uint8_t
{
    MsgGetS = 0,
    MsgGetX,
    MsgPutS,
    MsgPutE,
    MsgPutM,
    MsgPutW,
    MsgInvAck,
    MsgOwnerData,
    MsgWirUpgrAck,
    MsgWirDwgrAck,
    MemData,        ///< a Fetch's memory read returned the line
    CensusDone,     ///< ToneAck census fell silent (S->W commit)
    FrameWirInv,    ///< own W->I broadcast delivered
    FrameWirDwgr,   ///< own W->S broadcast delivered
};
inline constexpr std::size_t kNumDirEvents = 14;

const char *l1EventName(L1Event e);
const char *dirEventName(DirEvent e);

/**
 * Map a wired message type onto the receiving side's event.
 * @return false when that side never receives the type (the
 *         controllers panic on such arrivals, exactly as before).
 */
bool l1EventOf(MsgType t, L1Event &ev);
bool dirEventOf(MsgType t, DirEvent &ev);

/** Wireless frames map 1:1 onto L1 events. */
L1Event l1EventOf(wireless::FrameKind k);

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/**
 * One row of Table I: in state `from`, event `event` may leave the
 * line in `to`. `note` is the exact string the controller puts into
 * the L1Transition trace record when this outcome fires, or null when
 * the outcome is not a traced transition (no state change, transient
 * bookkeeping, or a tolerated stale arrival, in which case
 * `to == from`).
 */
struct L1Rule
{
    L1State from;
    L1Event event;
    L1State to;
    const char *note;
};

/** The L1 rule set (a cell with no row cannot occur). */
std::span<const L1Rule> l1Rules();

/**
 * Trace-legality relation derived from the noted rules: true when
 * some rule row traces a `from -> to` edge (for the directory, a
 * Table II row or an in-transaction row). Self-loops are legal only
 * where a row notes one (EM->EM owner hand-off, W->W count changes).
 */
bool l1EdgeLegal(L1State from, L1State to);
bool dirEdgeLegal(DirState from, DirState to);

// ---------------------------------------------------------------------
// L1 events during a transaction
// ---------------------------------------------------------------------

/** What an L1 line's open transaction is doing. */
enum class L1Phase : std::uint8_t
{
    Miss = 0, ///< GetS/GetX in flight, no copy resident
    Upgrade,  ///< sharer GetX in flight, the S copy pinned in the cache
    Landing,  ///< granted, the fill waits for a way in a fully pinned set
    Wireless, ///< own WirUpd queued at the transceiver, the W copy pinned
};
inline constexpr std::size_t kNumL1Phases = 4;

/** What the L1 does with an event mid-transaction. */
enum class L1Step : std::uint8_t
{
    Stable = 0,     ///< the transaction changes nothing: Table I answers
    Fill,           ///< Data/WirUpgr: install the line, or start landing
    Retry,          ///< Nack: release a held tone, back off and resend
    Wait,           ///< park in the landing fill; answer once it lands
    HoldTone,       ///< census caught the request: hold the tone, fill W
    SatisfyUpgrade, ///< census made the S copy W: re-run the ops as W ops
    Squash,         ///< Table I answers, then the pending write retries
    UpdateDuringWrite, ///< apply the word; a pending RMW retries
    Commit,         ///< own WirUpd committed: merge it, issue the next
};

const char *l1PhaseName(L1Phase p);
const char *l1StepName(L1Step s);

/**
 * One in-transaction rule: `event` meeting a transaction in `phase`
 * takes `step`. A cell no row covers is a protocol bug: the L1 panics.
 */
struct L1TxnRule
{
    L1Phase phase;
    L1Event event;
    L1Step step;
};

std::span<const L1TxnRule> l1TxnRules();
inline constexpr std::size_t kNumL1TxnRules = 23;

/** Index into l1TxnRules() of the row for a cell, or -1 if none. */
int l1TxnRuleFor(L1Phase p, L1Event e);

// ---------------------------------------------------------------------
// Directory steps: Table II and the in-transaction rows
// ---------------------------------------------------------------------

/** What the directory does with an event: the one action vocabulary. */
enum class DirStep : std::uint8_t
{
    // Table II: a line with no transaction open
    GrantExclusive = 0, ///< I->EM: first reader gets E, first writer M
    AddSharer,         ///< one more pointer, grant S
    SetBroadcast,      ///< pointers full (Dir_iB): set the bit, grant S
    StartCensus,       ///< S->W: BrWirUpgr, WirUpgr to the requester
    Upgrade,           ///< the sole sharer's GetX: S->EM, grant M
    InvalidateSharers, ///< open InvColl: Inv every other sharer
    Forward,           ///< open FwdS/FwdX: forward to the owner
    FetchFromMemory,   ///< make room and open a Fetch, or bounce
    JoinWireless,      ///< open WJoin: WirUpgr the requester into W
    DropPointer,       ///< a sharer evicted: drop its pointer
    OwnerPut,          ///< the owner evicted: EM->I, keep its data
    ShrinkGroup,       ///< SharerCount - 1; at MaxWiredSharers start W->S
    // Either table
    Nack,              ///< blocking directory: bounce, the sender retries
    Ignore,            ///< stale, or already accounted for elsewhere
    // In-transaction rows
    AdmitJoiner,       ///< W->W: batch one more joiner under the join
    LeaveCensus,       ///< a counted sharer left: census count - 1
    RequesterLeft,     ///< census requester evicted its fresh W copy
    LeaveGroup,        ///< SharerCount - 1 (W->S is checked at the end)
    LeaveDowngrade,    ///< one WirDwgrAck fewer to wait for
    DropSurvivor,      ///< an acked survivor evicted: forget its id
    OwnerToShared,     ///< FwdS done: EM->S, grant S
    OwnerHandOff,      ///< FwdX done: EM->EM, grant M to the requester
    FinishRecall,      ///< recall done: write back, drop the line
    CollectUpgradeAck, ///< InvColl: the last InvAck grants M
    CollectRecallAck,  ///< RecallS: the last InvAck drops the line
    CollectJoinAck,    ///< WirUpgrAck: SharerCount + 1
    CollectDwgrAck,    ///< WirDwgrAck: record a survivor
    FillFromMemory,    ///< Fetch done: install the line, grant E/M
    CommitCensus,      ///< census done: S->W with the counted sharers
    DowngradeSent,     ///< own WirDwgr delivered: W->S may complete
};

const char *dirStepName(DirStep s);

// ---------------------------------------------------------------------
// Table II: a line with no transaction open
// ---------------------------------------------------------------------

/**
 * What the directory reads off a stable line, for the message's
 * sender, before it picks a Table II row. `receive` computes all of
 * them once per message, from the LLC frame alone.
 */
enum class DirGuard : std::uint8_t
{
    InLlc = 0, ///< the line is resident in the LLC slice
    Sharer,    ///< the sender is in the entry's sharer pointers
    IsSharer,  ///< the message says its sender holds an S copy
    Bcast,     ///< the broadcast bit is set (Dir_iB overflow)
    Crowded,   ///< WiDir, and at least MaxWiredSharers pointers
    PtrsFull,  ///< no free sharer pointer (dirPointers)
    Alone,     ///< no invalidation target besides the sender
    Owner,     ///< the sender owns the line
};
inline constexpr std::size_t kNumDirGuards = 8;

/** A set of guards, bit g set when guard g holds. */
using DirGuards = std::uint8_t;

constexpr DirGuards
guardBit(DirGuard g)
{
    return static_cast<DirGuards>(1u << static_cast<unsigned>(g));
}

/**
 * A row's guard column: the guards in `care` must read as in `want`,
 * the others do not matter. Written `is(Sharer) & no(Bcast)`.
 */
struct DirGuardTest
{
    DirGuards care = 0;
    DirGuards want = 0;

    constexpr bool
    matches(DirGuards g) const
    {
        return (g & care) == want;
    }
};

constexpr DirGuardTest
is(DirGuard g)
{
    return {guardBit(g), guardBit(g)};
}

constexpr DirGuardTest
no(DirGuard g)
{
    return {guardBit(g), 0};
}

constexpr DirGuardTest
operator&(DirGuardTest a, DirGuardTest b)
{
    return {static_cast<DirGuards>(a.care | b.care),
            static_cast<DirGuards>(a.want | b.want)};
}

/**
 * "Sharer, !Bcast" for the guards @p t tests, or "-" when it tests
 * none. With `care` = every guard it spells out a full guard set.
 */
std::string dirGuardText(DirGuardTest t);

/**
 * One row of Table II: event `event` meeting a line in state `from`,
 * with no transaction open and guards matching `guard`, runs `step`
 * and leaves the line in `to`. `note` is the exact string of the
 * DirTransition record the step emits, or null when it emits none
 * (then `to == from`). Rows for one (from, event) never match the same
 * guards; a cell no row matches is a protocol bug and the directory
 * panics naming it.
 */
struct DirRule
{
    DirState from;
    DirEvent event;
    DirGuardTest guard;
    DirStep step;
    DirState to;
    const char *note;
};

std::span<const DirRule> dirRules();
inline constexpr std::size_t kNumDirRules = 23;

/** Index into dirRules() of the row for a cell, or -1 if none. */
int dirRuleFor(DirState s, DirEvent e, DirGuards g);

// ---------------------------------------------------------------------
// Directory events during a transaction
// ---------------------------------------------------------------------

/**
 * Who sent a wired message that reached a line with a transaction
 * open. The first that applies wins.
 */
enum class SenderRole : std::uint8_t
{
    Requester = 0, ///< the node the transaction serves
    Acked,         ///< already acked this downgrade (in the txn's ackIds)
    Sharer,        ///< in the entry's sharer pointers, or a sharer GetX
    Other,
};
inline constexpr std::size_t kNumSenderRoles = 4;

/** Sender-role masks (DirTxnRule::roles). */
inline constexpr std::uint8_t kByRequester = 1u << 0;
inline constexpr std::uint8_t kByAcked = 1u << 1;
inline constexpr std::uint8_t kBySharer = 1u << 2;
inline constexpr std::uint8_t kByOther = 1u << 3;
inline constexpr std::uint8_t kByAny = 0xf;

const char *senderRoleName(SenderRole r);

/** The state a line is in while a `t` transaction is open. */
DirState dirTxnState(DirTxnType t);

/** A set of directory states, bit s set for state s (DirTxnRule::ends). */
constexpr std::uint8_t
stateBit(DirState s)
{
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(s));
}

/**
 * One in-transaction rule: event `event` (a wired message from a
 * sender whose role is in `roles`, or an internal completion) arriving
 * while a `txn` transaction is open takes `step`. When the step ends
 * the transaction it traces `note` from `dirTxnState(txn)` into one of
 * the states in `ends`; a row that never traces has a null note and
 * `ends` 0. Rows for one (txn, event) never share a role; a
 * combination no row covers is a protocol bug and the directory
 * panics.
 */
struct DirTxnRule
{
    DirTxnType txn;
    DirEvent event;
    std::uint8_t roles;
    DirStep step;
    std::uint8_t ends;
    const char *note;
};

std::span<const DirTxnRule> dirTxnRules();
inline constexpr std::size_t kNumDirTxnRules = 49;

/** Index into dirTxnRules() of the row for a cell, or -1 if none. */
int dirTxnRuleFor(DirTxnType t, DirEvent e, SenderRole r);

} // namespace widir::coherence

#endif // WIDIR_CORE_PROTOCOL_TABLE_H
