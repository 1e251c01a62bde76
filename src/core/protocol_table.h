/**
 * @file
 * Declarative transition table for both coherence state machines --
 * the single source of truth for the protocol's transition relation.
 *
 * Tables I and II of the paper are encoded as flat rule arrays: for
 * each (stable state, event) cell that can occur, one or more
 * `L1Rule` / `DirRule` rows name every outcome state the cell can
 * produce. Two more arrays say what a controller does with an event
 * for a line whose transaction is still open: `L1TxnRule` for the
 * L1 and `DirTxnRule` for the directory. The rows feed four
 * consumers:
 *
 *  - `L1Controller` looks up `l1TxnRuleFor()` and
 *    `DirectoryController::receive` looks up `dirTxnRuleFor()`
 *    whenever the line has a transaction open; with none open, the
 *    handlers apply Table I / Table II to the stable state;
 *  - `sys::checkTraceLegality` derives its legal-edge sets from
 *    `l1EdgeLegal()` / `dirEdgeLegal()` instead of a private copy;
 *  - `tools/gen_protocol_docs` renders the rows into the generated
 *    section of docs/PROTOCOL.md (the `docs_check` CTest fails when
 *    that section is stale);
 *  - `tests/test_state_explorer.cc` walks small machines and asserts
 *    the observed transition edges are exactly the noted rows and
 *    that every in-transaction row is taken.
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
 * addressed to a home slice, frames observed on the data channel, and
 * the internal events (LLC replacement, census completion) that drive
 * transitions without a message arriving.
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
    FrameWirUpd,    ///< committed update observed at the home
    FrameWirInv,    ///< own W->I broadcast completed
    LlcEvict,       ///< replacement selected this line as victim
    CensusDone,     ///< ToneAck census fell silent (S->W commit)
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

/** One row of Table II; same contract as L1Rule. */
struct DirRule
{
    DirState from;
    DirEvent event;
    DirState to;
    const char *note;
};

/** The full rule sets (a cell with no row cannot occur). */
std::span<const L1Rule> l1Rules();
std::span<const DirRule> dirRules();

/**
 * Trace-legality relation derived from the noted rules: true when
 * some rule row traces a `from -> to` edge. Self-loops are legal only
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
// Directory messages during a transaction
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

/** What the directory does with a message mid-transaction. */
enum class DirStep : std::uint8_t
{
    Nack = 0,          ///< blocking directory: bounce, the sender retries
    AdmitJoiner,       ///< W->W: batch one more joiner under the join
    Ignore,            ///< stale, or already accounted for elsewhere
    LeaveCensus,       ///< a counted sharer left: census count - 1
    RequesterLeft,     ///< census requester evicted its fresh W copy
    LeaveGroup,        ///< SharerCount - 1 (W->S is checked at the end)
    LeaveDowngrade,    ///< one WirDwgrAck fewer to wait for
    DropSurvivor,      ///< an acked survivor evicted: forget its id
    OwnerToShared,     ///< FwdS done: EM->S, grant S
    OwnerHandOff,      ///< FwdX done: EM->EM, grant M to the requester
    RecallOwner,       ///< RecallEM done: write back, drop the line
    CollectUpgradeAck, ///< InvColl: the last InvAck grants M
    CollectRecallAck,  ///< RecallS: the last InvAck drops the line
    CollectJoinAck,    ///< WirUpgrAck: SharerCount + 1
    CollectDwgrAck,    ///< WirDwgrAck: record a survivor
};

const char *senderRoleName(SenderRole r);
const char *dirStepName(DirStep s);

/**
 * One in-transaction rule: a wired message `event` from a sender whose
 * role is in `roles`, arriving while a `txn` transaction is open,
 * takes `step`. Rows for one (txn, event) never share a role; a
 * combination no row covers is a protocol bug and the directory
 * panics.
 */
struct DirTxnRule
{
    DirTxnType txn;
    DirEvent event;
    std::uint8_t roles;
    DirStep step;
};

std::span<const DirTxnRule> dirTxnRules();
inline constexpr std::size_t kNumDirTxnRules = 45;

/** Index into dirTxnRules() of the row for a cell, or -1 if none. */
int dirTxnRuleFor(DirTxnType t, DirEvent e, SenderRole r);

} // namespace widir::coherence

#endif // WIDIR_CORE_PROTOCOL_TABLE_H
