/**
 * @file
 * Declarative transition table for both coherence state machines --
 * the single source of truth for the protocol's transition relation.
 *
 * Tables I and II of the paper are encoded as flat rule arrays: for
 * each (stable state, event) cell one or more `L1Rule` / `DirRule`
 * rows name every outcome state the cell can produce (L1 rows also
 * name the action the controller dispatches). A third array,
 * `DirTxnRule`, says what the directory does with a wired message
 * for a line whose transaction is still open. The rows feed four
 * consumers:
 *
 *  - `L1Controller::receive`/`receiveFrame`/CPU ops dispatch through
 *    `l1ActionFor()`, and `DirectoryController::receive` through
 *    `dirTxnRuleFor()` whenever the line has a transaction open;
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
 * rule fires. Rows with a null note are tolerated no-ops, transient
 * bookkeeping, or panics. Flags mark rows only reachable under fault
 * injection (`kRuleFaultOnly`) and L1 cells kept for dispatch whose
 * handler asserts they never fire (`kRuleUnreachable`).
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

/** L1 line states (stored in mem::CacheEntry::state). */
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
 * the data channel giving up on our WirUpd (fault injection).
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
    ChannelFault,   ///< own WirUpd exhausted its fault-retry budget
};
inline constexpr std::size_t kNumL1Events = 15;

/**
 * Everything that can happen to a directory entry: wired messages
 * addressed to a home slice, frames observed on the data channel, and
 * the internal events (LLC replacement, census completion, wireless
 * fault fallback) that drive transitions without a message arriving.
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
    ChannelFault,   ///< own frame exhausted its fault-retry budget
};
inline constexpr std::size_t kNumDirEvents = 15;

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
// Actions
// ---------------------------------------------------------------------

/**
 * What the L1 controller does for a (state, event) cell. Each action
 * names one of the controller's existing handlers; the handlers keep
 * all side effects (stats, messages, tracing) so dispatching through
 * the table is bit-identical to the old hand-written switches.
 */
enum class L1Action : std::uint8_t
{
    Hit = 0,        ///< serve from the cache (may silently upgrade)
    Miss,           ///< allocate a txn, send GetS/GetX
    Upgrade,        ///< sharer upgrade: GetX with isSharer
    Wireless,       ///< W-state store/RMW: broadcast WirUpd
    EvictNotify,    ///< send Put* and invalidate the frame
    FinishFill,     ///< Data/WirUpgr completes the outstanding txn
    NackRetry,      ///< bounce: back off and resend
    Invalidate,     ///< Inv: ack (with data on a recall), drop copy
    SupplyOwner,    ///< Fwd*: OwnerData, downgrade or invalidate
    ApplyUpdate,    ///< foreign WirUpd: merge word, UpdateCount++
    CensusJoin,     ///< BrWirUpgr: raise tone, S->W, resolve txns
    Downgrade,      ///< WirDwgr: ack survivor id, W->S
    WirelessInvalidate, ///< WirInv: drop W copy, squash + retry
    WirelessWriteFault, ///< own WirUpd dropped: PutW + wired retry
};

const char *l1ActionName(L1Action a);

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// @name Rule flags
/// @{
inline constexpr std::uint8_t kRuleNone = 0;
/** Row only reachable with fault injection armed (docs/FAULTS.md). */
inline constexpr std::uint8_t kRuleFaultOnly = 1u << 0;
/**
 * L1 cell kept so dispatch is total, but the handler asserts it never
 * fires (protocol-impossible combination).
 */
inline constexpr std::uint8_t kRuleUnreachable = 1u << 1;
/// @}

/**
 * One row of Table I: in state `from`, event `event` dispatches
 * `action` and may leave the line in `to`. `note` is the exact string
 * the controller puts into the L1Transition trace record when this
 * outcome fires, or null when the outcome is not a traced transition
 * (no state change, transient bookkeeping, or a tolerated stale
 * arrival, in which case `to == from`).
 */
struct L1Rule
{
    L1State from;
    L1Event event;
    L1Action action;
    L1State to;
    const char *note;
    std::uint8_t flags;
};

/** One row of Table II; same contract as L1Rule, minus the action. */
struct DirRule
{
    DirState from;
    DirEvent event;
    DirState to;
    const char *note;
    std::uint8_t flags;
};

/** The full rule sets (every L1 (state, event) cell has a row). */
std::span<const L1Rule> l1Rules();
std::span<const DirRule> dirRules();

/**
 * L1 dispatch lookup: the action for a (state, event) cell. Every
 * cell is covered (rule rows for one cell always agree on the action;
 * validated once at startup).
 */
L1Action l1ActionFor(L1State s, L1Event e);

/**
 * Trace-legality relation derived from the noted rules: true when
 * some rule row traces a `from -> to` edge. Self-loops are legal only
 * where a row notes one (EM->EM owner hand-off, W->W count changes).
 */
bool l1EdgeLegal(L1State from, L1State to);
bool dirEdgeLegal(DirState from, DirState to);

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
    CollectRecallAck,  ///< RecallS or fallback RecallW: last one drops
    CollectFallbackAck, ///< fallback ToShared: the last InvAck ends W->S
    CollectJoinAck,    ///< WirUpgrAck: SharerCount + 1
    CollectDwgrAck,    ///< WirDwgrAck: record a survivor
};

const char *senderRoleName(SenderRole r);
const char *dirStepName(DirStep s);

/**
 * One in-transaction rule: a wired message `event` from a sender whose
 * role is in `roles`, arriving while a `txn` transaction is open (in
 * its wired fault-fallback mode when `wired`), takes `step`. Rows for
 * one (txn, wired, event) never share a role; a combination no row
 * covers is a protocol bug and the directory panics. `flags` is
 * kRuleFaultOnly for rows that need fault injection.
 */
struct DirTxnRule
{
    DirTxnType txn;
    bool wired;
    DirEvent event;
    std::uint8_t roles;
    DirStep step;
    std::uint8_t flags;
};

std::span<const DirTxnRule> dirTxnRules();
inline constexpr std::size_t kNumDirTxnRules = 53;

/** Index into dirTxnRules() of the row for a cell, or -1 if none. */
int dirTxnRuleFor(DirTxnType t, bool wired, DirEvent e, SenderRole r);

} // namespace widir::coherence

#endif // WIDIR_CORE_PROTOCOL_TABLE_H
