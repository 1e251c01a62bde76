/**
 * @file
 * Directory + LLC-slice controller for one tile.
 *
 * Implements the directory side of the protocol:
 *  - the wired MESI directory with Dir_3_B sharer tracking (3 pointers
 *    plus a broadcast bit) used by the Baseline configuration,
 *  - the WiDir Wireless (W) state and every directory transition of
 *    Table II: S->W with ToneAck census + selective jamming, W->W
 *    joins, W->S downgrades, and W->I wireless invalidations,
 *    decided by the rows of `dirRules()` (no transaction open) and
 *    `dirTxnRules()` (protocol_table.h),
 *  - the inclusive LLC slice (with recall of cached copies on LLC
 *    eviction) backed by main memory.
 *
 * The directory is *blocking per line*: while a transaction for a line
 * is in flight, new wired requests to that line are bounced (Nack) and
 * the requester retries -- the wired analog of the paper's jamming
 * primitive, as Section III-C1 notes.
 */

#ifndef WIDIR_CORE_DIRECTORY_CONTROLLER_H
#define WIDIR_CORE_DIRECTORY_CONTROLLER_H

#include <array>
#include <cstdint>
#include <string>

#include "core/fabric.h"
#include "core/messages.h"
#include "core/protocol_table.h"
#include "core/sharer_set.h"
#include "mem/cache_array.h"
#include "mem/flat_addr_map.h"
#include "sim/stats.h"
#include "wireless/frame.h"

namespace widir::coherence {

/**
 * Directory metadata for one resident line (Fig. 3 of the paper). It
 * lives in the line's LLC frame, so it exists exactly while the line
 * is in the (inclusive) LLC, and a filled or invalidated frame starts
 * from this default.
 */
struct DirEntry
{
    DirState state = DirState::I;
    SharerPtrs sharers;               ///< up to dirPointers entries
    bool bcast = false;               ///< Dir_3_B overflow (Baseline)
    sim::NodeId owner = sim::kNodeNone;
    std::uint32_t sharerCount = 0;    ///< W state census (Fig. 3)
};

using LlcFrame = mem::CacheFrame<DirEntry>;
using LlcArray = mem::CacheArray<DirEntry>;
static_assert(sizeof(LlcFrame) <= 120, "LLC frame grew past 120 bytes");

/** Directory slice + LLC bank controller. */
class DirectoryController
{
  public:
    struct LlcConfig
    {
        std::uint64_t sizeBytes = 512 * 1024; ///< per-tile bank
        std::uint32_t assoc = 8;
    };

    DirectoryController(CoherenceFabric &fabric, sim::NodeId node,
                        const LlcConfig &llc_cfg);

    sim::NodeId nodeId() const { return node_; }

    /** Wired message arrival (called by the fabric). */
    void receive(const Msg &msg);

    /** Wireless frame arrival (registered by the system layer). */
    void receiveFrame(const wireless::Frame &frame);

    /// @name Introspection for tests/checkers
    /// @{
    const DirEntry *entryOf(sim::Addr line) const;
    DirState stateOf(sim::Addr line) const;
    bool busy(sim::Addr line) const;
    LlcArray &llc() { return llc_; }
    /**
     * Mutable directory metadata for @p line, which must be in the LLC
     * (panics otherwise). Test support only: lets sys::checkCoherence's
     * negative tests corrupt a quiesced system's state.
     */
    DirEntry &mutableEntryForTest(sim::Addr line);
    /** Append one line per open transaction (watchdog dump). */
    void describeOutstanding(std::string &out) const;
    /** Times each dirRules() row was taken (coverage tests). */
    const auto &stableRuleHits() const { return stableRuleHits_; }
    /** Times each dirTxnRules() row was taken (coverage tests). */
    const auto &txnRuleHits() const { return txnRuleHits_; }
    /// @}

    /// @name Statistics
    /// @{
    struct Stats
    {
        std::uint64_t getS = 0;
        std::uint64_t getX = 0;
        std::uint64_t nacksSent = 0;
        std::uint64_t invsSent = 0;
        std::uint64_t bcastInvBursts = 0; ///< broadcast-bit inv storms
        std::uint64_t fwds = 0;
        std::uint64_t memFetches = 0;
        std::uint64_t memWritebacks = 0;
        std::uint64_t llcRecalls = 0;
        std::uint64_t toWireless = 0;   ///< S->W transitions
        std::uint64_t toShared = 0;     ///< W->S transitions
        std::uint64_t wJoins = 0;       ///< W->W wired joins
        std::uint64_t wirInvs = 0;      ///< W->I evictions
        std::uint64_t updatesObserved = 0; ///< WirUpd applied to LLC
        std::uint64_t dirAccesses = 0;
        /** Always 0; the benchmark PR deletes it (ROADMAP item 1). */
        std::uint64_t wirelessFallbacks = 0;
    };
    const Stats &stats() const { return stats_; }

    /** Address-map index rehashes (host_map_rehashes, docs/PERF.md). */
    std::uint64_t
    mapRehashes() const
    {
        return txns_.rehashes();
    }

    /**
     * Fig. 5: number of OTHER sharers updated by each wireless write
     * homed at this slice (bins: <=5, 6-10, 11-25, 26-49, 50+).
     */
    const sim::BinnedHistogram &
    sharersUpdatedHistogram() const
    {
        return sharersUpdated_;
    }
    /// @}

  private:
    /** Multi-message directory transaction kinds (protocol_table.h). */
    using TxnType = DirTxnType;

    struct DirTxn
    {
        TxnType type;
        sim::Addr line;
        sim::NodeId requester = sim::kNodeNone;
        MsgType reqType = MsgType::GetS;
        std::uint32_t acksExpected = 0;
        std::uint32_t acksReceived = 0;
        SharerPtrs ackIds;                ///< ToShared survivor ids
        std::uint32_t censusSharers = 0;  ///< ToWireless snapshot
        bool censusRequesterLeft = false; ///< requester evicted mid-census
        wireless::JamId jamId = 0;
        bool jamming = false;
        /**
         * ToShared only: cancellation token for the WirDwgr broadcast
         * and whether that frame has left the MAC (delivered back to
         * us, or withdrawn before committing). The transition must not
         * complete while the frame is still queued: racing PutWs can
         * drain the ack count to zero first, and an orphaned chip-wide
         * downgrade would ambush the line's next wireless epoch.
         */
        std::uint64_t frameToken = 0;
        bool frameResolved = false;
    };

    // -- dispatch: one row per event, one switch over its step ----------
    /** The Table II guards of @p msg's sender on @p frame (no effects). */
    DirGuards guardsOf(const Msg &msg, const LlcFrame *frame) const;
    SenderRole senderRole(const DirTxn &txn, const Msg &msg,
                          const LlcFrame *frame) const;
    void stepTxn(DirTxn &txn, DirEvent ev, const Msg &msg, LlcFrame *frame);
    /** An internal event for @p line's open transaction, as a message. */
    void ownEvent(DirEvent ev, sim::Addr line, LlcFrame *frame,
                  const mem::LineData *data = nullptr);
    /** The one switch: a Table II step gets @p rule, others @p txn. */
    void runStep(DirStep step, const Msg &msg, LlcFrame *frame,
                 DirTxn *txn, const DirRule *rule);
    /** Leave @p frame in @p rule's `to`, tracing its note if any. */
    void enter(LlcFrame &frame, const DirRule &rule, sim::Addr line,
               std::uint64_t arg = 0);
    /** Merge a message's line (if any) into the LLC copy. */
    void absorbData(LlcFrame *frame, const Msg &msg);

    // -- steps that span several events ----------------------------------
    void grant(sim::NodeId dst, sim::Addr line, GrantState state,
               const LlcFrame &llc_entry);
    /** End the line's transaction and grant @p requester its copy. */
    void endAndGrant(LlcFrame &frame, sim::NodeId requester,
                     GrantState state);
    /** Inv every target of @p e but @p except; returns how many. */
    std::uint32_t sendInvs(const LlcFrame &e, sim::NodeId except);
    void startToWireless(const Msg &msg, LlcFrame &entry);
    void admitJoiner(DirTxn &txn, sim::NodeId requester);
    void maybeStartToShared(LlcFrame &entry);
    void maybeFinishToShared(DirTxn &txn, LlcFrame &entry);
    void finishToShared(DirTxn &txn, LlcFrame &entry);

    // -- LLC management -----------------------------------------------------
    /**
     * Create room for @p line, which is not resident, in the LLC.
     * Returns nullptr if the set is blocked (recall started or all
     * frames locked), in which case the requester must be bounced.
     */
    LlcFrame *makeRoom(sim::Addr line);
    void startRecall(LlcFrame *victim);
    void finishRecall(LlcFrame &e);
    void writebackIfDirty(LlcFrame *e);

    // -- tracing (sim/trace.h; no-ops unless the tracer is enabled) ----
    void traceState(sim::Addr line, DirState from, DirState to,
                    const char *why, std::uint64_t arg = 0);
    void traceTxn(sim::TraceKind kind, const DirTxn &txn);
    sim::TraceRecord record(sim::TraceKind kind, sim::Addr line) const;

    // -- plumbing -------------------------------------------------------------
    DirTxn *txnOf(sim::Addr line);
    /** Open a transaction; it locks @p frame (null: not resident). */
    DirTxn &beginTxn(TxnType type, sim::Addr line, LlcFrame *frame);
    void endTxn(sim::Addr line, LlcFrame *frame);
    void nack(const Msg &msg);
    void send(Msg msg, sim::Tick extra_delay = 0);

    CoherenceFabric &fabric_;
    sim::NodeId node_;
    LlcArray llc_;
    mem::FlatAddrMap<DirTxn> txns_;
    Stats stats_;
    sim::BinnedHistogram sharersUpdated_{{5, 10, 25, 49}, true};
    std::array<std::uint32_t, kNumDirRules> stableRuleHits_{};
    std::array<std::uint32_t, kNumDirTxnRules> txnRuleHits_{};
};

} // namespace widir::coherence

#endif // WIDIR_CORE_DIRECTORY_CONTROLLER_H
