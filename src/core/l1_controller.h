/**
 * @file
 * Private-cache (L1D) coherence controller.
 *
 * Implements the cache side of the MESI directory protocol plus the
 * WiDir Wireless (W) state: all the private-cache transitions of
 * Table I of the paper, the UpdateCount self-invalidation mechanism
 * (Section III-B2), and the wireless write / wireless RMW path with
 * squash-and-retry semantics (Section IV-C).
 *
 * The CPU model calls read()/write()/rmw(); each call carries an opaque
 * token and completes through the completion callback, after the L1 hit
 * latency on hits or after the full coherence transaction on misses.
 */

#ifndef WIDIR_CORE_L1_CONTROLLER_H
#define WIDIR_CORE_L1_CONTROLLER_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/fabric.h"
#include "core/messages.h"
#include "core/protocol_table.h"
#include "mem/cache_array.h"
#include "mem/flat_addr_map.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "wireless/frame.h"

namespace widir::coherence {

/** Per-line L1 metadata, kept in the line's cache frame. */
struct L1Line
{
    L1State state = L1State::I;
    /**
     * WiDir: wireless updates received since the local core last touched
     * the line (saturating; see UpdateCount, Section III-B2).
     */
    std::uint8_t updateCount = 0;
};

using L1Frame = mem::CacheFrame<L1Line>;
using L1Array = mem::CacheArray<L1Line>;
static_assert(sizeof(L1Frame) == 88, "L1 frame grew past 88 bytes");

/** Private L1 data cache + coherence controller for one tile. */
class L1Controller
{
  public:
    /**
     * Completion callback: (token, load_value). Stores/RMWs report the
     * pre-op / final value as documented per call.
     */
    using CompletionFn =
        std::function<void(std::uint64_t token, std::uint64_t value)>;

    struct CacheConfig
    {
        std::uint64_t sizeBytes = 64 * 1024; ///< Table III: 64 KB
        std::uint32_t assoc = 2;             ///< 2-way
    };

    L1Controller(CoherenceFabric &fabric, sim::NodeId node,
                 const CacheConfig &cache_cfg);

    sim::NodeId nodeId() const { return node_; }

    /** Register the CPU-side completion callback. */
    void setCompletion(CompletionFn fn) { complete_ = std::move(fn); }

    /// @name CPU-facing operations (all addresses 8-byte aligned)
    /// @{
    /** Load a 64-bit word; completes with the loaded value. */
    void read(sim::Addr addr, std::uint64_t token);

    /** Store a 64-bit word; completes with the stored value. */
    void write(sim::Addr addr, std::uint64_t value, std::uint64_t token);

    /**
     * Atomic read-modify-write: applies @p modify to the current word
     * value at the serialization point; completes with the OLD value.
     */
    void rmw(sim::Addr addr,
             std::function<std::uint64_t(std::uint64_t)> modify,
             std::uint64_t token);
    /// @}

    /** Wired message arrival (called by the fabric). */
    void receive(const Msg &msg);

    /** Wireless frame arrival (registered with the data channel). */
    void receiveFrame(const wireless::Frame &frame);

    /// @name Introspection for tests and checkers
    /// @{
    L1State stateOf(sim::Addr addr) const;
    /** Functional word value if present, or std::nullopt semantics via ok. */
    bool peekWord(sim::Addr addr, std::uint64_t &value) const;
    L1Array &array() { return array_; }
    /// @}

    /// @name Statistics
    /// @{
    struct Stats
    {
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t rmws = 0;
        std::uint64_t loadHits = 0;
        std::uint64_t storeHits = 0;
        std::uint64_t readMisses = 0;   ///< transactions begun by a read
        std::uint64_t writeMisses = 0;  ///< transactions begun by a write
        std::uint64_t nacksSeen = 0;
        std::uint64_t evictions = 0;
        std::uint64_t putWSent = 0;
        std::uint64_t selfInvalidations = 0; ///< UpdateCount expiries
        std::uint64_t wirelessWrites = 0;    ///< committed WirUpd frames
        std::uint64_t wirelessSquashes = 0;  ///< pending writes squashed
        std::uint64_t updatesApplied = 0;    ///< remote WirUpd applied
        /** Always 0; the benchmark PR deletes it (ROADMAP item 1). */
        std::uint64_t wirelessFallbacks = 0;
    };
    const Stats &stats() const { return stats_; }

    /** Append one line per outstanding transaction (watchdog dump). */
    void describeOutstanding(std::string &out) const;
    /** Times each l1TxnRules() row was taken (coverage tests). */
    const auto &txnRuleHits() const { return txnRuleHits_; }

    /** Address-map index rehashes (host_map_rehashes, docs/PERF.md). */
    std::uint64_t
    mapRehashes() const
    {
        return txns_.rehashes() + wirelessTxns_.rehashes();
    }
    /// @}

  private:
    /** Why a wired transaction is outstanding. */
    enum class TxnKind : std::uint8_t { Read, Write, Rmw };

    /** One pending CPU operation attached to a transaction. */
    struct PendingOp
    {
        TxnKind kind;
        std::uint64_t token;
        std::uint64_t storeValue = 0;
        std::function<std::uint64_t(std::uint64_t)> modify;
        sim::Addr addr = sim::kAddrNone; ///< full word address
    };

    /** A granted fill waiting for a way, and what met it meanwhile. */
    struct Landing
    {
        Msg grant;
        std::vector<std::variant<Msg, wireless::Frame>> waiting;
    };

    /** Outstanding wired transaction for one line (one max per line). */
    struct Txn
    {
        sim::Addr line;
        /**
         * Per-controller sequence number. A Nack's retry timer can
         * outlive its transaction; it resends only while the open
         * transaction for its line is still the one it was set for.
         */
        std::uint32_t seq;
        MsgType request;          ///< GetS or GetX
        bool toneHeld = false;    ///< census waits on this txn
        /**
         * A BrWirUpgr census caught this request in flight: a line
         * that arrives must be installed in W, not S (Section III-B1,
         * completion case iii -- the census already counted us).
         */
        bool fillAsW = false;
        std::vector<PendingOp> ops;
        std::uint32_t retries = 0;
        /** Set while every way of the set is pinned (L1Phase::Landing). */
        std::unique_ptr<Landing> landing;
    };

    /**
     * Pending wireless transmission state. Exactly one op rides the
     * in-flight frame; later same-line writes wait in `deferred` and
     * transmit their own frames in order (every wireless write is its
     * own WirUpd broadcast).
     */
    struct WirelessTxn
    {
        sim::Addr line;
        std::uint64_t channelToken = 0;
        PendingOp op;
        std::vector<PendingOp> deferred;
    };

    // -- in-transaction table (l1TxnRules()) ---------------------------
    /** The counted l1TxnRules() step, or Stable with no txn open. */
    L1Step txnStep(sim::Addr line, L1Event ev);

    // -- CPU op entry points ------------------------------------------
    void startMiss(const PendingOp &op, sim::Addr line);
    void sendRequest(Txn &txn);
    void retryAfterNack(Txn &txn);

    // -- wireless write path (Section IV-C) ---------------------------
    void issueWirelessWrite(const PendingOp &op);
    void wirelessCommit(sim::Addr line);
    void squashWireless(sim::Addr line);

    // -- fills, hits, evictions ----------------------------------------
    void completeOps(std::vector<PendingOp> ops);
    /**
     * Install @p grant and retire its transaction, then drop a held
     * tone, ack a join, drain the queued ops and answer what waited.
     * Draining earlier would re-request a grant the directory has
     * already accounted (double-counting the node in a census).
     * @return false, changing nothing, while the set is fully pinned.
     */
    bool landFill(const Msg &grant);
    /**
     * Retry a landing fill 4 cycles from now; a fill that holds the
     * census tone first squashes one of this node's uncommitted
     * wireless writes in its set.
     */
    void retryLanding(sim::Addr line);
    void evict(L1Frame *victim);

    // -- incoming wired handlers ---------------------------------------
    void handleInv(const Msg &msg);
    void handleFwd(const Msg &msg);

    // -- tracing (sim/trace.h; no-ops unless the tracer is enabled) ----
    void traceState(sim::Addr line, L1State from, L1State to,
                    const char *why);
    void traceMshr(sim::TraceKind kind, sim::Addr line, const char *req,
                   const char *why);

    // -- incoming wireless handlers (Table I) --------------------------
    void handleWirUpd(const wireless::Frame &frame);
    /** BrWirUpgr census; @p step is Stable, HoldTone or SatisfyUpgrade. */
    void handleBrWirUpgr(sim::Addr line, L1Step step);
    void handleWirDwgr(const wireless::Frame &frame);
    void handleWirInv(const wireless::Frame &frame);

    /** Drop the census tone held for @p txn if any. */
    void dropToneIfHeld(Txn &txn);

    void send(Msg msg);
    void complete(std::uint64_t token, std::uint64_t value);

    CoherenceFabric &fabric_;
    sim::NodeId node_;
    L1Array array_;
    sim::Rng rng_;
    CompletionFn complete_;
    mem::FlatAddrMap<Txn> txns_;
    mem::FlatAddrMap<WirelessTxn> wirelessTxns_;
    Stats stats_;
    std::array<std::uint32_t, kNumL1TxnRules> txnRuleHits_{};
    /** Txn::seq of the next transaction this controller opens. */
    std::uint32_t nextTxnSeq_ = 0;
};

} // namespace widir::coherence

#endif // WIDIR_CORE_L1_CONTROLLER_H
