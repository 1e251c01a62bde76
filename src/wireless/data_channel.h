/**
 * @file
 * The wireless data channel with the BRS MAC protocol.
 *
 * Physical/MAC model (paper Table III and Section III-A):
 *  - Single shared broadcast medium at 60 GHz, 20 Gb/s: a 64-bit word
 *    plus its address transfers in 4 cycles; collision detection adds
 *    one cycle, so a successful frame occupies the channel for 5
 *    cycles.
 *  - BRS: a node with data listens until the medium is free, transmits
 *    a 1-cycle preamble, leaves the second cycle empty to detect a
 *    collision report, and on collision squashes and retries after an
 *    exponential back-off.
 *  - Timeline of a successful frame starting at cycle T:
 *        T       preamble
 *        T+1     collision-detect window (idle)  -> COMMIT point
 *        T+2..   remaining payload cycles
 *        T+5     frame fully received by every transceiver
 *    The commit point is where a wireless write becomes guaranteed to
 *    transmit (Section IV-C): the sender's onCommit callback runs
 *    there, and the frame is the serialization point of the protocol.
 *
 * Selective Data-Channel Jamming (Section III-C1): a directory can
 * register a jam filter for a line. While active, any frame whose
 * first-cycle address bits match the filter is negative-acked in the
 * collision-detect cycle exactly as if it had collided; the sender
 * backs off and retries. Because only `jamAddrBits` of the line address
 * fit in the first cycle, filters can hit false positives, which the
 * paper explicitly allows.
 */

#ifndef WIDIR_WIRELESS_DATA_CHANNEL_H
#define WIDIR_WIRELESS_DATA_CHANNEL_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "mem/address.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/types.h"
#include "wireless/frame.h"

namespace widir::wireless {

using sim::Simulator;
using sim::Tick;

/** Data channel configuration (Table III defaults). */
struct DataChannelConfig
{
    std::uint32_t numNodes = 64;
    /**
     * Frequency-multiplexed data sub-channels. 1 models the paper's
     * single 20 Gb/s broadcast medium; N > 1 splits the band into N
     * independent media, each with its own BRS arbitration, and
     * assigns every frame to the sub-channel of its line address --
     * same-line frames always share a medium, so the commit point
     * stays the per-line serialization point.
     */
    std::uint32_t numChannels = 1;
    Tick transferCycles = 4;   ///< payload incl. preamble
    Tick collisionCycles = 1;  ///< detect window
    Tick commitOffset = 2;     ///< preamble + detect -> guaranteed
    std::uint32_t maxBackoffExp = 6; ///< cap of the exponential window
    Tick backoffSlot = 5;      ///< one slot = one frame time
    std::uint32_t jamAddrBits = 12; ///< address bits visible in cycle 1
    /**
     * Non-persistent carrier sense: cycles of random stagger applied
     * when a deferred station re-senses after a busy period.
     */
    Tick resenseWindow = 12;
};

/** Handle identifying an active jam filter. */
using JamId = std::uint64_t;

/**
 * Shared broadcast medium with BRS MAC, collision handling and
 * selective jamming.
 */
class DataChannel
{
  public:
    /** Called at every node when a frame is fully received. */
    using RxHandler = std::function<void(const Frame &)>;

    DataChannel(Simulator &sim, const DataChannelConfig &cfg);

    /** Register node @p n's receive handler (all frames, incl. own). */
    void setReceiver(sim::NodeId n, RxHandler handler);

    /**
     * Queue @p frame for transmission from frame.src.
     *
     * The sender keeps retrying through back-off on collisions, jams
     * and injected faults (docs/FAULTS.md) until it succeeds or is
     * cancelled: the channel never drops a frame.
     *
     * @param on_commit Runs at the commit point (transmission
     *                  guaranteed); may be null. Hot path: keep the
     *                  captures within sim::InlineEvent's budget.
     * @return a token that can cancel the pending transmission.
     */
    std::uint64_t transmit(const Frame &frame, sim::EventFn on_commit);

    /**
     * Attach the fault-injection sampler (null: clean channel). Set
     * once at system build; the model is shared with the tone channel.
     */
    void setFaultModel(fault::FaultModel *model) { fault_ = model; }

    /**
     * Cancel a transmission that has not yet committed (used when a
     * WirInv squashes a pending wireless write, Section IV-C).
     * @return true if the transmission was still pending.
     */
    bool cancelPending(std::uint64_t token);

    /**
     * Activate a jam filter for @p line owned by node @p owner. The
     * filter kills WirUpd frames whose first-cycle address bits match;
     * directory control frames (BrWirUpgr/WirDwgr/WirInv) always pass,
     * and no sender is exempt -- the core co-located with the jamming
     * directory is blocked too.
     */
    JamId startJamming(sim::NodeId owner, sim::Addr line);

    /** Deactivate a jam filter. */
    void stopJamming(JamId id);

    /** Append one line per frame still queued (watchdog dump). */
    void describePending(std::string &out) const;

    /// @name Statistics
    /// @{
    std::uint64_t successes() const { return successes_; }
    std::uint64_t collisionEvents() const { return collisionEvents_; }
    std::uint64_t jamRejects() const { return jamRejects_; }
    std::uint64_t txAttempts() const { return attempts_; }

    /// @name Fault-injection statistics (all zero on a clean channel)
    /// @{
    /** Acquisitions whose payload an injected bit error corrupted. */
    std::uint64_t crcErrors() const { return crcErrors_; }
    /** Acquisitions whose preamble an injected fade erased. */
    std::uint64_t preambleLosses() const { return preambleLosses_; }
    /** Backoff retries caused by injected faults. */
    std::uint64_t faultRetries() const { return faultRetries_; }
    /** Always 0; the benchmark PR deletes it (ROADMAP item 1). */
    std::uint64_t faultDrops() const { return 0; }
    /// @}
    /** Busy cycles (for energy: medium occupied). */
    std::uint64_t busyCycles() const { return busyCycles_; }

    /**
     * Collision probability as the paper reports it (Table VI): the
     * fraction of channel acquisitions that end in a collision rather
     * than a successful transmission.
     */
    double
    collisionProbability() const
    {
        std::uint64_t denom = collisionEvents_ + successes_;
        return denom == 0
            ? 0.0
            : static_cast<double>(collisionEvents_) /
                  static_cast<double>(denom);
    }
    /// @}

  private:
    struct PendingTx
    {
        std::uint64_t token;
        Frame frame;
        Tick readyAt;
        std::uint32_t attempt = 0;
        std::uint32_t faultRetries = 0; ///< injected-fault retries so far
        sim::EventFn onCommit;
        bool cancelled = false;
    };

    struct JamFilter
    {
        JamId id;
        sim::NodeId owner;
        std::uint64_t maskedLine; ///< low jamAddrBits of line number
    };

    Tick frameCycles() const
    {
        return cfg_.transferCycles + cfg_.collisionCycles;
    }

    /**
     * Per-sub-channel MAC state: every field the single-medium model
     * kept as a member, one copy per frequency band. Sub-channels
     * arbitrate independently; the shared RNG is drawn in event order,
     * which at numChannels == 1 is exactly the historical sequence.
     */
    struct Channel
    {
        std::vector<PendingTx> pending;
        Tick busyUntil = 0;
        Tick evalAt = sim::kTickNever;
        std::uint64_t evalGen = 0;
        bool deliveryPending = false;
        Tick deliveryAt = 0;
    };

    /** Sub-channel of @p line under the assignment policy. */
    std::uint32_t channelOf(sim::Addr line) const;

    /** Low-bit line-number signature used for jam matching. */
    std::uint64_t signature(sim::Addr line) const;

    /** True if some other node's filter matches this frame. */
    bool jammedBy(const PendingTx &tx) const;

    /** Emit one MAC-event trace record (no-op unless tracing). */
    void traceFrame(sim::TraceKind kind, const Frame &frame,
                    std::uint64_t arg = 0);

    /** (Re)schedule an arbitration pass for sub-channel @p ch. */
    void scheduleEval(std::uint32_t ch);

    /** Arbitration: run BRS on sub-channel @p ch for this instant. */
    void evaluate(std::uint32_t ch);

    Simulator &sim_;
    DataChannelConfig cfg_;
    sim::Rng rng_;
    fault::FaultModel *fault_ = nullptr; ///< null: clean channel
    std::vector<RxHandler> receivers_;
    /**
     * One independent BRS medium per frequency band. channels_[0] is
     * the whole story at the default numChannels == 1; the eval
     * generation / delivery-pending commentary of the single-medium
     * model applies per element.
     */
    std::vector<Channel> channels_;
    std::vector<JamFilter> jams_;
    std::uint64_t nextToken_ = 1;
    JamId nextJamId_ = 1;

    std::uint64_t successes_ = 0;
    std::uint64_t collisionEvents_ = 0;
    std::uint64_t collisionsSampled_ = 0;
    std::uint64_t jamRejects_ = 0;
    std::uint64_t attempts_ = 0;
    std::uint64_t busyCycles_ = 0;
    std::uint64_t crcErrors_ = 0;
    std::uint64_t preambleLosses_ = 0;
    std::uint64_t faultRetries_ = 0;
};

} // namespace widir::wireless

#endif // WIDIR_WIRELESS_DATA_CHANNEL_H
