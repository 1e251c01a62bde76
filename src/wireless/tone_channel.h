/**
 * @file
 * The 90 GHz tone channel and the ToneAck primitive (Section III-C2).
 *
 * ToneAck is a wired-OR global acknowledgment: after a triggering
 * data-channel broadcast, every transceiver except the initiator emits
 * a continuous tone; each node drops its tone once it has finished its
 * local obligation; the initiator learns that every node is done when
 * the channel falls silent. Tone transfer latency is one cycle
 * (Table III), so silence is observed one cycle after the last tone is
 * dropped.
 *
 * Because the channel is a single wired-OR, overlapping censuses
 * cannot be told apart; the model therefore completes a census when
 * the OR of ALL outstanding obligations falls silent. That is exactly
 * what the physical initiator would observe, and it is conservative:
 * a census can only finish late (waiting for another census's
 * stragglers), never early. Overlap matters in practice -- bursts of
 * S->W transitions on different lines would otherwise serialize.
 */

#ifndef WIDIR_WIRELESS_TONE_CHANNEL_H
#define WIDIR_WIRELESS_TONE_CHANNEL_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "sim/log.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace widir::wireless {

using sim::NodeId;
using sim::Simulator;
using sim::Tick;

/** Wired-OR acknowledgment channel (overlapping censuses allowed). */
class ToneChannel
{
  public:
    /**
     * Missed silence pulses an initiator re-polls before it takes the
     * silence as observed; the census then completes late, never
     * wrongly.
     */
    static constexpr std::uint32_t kMaxRepolls = 8;

    ToneChannel(Simulator &sim, std::uint32_t num_nodes,
                Tick tone_latency = 1)
        : sim_(sim), numNodes_(num_nodes), toneLatency_(tone_latency)
    {
    }

    /**
     * Begin a census: @p participants nodes are now (conceptually)
     * holding their tone and will drop() once their local obligation
     * completes. @p on_silent fires -- after the one-cycle tone
     * latency -- when the WHOLE channel falls silent, i.e. when every
     * obligation of every in-flight census has completed.
     */
    void
    beginCensus(std::uint32_t participants,
                std::function<void()> on_silent)
    {
        ++censuses_;
        ++activeCensuses_;
        outstanding_ += participants;
        sim::Tracer &tracer = sim_.tracer();
        if (sim::kTraceCompiled && tracer.enabled()) {
            sim::TraceRecord r;
            r.tick = sim_.now();
            r.kind = sim::TraceKind::ToneCensusBegin;
            r.comp = sim::TraceComponent::ToneChannel;
            r.arg = participants;
            tracer.emit(r);
        }
        waiters_.push_back(std::move(on_silent));
        if (outstanding_ == 0)
            finish();
    }

    /** A participant raises its tone (bookkeeping only). */
    void
    raise()
    {
        ++raised_;
    }

    /** A participant finished its obligation and drops its tone. */
    void
    drop()
    {
        WIDIR_ASSERT(outstanding_ > 0, "tone underflow");
        if (--outstanding_ == 0)
            finish();
    }

    /**
     * Attach the fault-injection sampler (null: clean channel). With
     * faults, a census initiator can miss the one-cycle silence pulse
     * (tone-pulse loss) and re-polls after an exponentially growing
     * interval, at most kMaxRepolls times -- latency only, the census
     * outcome is unchanged.
     */
    void setFaultModel(fault::FaultModel *model) { fault_ = model; }

    /** Number of censuses begun (for stats/energy). */
    std::uint64_t censuses() const { return censuses_; }

    /** Missed silence pulses re-polled (zero on a clean channel). */
    std::uint64_t toneRetries() const { return toneRetries_; }

    /** True while any census is in flight. */
    bool busy() const { return activeCensuses_ > 0; }

    /** Outstanding tone count over all active censuses. */
    std::uint32_t outstanding() const { return outstanding_; }

  private:
    void
    finish()
    {
        // Hand every waiting initiator its completion one tone-latency
        // later. New censuses may begin in between; they get their own
        // silence later.
        std::vector<std::function<void()>> done;
        done.swap(waiters_);
        sim::Tracer &tracer = sim_.tracer();
        if (sim::kTraceCompiled && tracer.enabled()) {
            sim::TraceRecord r;
            r.tick = sim_.now();
            r.kind = sim::TraceKind::ToneCensusEnd;
            r.comp = sim::TraceComponent::ToneChannel;
            r.arg = done.size(); // censuses completed by this silence
            tracer.emit(r);
        }
        activeCensuses_ = 0;
        sim_.scheduleInline(toneLatency_,
                            [this, done = std::move(done)]() mutable {
            for (auto &cb : done)
                deliverSilence(std::move(cb), 0);
        });
    }

    /**
     * Hand one initiator its silence observation, or -- under injected
     * tone-pulse loss -- make it re-poll later. deliverSilence calls
     * the callback synchronously on the clean path, so with no fault
     * model the event structure is identical to a build without fault
     * injection (pay-for-what-you-use byte-identity).
     */
    void
    deliverSilence(std::function<void()> cb, std::uint32_t attempt)
    {
        if (!cb)
            return;
        if (fault_ && attempt < kMaxRepolls && fault_->sampleToneLoss()) {
            ++toneRetries_;
            sim::Tracer &tracer = sim_.tracer();
            if (sim::kTraceCompiled && tracer.enabled()) {
                sim::TraceRecord r;
                r.tick = sim_.now();
                r.kind = sim::TraceKind::ToneRetry;
                r.comp = sim::TraceComponent::ToneChannel;
                r.arg = attempt + 1;
                tracer.emit(r);
            }
            // Exponentially spaced re-polls; delivery may then lag the
            // physical silent instant, which is conservative (a census
            // can only finish late, never early).
            Tick delay = toneLatency_
                         << std::min<std::uint32_t>(attempt + 1, 6);
            sim_.schedule(delay,
                          [this, cb = std::move(cb), attempt]() mutable {
                              deliverSilence(std::move(cb), attempt + 1);
                          });
            return;
        }
        cb();
    }

    Simulator &sim_;
    std::uint32_t numNodes_;
    Tick toneLatency_;
    fault::FaultModel *fault_ = nullptr; ///< null: clean channel
    std::uint32_t outstanding_ = 0;
    std::uint32_t activeCensuses_ = 0;
    std::uint64_t raised_ = 0;
    std::uint64_t censuses_ = 0;
    std::uint64_t toneRetries_ = 0;
    std::vector<std::function<void()>> waiters_;
};

} // namespace widir::wireless

#endif // WIDIR_WIRELESS_TONE_CHANNEL_H
