/**
 * @file
 * widir::fault -- deterministic fault injection for the wireless
 * substrate (docs/FAULTS.md).
 *
 * The paper models the mm-wave channel as lossless apart from BRS MAC
 * collisions. This subsystem relaxes that: frames can be corrupted by
 * bit errors (detected by the receivers' CRC), preambles can be lost
 * to fades, tone pulses can be missed by a census initiator, and the
 * channel can enter bursty bad periods (a two-state Gilbert-Elliott
 * model). Everything is sampled from a private sim::Rng stream, so a
 * faulted run is a pure function of (configuration, seed) -- and with
 * every rate at zero no FaultModel is even constructed, so the layer
 * is provably pay-for-what-you-use (runs are byte-identical to builds
 * without it).
 *
 * Fault fates are sampled once per channel acquisition, *before* the
 * commit point. A corrupted or preamble-lost frame therefore never
 * commits and never reaches any receiver: each attempt is
 * all-or-nothing, which preserves the commit point's role as the
 * protocol's serialization point. Recovery lives in the channels,
 * not here: a faulted frame retries through the BRS backoff until it
 * gets through, and a missed silence pulse is re-polled.
 */

#ifndef WIDIR_FAULT_FAULT_H
#define WIDIR_FAULT_FAULT_H

#include <cstdint>
#include <string>

#include "sim/rng.h"

namespace widir::fault {

/**
 * Fault-injection knobs. All rates default to zero (a clean channel);
 * FaultSpec is carried by value inside sys::ExperimentSpec and
 * sys::SystemConfig, and validate() is folded into
 * ExperimentSpec::validate().
 */
struct FaultSpec
{
    /** Bit error rate on the data channel while in the good state. */
    double ber = 0.0;
    /** Probability a lone acquisition loses its preamble to a fade. */
    double preambleLossProb = 0.0;
    /** Probability a census initiator misses the silence tone pulse. */
    double toneLossProb = 0.0;

    /// @name Gilbert-Elliott bursty fades
    ///
    /// A two-state channel: `ber` applies in the Good state, `burstBer`
    /// in the Bad state. The state advances once per sampled frame with
    /// the given transition probabilities. burstEnterProb = 0 (the
    /// default) disables the Bad state entirely.
    /// @{
    double burstBer = 0.0;       ///< BER while in the Bad state
    double burstEnterProb = 0.0; ///< Good -> Bad, per sampled frame
    double burstExitProb = 0.1;  ///< Bad -> Good, per sampled frame
    /// @}

    /**
     * Bits protected by the frame CRC: a 64-bit word plus its address
     * signature (Table III's 4-cycle payload at 20 Gb/s). The per-frame
     * corruption probability is 1 - (1 - ber)^frameBits.
     */
    std::uint32_t frameBits = 80;

    /** Extra stream perturbation for the fault Rng (seed sweeps). */
    std::uint64_t seed = 0;

    /** True if any fault can ever fire. */
    bool
    enabled() const
    {
        return ber > 0.0 || preambleLossProb > 0.0 ||
               toneLossProb > 0.0 ||
               (burstEnterProb > 0.0 && burstBer > 0.0);
    }

    /**
     * Empty string if valid, else a description of every problem. A
     * spec under which no frame can ever get through (a preamble lost
     * or a payload corrupted with certainty) is invalid: faulted
     * frames retry until they are delivered.
     */
    std::string validate() const;
};

/** Outcome of one data-channel acquisition. */
enum class FrameFate : std::uint8_t
{
    Clean,        ///< frame commits and delivers normally
    PreambleLoss, ///< preamble faded: detected in the collision window
    Corrupt,      ///< payload corrupted: every receiver's CRC rejects
};

/**
 * The sampling engine. One instance per Manycore, shared by the data
 * and tone channels; constructed only when the spec is enabled() so a
 * clean run never touches the stream.
 */
class FaultModel
{
  public:
    FaultModel(const FaultSpec &spec, sim::Rng rng);

    /**
     * Sample the fate of one lone channel acquisition. Draw order is
     * fixed (burst transition, preamble, corruption) so a run is
     * reproducible for a given (spec, seed).
     */
    FrameFate sampleFrame();

    /** Sample whether a census initiator misses the silence pulse. */
    bool sampleToneLoss();

    const FaultSpec &spec() const { return spec_; }

    /** Currently in the Gilbert-Elliott Bad state. */
    bool inBurst() const { return bad_; }

    /// @name Sampling statistics
    /// @{
    std::uint64_t framesSampled() const { return framesSampled_; }
    std::uint64_t burstsEntered() const { return burstsEntered_; }
    /// @}

  private:
    FaultSpec spec_;
    sim::Rng rng_;
    bool bad_ = false;
    double pCorruptGood_ = 0.0; ///< 1 - (1 - ber)^frameBits
    double pCorruptBad_ = 0.0;  ///< same for burstBer
    std::uint64_t framesSampled_ = 0;
    std::uint64_t burstsEntered_ = 0;
};

} // namespace widir::fault

#endif // WIDIR_FAULT_FAULT_H
