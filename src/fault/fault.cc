#include "fault/fault.h"

#include <cmath>

#include "sim/log.h"

namespace widir::fault {

namespace {

bool
isProb(double p)
{
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

void
append(std::string &out, const std::string &msg)
{
    if (!out.empty())
        out += "; ";
    out += msg;
}

/** Per-frame corruption probability for a given bit error rate. */
double
frameCorruptProb(double ber, std::uint32_t frame_bits)
{
    if (ber <= 0.0)
        return 0.0;
    if (ber >= 1.0)
        return 1.0;
    // 1 - (1-ber)^bits, computed in log space so tiny BERs survive.
    return -std::expm1(static_cast<double>(frame_bits) *
                       std::log1p(-ber));
}

} // namespace

std::string
FaultSpec::validate() const
{
    std::string err;
    if (!isProb(ber))
        append(err, "ber must be in [0, 1]");
    if (!isProb(preambleLossProb))
        append(err, "preambleLossProb must be in [0, 1]");
    if (!isProb(toneLossProb))
        append(err, "toneLossProb must be in [0, 1]");
    if (!isProb(burstBer))
        append(err, "burstBer must be in [0, 1]");
    if (!isProb(burstEnterProb))
        append(err, "burstEnterProb must be in [0, 1]");
    if (!isProb(burstExitProb))
        append(err, "burstExitProb must be in [0, 1]");
    if (burstEnterProb > 0.0 && burstExitProb <= 0.0)
        append(err, "burstExitProb must be > 0 when bursts can start");
    if (frameBits == 0)
        append(err, "frameBits must be > 0");
    // A faulted frame retries until it gets through, so a spec that
    // faults every frame could never finish a run.
    if (preambleLossProb == 1.0)
        append(err, "preambleLossProb 1 loses every frame");
    if (isProb(ber) && frameBits > 0 &&
        frameCorruptProb(ber, frameBits) == 1.0)
        append(err, "ber corrupts every frame");
    return err;
}

FaultModel::FaultModel(const FaultSpec &spec, sim::Rng rng)
    : spec_(spec), rng_(rng)
{
    std::string err = spec_.validate();
    WIDIR_ASSERT(err.empty(), "invalid FaultSpec: %s", err.c_str());
    pCorruptGood_ = frameCorruptProb(spec_.ber, spec_.frameBits);
    pCorruptBad_ = frameCorruptProb(spec_.burstBer, spec_.frameBits);
}

FrameFate
FaultModel::sampleFrame()
{
    ++framesSampled_;
    // Fixed draw order: (1) Gilbert-Elliott transition, (2) preamble,
    // (3) payload corruption. Every draw happens on every sample so
    // the stream position depends only on the sample count.
    if (bad_) {
        if (rng_.chance(spec_.burstExitProb))
            bad_ = false;
    } else if (rng_.chance(spec_.burstEnterProb)) {
        bad_ = true;
        ++burstsEntered_;
    }
    bool preamble_lost = rng_.chance(spec_.preambleLossProb);
    bool corrupt = rng_.chance(bad_ ? pCorruptBad_ : pCorruptGood_);
    if (preamble_lost)
        return FrameFate::PreambleLoss;
    return corrupt ? FrameFate::Corrupt : FrameFate::Clean;
}

bool
FaultModel::sampleToneLoss()
{
    return rng_.chance(spec_.toneLossProb);
}

} // namespace widir::fault
