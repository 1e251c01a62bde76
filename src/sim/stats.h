/**
 * @file
 * Lightweight statistics containers.
 *
 * Components own their counters/histograms directly (no global registry
 * indirection); the system layer aggregates them into reports. The
 * containers here keep the arithmetic (means, binning) in one audited
 * place.
 */

#ifndef WIDIR_SIM_STATS_H
#define WIDIR_SIM_STATS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/log.h"

namespace widir::sim {

/** Running scalar average (count / sum / mean). */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    double
    mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Histogram over user-defined, contiguous, inclusive integer bins.
 *
 * The paper reports several binned distributions (Fig. 5 sharer counts,
 * Table V hop counts); BinnedHistogram reproduces that reporting style.
 * Samples above the last bin's upper bound are clamped into the last
 * bin; this matches "50+"-style open-ended top bins.
 */
class BinnedHistogram
{
  public:
    struct Bin
    {
        std::uint64_t lo;
        std::uint64_t hi; // inclusive
        std::uint64_t count = 0;
    };

    /**
     * Build from inclusive upper bounds; e.g. {5, 10, 25, 49} with
     * openTop=true yields bins [0,5], [6,10], [11,25], [26,49], [50,inf).
     */
    explicit BinnedHistogram(const std::vector<std::uint64_t> &upper_bounds,
                             bool open_top = true)
    {
        std::uint64_t lo = 0;
        for (std::uint64_t hi : upper_bounds) {
            WIDIR_ASSERT(hi >= lo, "histogram bounds must be increasing");
            bins_.push_back(Bin{lo, hi, 0});
            lo = hi + 1;
        }
        if (open_top)
            bins_.push_back(Bin{lo, UINT64_MAX, 0});
        WIDIR_ASSERT(!bins_.empty(), "histogram needs at least one bin");
    }

    void
    sample(std::uint64_t v, std::uint64_t weight = 1)
    {
        total_ += weight;
        // 128-bit accumulator: v * weight already overflows uint64 for
        // plausible inputs (v ~ 2^40 latencies x weight ~ 2^24 merged
        // bin counts), and the old 64-bit sum wrapped silently,
        // corrupting mean() with no other symptom.
        weighted_sum_ += static_cast<unsigned __int128>(v) * weight;
        for (auto &bin : bins_) {
            if (v >= bin.lo && v <= bin.hi) {
                bin.count += weight;
                return;
            }
        }
        // Closed-top histograms (open_top=false) clamp above-range
        // samples into the last bin, like the open-top "50+" bins but
        // with a recorded count so the clamping is observable. With
        // open_top=true the last bin spans [lo, UINT64_MAX] and the
        // loop above always returns, so this path never runs.
        bins_.back().count += weight;
        clamped_ += weight;
    }

    const std::vector<Bin> &bins() const { return bins_; }
    std::uint64_t total() const { return total_; }

    /**
     * Samples (by weight) that fell above the last closed bin's upper
     * bound and were clamped into it. Always 0 for open-top
     * histograms.
     */
    std::uint64_t clamped() const { return clamped_; }

    /** Mean of all samples (unbinned). */
    double
    mean() const
    {
        return total_ == 0
            ? 0.0
            : static_cast<double>(weighted_sum_) /
                  static_cast<double>(total_);
    }

    /** Fraction of samples falling in bin @p i. */
    double
    fraction(std::size_t i) const
    {
        WIDIR_ASSERT(i < bins_.size(), "bin index out of range");
        return total_ == 0
            ? 0.0
            : static_cast<double>(bins_[i].count) /
                  static_cast<double>(total_);
    }

    void
    reset()
    {
        for (auto &bin : bins_)
            bin.count = 0;
        total_ = 0;
        weighted_sum_ = 0;
        clamped_ = 0;
    }

  private:
    std::vector<Bin> bins_;
    std::uint64_t total_ = 0;
    unsigned __int128 weighted_sum_ = 0;
    std::uint64_t clamped_ = 0;
};

} // namespace widir::sim

#endif // WIDIR_SIM_STATS_H
