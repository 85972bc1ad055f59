/**
 * @file
 * Lightweight statistics: counters, running scalars, and histograms with
 * exact percentiles. Benchmarks and validation experiments report through
 * these so every table/figure in EXPERIMENTS.md is regenerated from the
 * same accessors the tests assert on.
 */

#ifndef FIRESIM_BASE_STATS_HH
#define FIRESIM_BASE_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"

namespace firesim
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void operator++() { ++count; }
    void operator+=(uint64_t n) { count += n; }
    uint64_t value() const { return count; }
    void reset() { count = 0; }

  private:
    uint64_t count = 0;
};

/**
 * Collects samples and answers mean/min/max/percentile queries.
 * Percentile queries sort a scratch copy lazily; sampling is O(1).
 *
 * By default every sample is retained and percentiles are exact. For
 * open-ended runs (AutoCounter sampling over hours of target time)
 * setReservoir() caps memory: mean/min/max/count stay exact, while
 * percentiles come from a deterministic reservoir downsample.
 */
class Histogram
{
  public:
    /**
     * Switch to O(1)-memory bounded mode *before* the first sample:
     * retain at most @p cap samples via reservoir downsampling
     * (Algorithm R) driven by the deterministic base/random.hh stream
     * seeded with @p seed — the same run always keeps the same
     * samples. Exact (unbounded) mode remains the default.
     */
    void
    setReservoir(size_t cap, uint64_t seed)
    {
        if (cap == 0)
            panic("histogram reservoir capacity must be nonzero");
        if (n != 0)
            panic("setReservoir() after %llu samples were collected",
                  (unsigned long long)n);
        cap_ = cap;
        rng.reseed(seed);
        values.reserve(cap);
    }

    void
    sample(double value)
    {
        // Running aggregates are exact in both modes.
        sum += value;
        lo = std::min(lo, value);
        hi = std::max(hi, value);
        ++n;
        if (cap_ == 0 || values.size() < cap_) {
            values.push_back(value);
        } else {
            // Reservoir: keep each of the n samples with P = cap/n.
            uint64_t j = rng.below(n);
            if (j < cap_)
                values[j] = value;
            else
                return; // retained set unchanged; stays sorted
        }
        sorted = false;
    }

    /** Total samples observed (exact, including downsampled-away). */
    size_t count() const { return static_cast<size_t>(n); }

    /** Samples currently retained (== count() in exact mode). */
    size_t retained() const { return values.size(); }

    /** Reservoir capacity, or 0 in exact mode. */
    size_t reservoirCap() const { return cap_; }

    double
    mean() const
    {
        return n ? sum / static_cast<double>(n) : 0.0;
    }

    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }

    /**
     * Percentile with linear interpolation between the two nearest
     * ranks of the sorted retained samples (exclusive method): p maps
     * to rank p/100 * (N-1), and fractional ranks blend neighbouring
     * samples — p50 of {1..100} is 50.5, a value that never occurred.
     * Use percentileNearestRank() where exact-rank semantics matter.
     * Exact in default mode; reservoir-approximate in bounded mode.
     * @param p percentile in [0, 100].
     */
    double
    percentile(double p) const
    {
        if (values.empty())
            return 0.0;
        if (p < 0.0 || p > 100.0)
            panic("percentile %f out of range", p);
        ensureSorted();
        double rank = p / 100.0 * static_cast<double>(values.size() - 1);
        size_t lo_idx = static_cast<size_t>(rank);
        size_t hi_idx = std::min(lo_idx + 1, values.size() - 1);
        double frac = rank - static_cast<double>(lo_idx);
        return scratch[lo_idx] * (1.0 - frac) + scratch[hi_idx] * frac;
    }

    /**
     * Nearest-rank percentile: the smallest retained sample such that
     * at least p% of the retained samples are <= it. Always returns a
     * value that actually occurred (telemetry dumps report through
     * this so a logged p99 is a real observation).
     * @param p percentile in [0, 100].
     */
    double
    percentileNearestRank(double p) const
    {
        if (values.empty())
            return 0.0;
        if (p < 0.0 || p > 100.0)
            panic("percentile %f out of range", p);
        ensureSorted();
        size_t rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(values.size())));
        if (rank > 0)
            --rank; // 1-based rank to 0-based index
        return scratch[std::min(rank, values.size() - 1)];
    }

    void
    reset()
    {
        values.clear();
        scratch.clear();
        sorted = false;
        sum = 0.0;
        n = 0;
        lo = std::numeric_limits<double>::infinity();
        hi = -std::numeric_limits<double>::infinity();
    }

    /** Retained samples in arrival (exact) or reservoir order. */
    const std::vector<double> &samples() const { return values; }

    /** Exact running sum, valid at any count (state image support). */
    double rawSum() const { return sum; }
    /** Raw min/max including the empty-histogram infinities. */
    double rawMin() const { return lo; }
    double rawMax() const { return hi; }

    /** The reservoir's RNG stream (state travels with the state image). */
    const Random &reservoirRng() const { return rng; }

  private:
    void
    ensureSorted() const
    {
        if (!sorted) {
            scratch = values;
            std::sort(scratch.begin(), scratch.end());
            sorted = true;
        }
    }

    std::vector<double> values;
    mutable std::vector<double> scratch;
    mutable bool sorted = false;
    size_t cap_ = 0; //!< 0 = exact mode
    Random rng;
    double sum = 0.0;
    uint64_t n = 0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

/** A running average that does not retain samples. */
class RunningStat
{
  public:
    void
    sample(double value)
    {
        sum += value;
        ++n;
        lo = std::min(lo, value);
        hi = std::max(hi, value);
    }

    uint64_t count() const { return n; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }

    /** Raw aggregates for the state image (rawMin/rawMax keep the
     *  empty-state infinities that min()/max() mask). */
    double rawSum() const { return sum; }
    double rawMin() const { return lo; }
    double rawMax() const { return hi; }

    void
    reset()
    {
        sum = 0.0;
        n = 0;
        lo = std::numeric_limits<double>::infinity();
        hi = -std::numeric_limits<double>::infinity();
    }

  private:
    double sum = 0.0;
    uint64_t n = 0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

} // namespace firesim

#endif // FIRESIM_BASE_STATS_HH
