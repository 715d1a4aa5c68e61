#pragma once

/**
 * @file
 * Lightweight statistics accumulators used by the simulator and the
 * benchmark harness: running summary (mean/min/max/stddev), geometric
 * mean, and a fixed-bin histogram (linear or log-spaced bins).
 */

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hottiles {

/** Running summary statistics over a stream of doubles. */
class Summary
{
  public:
    /** Add one observation. */
    void add(double x);

    uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;
    double stddev() const;
    /** Coefficient of variation (stddev/mean); 0 if mean is 0. */
    double cv() const;

    /** Merge another summary into this one. */
    void merge(const Summary& other);

  private:
    uint64_t n_ = 0;
    double sum_ = 0.0;
    double m2_ = 0.0;   // sum of squared deviations (Welford)
    double mean_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Geometric mean accumulator over positive values. */
class GeoMean
{
  public:
    /** Add one observation. @pre x > 0 (asserted: zero or negative
     *  would poison the log-sum with -inf/NaN downstream). */
    void add(double x);
    uint64_t count() const { return n_; }
    /** Geometric mean; 1.0 when empty. */
    double value() const;

  private:
    uint64_t n_ = 0;
    double log_sum_ = 0.0;
};

/** Bin spacing of a Histogram. */
enum class BinScale
{
    Linear,  //!< equal widths
    Log,     //!< equal ratios (lo > 0): constant relative resolution
};

/** Fixed-bin histogram over [lo, hi) with out-of-range clamping. */
class Histogram
{
  public:
    Histogram(double lo, double hi, size_t bins,
              BinScale scale = BinScale::Linear);

    void add(double x);
    uint64_t total() const { return total_; }
    size_t bins() const { return counts_.size(); }
    uint64_t binCount(size_t i) const { return counts_.at(i); }
    BinScale scale() const { return scale_; }
    /** Lower edge of bin @p i. */
    double binLo(size_t i) const;
    /**
     * Value below which @p q (in [0,1], asserted) of the mass lies, at
     * bin resolution: the upper edge of the bin holding the
     * ceil(q*total)-th ordered sample.  Edge cases are pinned: an empty
     * histogram returns @c lo, q=0 the lower edge of the first
     * non-empty bin, q=1 the upper edge of the last non-empty bin.
     */
    double quantile(double q) const;

  private:
    double lo_, hi_;
    double width_;  //!< bin width; under Log, ln of the bin edge ratio
    BinScale scale_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

/** Compute geometric mean of a vector (1.0 when empty). */
double geomean(const std::vector<double>& xs);

/** Compute arithmetic mean of a vector (0.0 when empty). */
double mean(const std::vector<double>& xs);

} // namespace hottiles
