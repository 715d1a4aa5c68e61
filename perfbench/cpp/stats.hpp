#pragma once

/**
 * @file
 * Order statistics over exact sorted samples.  Percentiles are
 * nearest-rank (always an observed sample), and a tail percentile is
 * only reported when at least ten samples lie beyond it.
 */

#include <cstddef>
#include <vector>

namespace perfbench {

/** Median of @p v (mean of the two middle samples for even sizes);
 *  0 when empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p p in (0, 1]: the sorted sample at rank
 *  ceil(p * n).  0 when empty. */
double percentile(std::vector<double> v, double p);

/** Samples strictly beyond the nearest-rank @p p percentile of n. */
size_t samplesBeyond(size_t n, double p);

/** A tail percentile is reportable when >= 10 samples lie beyond it. */
bool tailReportable(size_t n, double p);

/** First and third quartile by Python's statistics.quantiles(n=4)
 *  (exclusive method); both equal the sample when n == 1. */
struct Quartiles
{
    double q1 = 0;
    double q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double>& v);

} // namespace perfbench
