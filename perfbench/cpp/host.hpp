#pragma once

/**
 * @file
 * Facts about the host a result was measured on: core count, effective
 * parallelism from a calibrated spin probe, the active SIMD tier, build
 * type, compiler, and sustained memory bandwidth (a STREAM-style
 * triad).
 */

#include <string>

namespace perfbench {

/** Effective parallelism: nproc concurrent copies of a calibrated
 *  ~20 ms spin loop against one copy alone (median of 3 trials). */
double spinParallelism(unsigned nproc);

struct StreamResult
{
    double gbs = 0;            //!< triad GB/s (24 bytes per element)
    double array_mb = 0;       //!< size of each of the three arrays
};

/** Triad a = b + s * c on nproc threads, median of 3 passes. */
StreamResult streamTriad(unsigned nproc, size_t elems);

/** Last-level cache size in MB as the C library reports it (0 if
 *  unknown). */
double llcMb();

/** Peak resident set size of this process in MB. */
double peakRssMb();

/** Active kernel tier, build type and compiler, as one line. */
std::string buildFacts();

} // namespace perfbench
