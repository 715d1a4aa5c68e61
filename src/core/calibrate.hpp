#pragma once

/**
 * @file
 * Architecture calibration (§VI-B): run homogeneous profiling
 * simulations on a set of small test matrices and search the
 * visible-latency-per-byte (vis_lat) of each worker type so that the
 * analytical model matches the measured runtimes.  The result is cached
 * per architecture name for the process lifetime — the paper's
 * "tuning ... only needs to be done once when the framework is first
 * installed on a particular machine".
 */

#include "arch/arch_config.hpp"

namespace hottiles {

/** Calibration outcome for one architecture. */
struct ArchCalibration
{
    double hot_vis_lat = 0;
    double cold_vis_lat = 0;
    double hot_error = 0;   //!< mean relative model error at the optimum
    double cold_error = 0;
};

/**
 * Calibrate @p arch in place (sets arch.hot.vis_lat / arch.cold.vis_lat)
 * and return the search outcome.  Uses three small synthetic profiling
 * matrices (uniform, power-law, mesh).  Results are memoized on
 * arch.name for the process; concurrent first users of one name share
 * one calibration.
 */
ArchCalibration calibrateArchitecture(Architecture& arch);

/** Convenience: calibrated copy of a factory-made architecture. */
Architecture calibrated(Architecture arch);

} // namespace hottiles
