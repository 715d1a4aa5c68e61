#pragma once

/**
 * @file
 * Shared harness for the figure/table reproduction benches: suite matrix
 * caching, strategy sweeps over the Table V / Table VIII sets, speedup
 * arithmetic, and the uniform headings each binary prints.
 */

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/calibrate.hpp"
#include "core/execution.hpp"
#include "sparse/suite.hpp"
#include "sparse/tiling.hpp"

namespace hottiles::bench {

/**
 * Parse the shared bench flags and strip them from argv (so wrapped
 * argument parsers like google-benchmark never see them):
 *   --smoke       tiny-synthetic-matrix mode for CI: every suite name
 *                 resolves to one small deterministic matrix so each
 *                 binary exercises its full code path in seconds.
 *   --threads N   thread-pool size (same as the CLI flag); anything
 *                 but a positive integer is a usage error (exit 2).
 * Call first thing in main().
 */
void init(int* argc, char** argv);

/** Print @p message (when non-empty), @p usage and the shared flags to
 *  stderr, then exit with status 2, the CLI's usage-error code. */
[[noreturn]] void exitUsage(const std::string& usage,
                            const std::string& message = "");

/** The value after flag argv[i], advancing i; exits through exitUsage
 *  when argv ends first. */
std::string flagValue(int argc, char** argv, int& i,
                      const std::string& usage);

/** @p value of @p flag as a finite, non-negative number; anything else
 *  exits through exitUsage naming the flag. */
double parseNumber(const std::string& flag, const std::string& value,
                   const std::string& usage);

/** @p value of @p flag as a decimal integer in [0, @p max]; anything
 *  else exits through exitUsage naming the flag. */
uint64_t parseCount(const std::string& flag, const std::string& value,
                    const std::string& usage,
                    uint64_t max = std::numeric_limits<uint64_t>::max());

/** True when --smoke was passed (benches may trim their sweeps). */
bool smokeMode();

/** Print the standard experiment banner. */
void banner(const std::string& experiment, const std::string& paper_ref,
            const std::string& description);

/** Matrix names of Table V (or a subset from HT_BENCH_MATRICES). */
std::vector<std::string> tableVNames();

/** Matrix names of Table VIII. */
std::vector<std::string> tableVIIINames();

/** Process-cached suite matrix (generated once per binary). */
const CooMatrix& suiteMatrix(const std::string& name);

/** Process-cached tile grid for a suite matrix at the given tile size. */
const TileGrid& suiteGrid(const std::string& name, Index tile_h,
                          Index tile_w);

/** Evaluate every strategy for each named matrix under @p arch. */
std::vector<MatrixEvaluation> evaluateSuite(
    const Architecture& arch, const std::vector<std::string>& names,
    const HotTilesOptions& opts = {});

/** Geometric mean of f(ev) over evaluations. */
double geomeanOver(const std::vector<MatrixEvaluation>& evs,
                   const std::function<double(const MatrixEvaluation&)>& f);

/** Speedup of a/b guarded against zero. */
double speedup(double baseline_cycles, double cycles);

} // namespace hottiles::bench
