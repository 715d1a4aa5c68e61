#pragma once

/**
 * @file
 * Shared harness for the benches: suite matrix caching, strategy sweeps
 * over the Table V / Table VIII sets, speedup arithmetic and the uniform
 * headings each binary prints; and, for the perf benches, one runner
 * (warm-up, then interleaved rounds reported as median and quartiles),
 * one JSON result writer and one reader for `--check` baselines.
 */

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "core/calibrate.hpp"
#include "core/execution.hpp"
#include "sparse/suite.hpp"
#include "sparse/tiling.hpp"

namespace hottiles::bench {

/**
 * Parse the shared bench flags and strip them from argv (so a bench's
 * own flag parser never sees them):
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

// ---- Perf-bench harness: runner, result writer, baseline reader ----

/** Rounds of every runner: 5 under --smoke, 7 in a full run. */
unsigned rounds();

/** Median and quartiles (perfbench::median, perfbench::quartiles). */
struct Spread
{
    double median = 0;
    double q1 = 0;
    double q3 = 0;
};
Spread spreadOf(const std::vector<double>& samples);

/** Spread of the per-round ratios num[r] / den[r]. */
Spread ratioSpread(const std::vector<double>& num,
                   const std::vector<double>& den);

/** The named values one timed call of a cell measured. */
using Sample = std::vector<std::pair<std::string, double>>;

struct Budget
{
    int reps = 0;
    double ms = 0;
};

/** Call @p call until @p min_ms have passed or @p max_reps calls ran
 *  (at least once): the one timed call of a cell whose calls take well
 *  under a millisecond, so it reads above timer noise. */
Budget repeatFor(double min_ms, int max_reps,
                 const std::function<void()>& call);

/**
 * Samples cells that are compared with each other, interleaved: one
 * untimed warm-up call per cell, then rounds() rounds, round r visiting
 * every cell once starting at cell r mod n, so each cell runs in every
 * position and a slow spell of the host hits all cells alike.  The
 * first Runner of a full run (no --smoke) probes the host's spin
 * parallelism before its warm-up; writeReport records it as
 * `spin_parallelism_before`.
 */
class Runner
{
  public:
    /** Add a cell; returns its index. */
    size_t add(std::function<Sample()> cell);

    /** Warm up and run the rounds.  @p before_round(r), untimed, runs
     *  ahead of the warm-up (r = 0) and of each round r = 1..rounds(). */
    void run(const std::function<void(unsigned)>& before_round = {});

    /** @p field of @p cell, one value per round in round order. */
    std::vector<double> samples(size_t cell, const std::string& field) const;

    Spread spread(size_t cell, const std::string& field) const
    {
        return spreadOf(samples(cell, field));
    }

    /** Field names of @p cell, in the order its calls report them. */
    std::vector<std::string> fields(size_t cell) const;

  private:
    std::vector<std::function<Sample()>> cells_;
    std::vector<std::vector<Sample>> samples_;  //!< [cell][round]
};

/** One flat JSON object of a result file; fields keep insertion order.
 *  A non-finite number is written as null. */
class Row
{
  public:
    Row& put(const std::string& key, const std::string& value);
    Row& put(const std::string& key, const char* value)
    {
        return put(key, std::string(value));
    }
    template <class T>
        requires std::is_arithmetic_v<T>
    Row& put(const std::string& key, T value)
    {
        if constexpr (std::is_same_v<T, bool>)
            return putJson(key, value ? "true" : "false");
        else if constexpr (std::is_integral_v<T>)
            return putJson(key, std::to_string(value));
        else
            return putNumber(key, double(value));
    }
    /** @p key as the median, plus `<key>_q1` and `<key>_q3`. */
    Row& put(const std::string& key, const Spread& s);
    /** Every field @p cell of @p runner measured, as a Spread. */
    Row& put(const Runner& runner, size_t cell);
    /** @p nested as a JSON object value. */
    Row& put(const std::string& key, const Row& nested);

    /** The fields as `"key": value` pairs joined by @p sep. */
    std::string json(const std::string& sep = ", ") const;

  private:
    Row& putNumber(const std::string& key, double value);
    Row& putJson(const std::string& key, std::string json);
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** `BENCH_<name>.json`, or `BENCH_<name>.smoke.json` under --smoke, so
 *  a smoke run never overwrites a committed full-run result. */
std::string defaultOut(const std::string& name);

/** Write a result file: `schema` (hottiles.bench_<name>.v2), `smoke`,
 *  the `host` block (nproc and build facts, plus in a full run the
 *  spin parallelism the first Runner measured before its rounds, null
 *  when none ran, and again here after them), the `metrics` registry
 *  snapshot,
 *  @p summary's fields and @p results. */
void writeReport(const std::string& path, const std::string& name,
                 const Row& summary, const std::vector<Row>& results);

/** A scalar JSON value as the reader returns it; null is monostate. */
using Scalar = std::variant<std::monostate, bool, double, std::string>;
using Object = std::map<std::string, Scalar>;

/** The `results` rows of a result or baseline file.  Values that are
 *  objects or arrays are skipped; malformed JSON is fatal. */
std::vector<Object> readResults(const std::string& path);

/** @p key of @p row as a T (double, std::string or bool); fatal when
 *  missing or of another type. */
template <class T>
T
field(const Object& row, const std::string& key)
{
    auto it = row.find(key);
    HT_FATAL_IF(it == row.end() || !std::holds_alternative<T>(it->second),
                "result row has no field '", key, "' of the expected type");
    return std::get<T>(it->second);
}

} // namespace hottiles::bench
