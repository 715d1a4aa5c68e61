#pragma once

/**
 * @file
 * Process-wide metrics registry: named counters, gauges, timers and
 * histograms that any layer (preprocess, model, simulator, benches) can
 * bump without plumbing a handle through every call site.  The registry
 * is thread-safe — evaluateMatrix runs four strategies concurrently on
 * the global pool — and snapshots to JSON for `hottiles simulate
 * --metrics` and the bench harness `metrics` blocks.
 *
 * Metric objects are owned by the registry and never deallocated while
 * it lives, so call sites may cache `Counter&`/`TimerMetric&` references
 * (the usual pattern is a function-local `static auto& c =
 * MetricsRegistry::global().counter("...")`).
 *
 * Metrics observe; they must never steer.  Nothing in the simulator may
 * branch on a metric value — the determinism suite pins bit-identical
 * SimStats with metrics both collected and reset.
 */

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace hottiles {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void add(uint64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Last-write-wins instantaneous value (queue depth, config knobs). */
class Gauge
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/** Duration accumulator (seconds) backed by a Welford Summary. */
class TimerMetric
{
  public:
    void observe(double seconds);
    /** Snapshot under the lock (safe against concurrent observe()). */
    Summary snapshot() const;
    void reset();

  private:
    mutable std::mutex mu_;
    Summary summary_;
};

/** Value-distribution accumulator: fixed-bin Histogram plus a Summary
 *  so exact mean/min/max survive the bin clamping. */
class HistogramMetric
{
  public:
    HistogramMetric(double lo, double hi, size_t bins,
                    BinScale scale = BinScale::Linear);

    void observe(double x);
    Histogram histogram() const;
    Summary summary() const;
    void reset();

  private:
    const double lo_, hi_;
    const size_t bins_;
    const BinScale scale_;
    mutable std::mutex mu_;
    Histogram hist_;
    Summary summary_;
};

/**
 * Name → metric map.  `global()` is the instance everything shares;
 * separate instances exist only for tests.  Lookup creates on first
 * use; a histogram's bounds are fixed by the first caller and later
 * callers with different bounds get the existing metric (bounds are a
 * property of the name, asserted in debug builds).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry& global();

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    TimerMetric& timer(std::string_view name);
    HistogramMetric& histogram(std::string_view name, double lo, double hi,
                               size_t bins,
                               BinScale scale = BinScale::Linear);

    /**
     * Write one JSON object with `counters` / `gauges` / `timers` /
     * `histograms` sub-objects keyed by metric name.  Timers report
     * count/total_s/mean_s/min_s/max_s/stddev_s; histograms report
     * lo/hi/scale/count/mean/min/max/p50/p90/p99 plus the raw bin
     * counts.
     */
    void writeJson(std::ostream& os) const;

    /** Zero every registered metric (names stay registered). */
    void reset();

    size_t size() const;

  private:
    mutable std::mutex mu_;
    // node-based maps: references handed out stay valid forever
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<TimerMetric>, std::less<>> timers_;
    std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
        histograms_;
};

/**
 * RAII wall-clock span feeding a registry timer:
 *
 *     ScopedTimer t("preprocess.scan");
 *
 * observes elapsed monotonic seconds on destruction (or on an explicit
 * stop()).  Uses the global registry unless one is given.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(std::string_view name,
                         MetricsRegistry& reg = MetricsRegistry::global());
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    /** Record now instead of at scope exit; idempotent. */
    double stop();

  private:
    TimerMetric& timer_;
    double start_s_;
    bool stopped_ = false;
};

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(std::string_view s);

} // namespace hottiles
