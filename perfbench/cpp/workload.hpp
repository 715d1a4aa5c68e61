#pragma once

/**
 * @file
 * The interface every benchmark workload implements, and the records a
 * timed window produces.  Each workload has exactly four operation
 * classes; the end-to-end metrics op1..op4 are their median latencies,
 * in the order of Window::classes.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;          //!< small inputs, for the benchmark's tests
    bool bad_checksum = false;  //!< corrupt one reference (tests the checks)
    std::string trace_out;      //!< where the traced run writes its spans
};

/** One operation class of a timed window. */
struct OpClass
{
    std::string name;
    std::vector<double> ms;    //!< latencies of successful operations only
    std::vector<double> at_s;  //!< their completion times since window start
    uint64_t attempted = 0;
    uint64_t failed = 0;       //!< non-OK replies and failed output checks

    void ok(double latency_ms, double completed_s)
    {
        ms.push_back(latency_ms);
        at_s.push_back(completed_s);
    }
};

/** Sub-window length the steady estimators aim for. */
inline constexpr double kSubWindowSeconds = 3.0;

struct Window
{
    std::vector<OpClass> classes;
    double seconds = 0;

    /** The window cut into equal sub-windows of about
     *  kSubWindowSeconds (one when the window is shorter). */
    size_t subWindows() const;

    /** Median latency of class @p i in each sub-window that has one. */
    std::vector<double> subWindowMedians(size_t i) const;

    /**
     * Steady median latency of class @p i: the lower quartile (nearest
     * rank) over sub-windows of the class's median latency within each.
     * Other tenants of a shared host only ever slow a sub-window down,
     * so the quieter quarter of the run is what repeats from run to run.
     */
    double steadyP50(size_t i) const;

    /** Steady throughput: the upper quartile over sub-windows of
     *  successful operations completed per second. */
    double steadyRate() const;

    uint64_t attempted() const;
    uint64_t failed() const;
    uint64_t ok() const { return attempted() - failed(); }
    /** Fold @p other's samples, counts and length into this window. */
    void merge(const Window& other);
};

/** Window with the four named, empty classes. */
Window emptyWindow(const std::vector<std::string>& names);

/** Output-check ledger shared by a workload's threads. */
class Checks
{
  public:
    /** Record one check; returns @p ok. */
    bool expect(bool ok, const std::string& what);
    bool allPassed() const;
    size_t failures() const;
    void print(std::ostream& out) const;

  private:
    mutable std::mutex mu_;
    size_t checked_ = 0;
    std::vector<std::string> failed_;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** (Re)build every input and warm the program up.  Called several
     *  times per run; each call replaces the previous state. */
    virtual void setup() = 0;

    /** Drive the operation mix for about @p seconds. */
    virtual Window run(double seconds) = 0;

    /** Check the program's state and outputs after the window. */
    virtual void verify() = 0;

    /** Traced-run only: call each layer's public functions under spans
     *  and derive this workload's per-layer metrics from all spans
     *  recorded since tracing was switched on. */
    virtual void layerMetrics(double stream_gbs, std::vector<Metric>& out) = 0;

    /** Print the workload's own named end-to-end figures. */
    virtual void describe(const Window& w, std::ostream& out) const = 0;
};

std::unique_ptr<Workload> makeSpmmRepeat(const Options& o, Checks& checks);
std::unique_ptr<Workload> makeServeMix(const Options& o, Checks& checks);
std::unique_ptr<Workload> makeSimulate(const Options& o, Checks& checks);

/**
 * Threads every workload uses: the global pool's size, and serve-mix's
 * client and worker count.  Half the vCPUs, so other tenants of a shared
 * host have headroom before they stall a parallel region of ours.
 */
unsigned benchThreads();

/** Mix a run seed with a stream label into an independent seed. */
uint64_t subSeed(uint64_t seed, uint64_t label);

} // namespace perfbench
