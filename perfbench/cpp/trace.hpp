#pragma once

/**
 * @file
 * In-memory span tracing around the benchmark's calls into the library.
 * A span records its name, a tag (the matrix or request class it
 * belongs to), start and end, the enclosing span on the same thread and
 * a request id.  Spans are kept in memory while tracing is on and
 * written out once at the end; with tracing off a Span costs one
 * relaxed atomic load.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0;  //!< 0 = top level
    uint64_t request = 0;
    uint32_t thread = 0;
    std::string name;
    std::string tag;
    double t0 = 0;  //!< seconds, monotonic
    double t1 = 0;
};

/** Turn recording on or off (process-wide). */
void setTracing(bool on);

/** Drop every recorded span. */
void clearSpans();

/** Snapshot of every span recorded so far. */
std::vector<SpanRecord> spans();

/** RAII span: records [construction, destruction) when tracing is on. */
class Span
{
  public:
    Span(const char* name, std::string tag = {}, uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    bool on_ = false;
    SpanRecord rec_;
};

/** Self time of every span in @p all: its duration minus the part of
 *  that interval its child spans cover (children nest on one thread,
 *  so their durations add).  Indexed like @p all. */
std::vector<double> selfSeconds(const std::vector<SpanRecord>& all);

/** Median self time in ms of the spans named @p name with tag @p tag
 *  (any tag when @p tag is "*"); 0 when there are none. */
double medianSelfMs(const std::vector<SpanRecord>& all,
                    const std::vector<double>& self, const std::string& name,
                    const std::string& tag);

/** Chrome trace-event JSON ("X" events, microseconds). */
void writeChromeTrace(std::ostream& out, const std::vector<SpanRecord>& all);

} // namespace perfbench
