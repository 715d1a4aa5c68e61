#include "common/metrics.hpp"

#include <chrono>
#include <cstdio>
#include <limits>
#include <ostream>

#include "common/error.hpp"

namespace hottiles {

namespace {

double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

} // namespace

void
TimerMetric::observe(double seconds)
{
    std::lock_guard<std::mutex> lk(mu_);
    summary_.add(seconds);
}

Summary
TimerMetric::snapshot() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return summary_;
}

void
TimerMetric::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    summary_ = Summary{};
}

HistogramMetric::HistogramMetric(double lo, double hi, size_t bins,
                                 BinScale scale)
    : lo_(lo), hi_(hi), bins_(bins), scale_(scale),
      hist_(lo, hi, bins, scale)
{
}

void
HistogramMetric::observe(double x)
{
    std::lock_guard<std::mutex> lk(mu_);
    hist_.add(x);
    summary_.add(x);
}

Histogram
HistogramMetric::histogram() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return hist_;
}

Summary
HistogramMetric::summary() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return summary_;
}

void
HistogramMetric::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    hist_ = Histogram(lo_, hi_, bins_, scale_);
    summary_ = Summary{};
}

MetricsRegistry&
MetricsRegistry::global()
{
    static MetricsRegistry reg;
    return reg;
}

Counter&
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_.emplace(std::string(name), std::make_unique<Counter>())
                 .first;
    return *it->second;
}

Gauge&
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
                 .first;
    return *it->second;
}

TimerMetric&
MetricsRegistry::timer(std::string_view name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = timers_.find(name);
    if (it == timers_.end())
        it = timers_
                 .emplace(std::string(name), std::make_unique<TimerMetric>())
                 .first;
    return *it->second;
}

HistogramMetric&
MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                           size_t bins, BinScale scale)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(std::string(name),
                          std::make_unique<HistogramMetric>(lo, hi, bins,
                                                            scale))
                 .first;
    }
    return *it->second;
}

namespace {

void
writeDouble(std::ostream& os, double v)
{
    // JSON has no inf/nan literals; clamp to null so the file stays
    // loadable by strict parsers (python3 -m json.tool in CI).
    if (v != v || v == std::numeric_limits<double>::infinity() ||
        v == -std::numeric_limits<double>::infinity()) {
        os << "null";
        return;
    }
    os << v;
}

void
writeSummaryFields(std::ostream& os, const Summary& s)
{
    os << "\"count\":" << s.count() << ",\"total_s\":";
    writeDouble(os, s.sum());
    os << ",\"mean_s\":";
    writeDouble(os, s.mean());
    os << ",\"min_s\":";
    writeDouble(os, s.min());
    os << ",\"max_s\":";
    writeDouble(os, s.max());
    os << ",\"stddev_s\":";
    writeDouble(os, s.stddev());
}

} // namespace

void
MetricsRegistry::writeJson(std::ostream& os) const
{
    std::lock_guard<std::mutex> lk(mu_);
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << c->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": ";
        writeDouble(os, g->value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"timers\": {";
    first = true;
    for (const auto& [name, t] : timers_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {";
        writeSummaryFields(os, t->snapshot());
        os << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        Histogram hist = h->histogram();
        Summary s = h->summary();
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"lo\":";
        writeDouble(os, hist.binLo(0));
        os << ",\"hi\":";
        writeDouble(os, hist.binLo(hist.bins()));
        os << ",\"scale\":\""
           << (hist.scale() == BinScale::Log ? "log" : "linear")
           << "\",\"count\":" << s.count() << ",\"mean\":";
        writeDouble(os, s.mean());
        os << ",\"min\":";
        writeDouble(os, s.min());
        os << ",\"max\":";
        writeDouble(os, s.max());
        os << ",\"p50\":";
        writeDouble(os, hist.quantile(0.5));
        os << ",\"p90\":";
        writeDouble(os, hist.quantile(0.9));
        os << ",\"p99\":";
        writeDouble(os, hist.quantile(0.99));
        os << ",\"bins\":[";
        for (size_t i = 0; i < hist.bins(); ++i)
            os << (i ? "," : "") << hist.binCount(i);
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [name, c] : counters_)
        c->reset();
    for (auto& [name, g] : gauges_)
        g->reset();
    for (auto& [name, t] : timers_)
        t->reset();
    for (auto& [name, h] : histograms_)
        h->reset();
}

size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return counters_.size() + gauges_.size() + timers_.size() +
           histograms_.size();
}

ScopedTimer::ScopedTimer(std::string_view name, MetricsRegistry& reg)
    : timer_(reg.timer(name)), start_s_(nowSeconds())
{
}

ScopedTimer::~ScopedTimer()
{
    stop();
}

double
ScopedTimer::stop()
{
    if (stopped_)
        return 0.0;
    stopped_ = true;
    double elapsed = nowSeconds() - start_s_;
    timer_.observe(elapsed);
    return elapsed;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace hottiles
