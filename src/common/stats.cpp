#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hottiles {

void
Summary::add(double x)
{
    ++n_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
Summary::mean() const
{
    return n_ ? mean_ : 0.0;
}

double
Summary::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

double
Summary::cv() const
{
    double m = mean();
    return m != 0.0 ? stddev() / m : 0.0;
}

void
Summary::merge(const Summary& other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    uint64_t n = n_ + other.n_;
    double delta = other.mean_ - mean_;
    double mean = mean_ + delta * static_cast<double>(other.n_) / n;
    m2_ = m2_ + other.m2_ +
          delta * delta * static_cast<double>(n_) * other.n_ / n;
    mean_ = mean;
    n_ = n;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
GeoMean::add(double x)
{
    HT_ASSERT(x > 0.0, "geomean requires positive values");
    ++n_;
    log_sum_ += std::log(x);
}

double
GeoMean::value() const
{
    return n_ ? std::exp(log_sum_ / static_cast<double>(n_)) : 1.0;
}

Histogram::Histogram(double lo, double hi, size_t bins, BinScale scale)
    : lo_(lo), hi_(hi),
      width_((scale == BinScale::Log ? std::log(hi / lo) : hi - lo) /
             static_cast<double>(bins)),
      scale_(scale), counts_(bins, 0)
{
    HT_ASSERT(hi > lo && bins > 0, "bad histogram bounds");
    HT_ASSERT(scale == BinScale::Linear || lo > 0,
              "log-spaced histogram needs lo > 0");
}

void
Histogram::add(double x)
{
    double rel = scale_ == BinScale::Linear ? (x - lo_) / width_
                 : x > lo_                  ? std::log(x / lo_) / width_
                                            : 0.0;
    auto idx = static_cast<int64_t>(std::floor(rel));
    idx = std::clamp<int64_t>(idx, 0, static_cast<int64_t>(counts_.size()) - 1);
    ++counts_[static_cast<size_t>(idx)];
    ++total_;
}

double
Histogram::binLo(size_t i) const
{
    return scale_ == BinScale::Linear
               ? lo_ + width_ * static_cast<double>(i)
               : lo_ * std::exp(width_ * static_cast<double>(i));
}

double
Histogram::quantile(double q) const
{
    HT_ASSERT(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]: ", q);
    if (total_ == 0)
        return lo_;
    if (q == 0.0) {
        for (size_t i = 0; i < counts_.size(); ++i)
            if (counts_[i] > 0)
                return binLo(i);
    }
    // Upper edge of the bin holding the ceil(q*total)-th ordered sample;
    // q == 1 therefore lands on the last non-empty bin's upper edge even
    // when trailing bins are empty.
    double target = q * static_cast<double>(total_);
    uint64_t acc = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        acc += counts_[i];
        if (static_cast<double>(acc) >= target)
            return scale_ == BinScale::Linear ? binLo(i) + width_
                                              : binLo(i + 1);
    }
    return hi_;
}

double
geomean(const std::vector<double>& xs)
{
    GeoMean g;
    for (double x : xs)
        g.add(x);
    return g.value();
}

double
mean(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

} // namespace hottiles
