#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

size_t
nearestRank(size_t n, double p)
{
    // Rank in [1, n]; the epsilon keeps p * n = 90.0000000001 from
    // rounding a whole rank up.
    const double r = std::ceil(p * double(n) - 1e-9);
    return std::clamp<size_t>(size_t(std::max(r, 1.0)), 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), p) - 1];
}

size_t
samplesBeyond(size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

bool
tailReportable(size_t n, double p)
{
    return samplesBeyond(n, p) >= 10;
}

Quartiles
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {};
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n == 1)
        return {v[0], v[0]};
    // statistics.quantiles(method='exclusive'), step for step: the
    // 1-based position i * (n + 1) / 4, its index clamped to [1, n - 1]
    // and the interpolation weight left unclamped (it extrapolates for
    // n == 2, as Python does).
    auto at = [&](long i) {
        const long m = long(n) + 1;
        const long j = std::clamp(i * m / 4, 1L, long(n) - 1);
        const long delta = i * m - j * 4;
        return (v[size_t(j) - 1] * double(4 - delta) +
                v[size_t(j)] * double(delta)) /
               4;
    };
    return {at(1), at(3)};
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

} // namespace perfbench
