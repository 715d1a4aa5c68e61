#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/random.hpp"
#include "stats.hpp"

namespace perfbench {

uint64_t
Window::attempted() const
{
    uint64_t n = 0;
    for (const OpClass& c : classes)
        n += c.attempted;
    return n;
}

uint64_t
Window::failed() const
{
    uint64_t n = 0;
    for (const OpClass& c : classes)
        n += c.failed;
    return n;
}

size_t
Window::subWindows() const
{
    return std::max<size_t>(1, size_t(std::floor(seconds / kSubWindowSeconds)));
}

namespace {

/** Sub-window index of an operation completed @p at_s into a window of
 *  @p n sub-windows of @p len seconds (a final overrun joins the last). */
size_t
subWindowOf(double at_s, double len, size_t n)
{
    return std::min(n - 1, size_t(std::max(0.0, at_s) / len));
}

} // namespace

std::vector<double>
Window::subWindowMedians(size_t i) const
{
    const OpClass& c = classes.at(i);
    const size_t n = subWindows();
    const double len = seconds / double(n);
    std::vector<std::vector<double>> per(n);
    for (size_t k = 0; k < c.ms.size(); ++k)
        per[subWindowOf(c.at_s[k], len, n)].push_back(c.ms[k]);
    std::vector<double> medians;
    for (auto& v : per)
        if (!v.empty())
            medians.push_back(median(std::move(v)));
    return medians;
}

double
Window::steadyP50(size_t i) const
{
    return percentile(subWindowMedians(i), 0.25);
}

double
Window::steadyRate() const
{
    const size_t n = subWindows();
    const double len = seconds / double(n);
    std::vector<double> rate(n, 0.0);
    for (const OpClass& c : classes)
        for (double at : c.at_s)
            rate[subWindowOf(at, len, n)] += 1 / len;
    return percentile(std::move(rate), 0.75);
}

void
Window::merge(const Window& other)
{
    for (size_t i = 0; i < classes.size(); ++i) {
        const OpClass& o = other.classes.at(i);
        classes[i].ms.insert(classes[i].ms.end(), o.ms.begin(), o.ms.end());
        classes[i].at_s.insert(classes[i].at_s.end(), o.at_s.begin(),
                               o.at_s.end());
        classes[i].attempted += o.attempted;
        classes[i].failed += o.failed;
    }
    seconds += other.seconds;
}

Window
emptyWindow(const std::vector<std::string>& names)
{
    Window w;
    for (const std::string& n : names)
        w.classes.push_back(OpClass{n, {}, {}, 0, 0});
    return w;
}

bool
Checks::expect(bool ok, const std::string& what)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++checked_;
    if (!ok)
        failed_.push_back(what);
    return ok;
}

bool
Checks::allPassed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failed_.empty();
}

size_t
Checks::failures() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failed_.size();
}

void
Checks::print(std::ostream& out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    out << "output checks: " << checked_ - failed_.size() << "/" << checked_
        << " passed\n";
    for (size_t i = 0; i < failed_.size() && i < 20; ++i)
        out << "CHECK FAILED: " << failed_[i] << "\n";
}

unsigned
benchThreads()
{
    return std::max(1u, std::thread::hardware_concurrency() / 2);
}

uint64_t
subSeed(uint64_t seed, uint64_t label)
{
    uint64_t s = seed * 0x9e3779b97f4a7c15ULL ^ (label + 0x632be59bd9b4e019ULL);
    return hottiles::splitmix64(s);
}

} // namespace perfbench
