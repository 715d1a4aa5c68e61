#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "core/preprocess.hpp"
#include "kernels/dispatch.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/** A dependent multiply-add chain the compiler cannot shorten. */
uint64_t
spin(uint64_t iters, uint64_t seed)
{
    uint64_t x = seed | 1;
    for (uint64_t i = 0; i < iters; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

double
timeConcurrent(unsigned copies, uint64_t iters)
{
    std::vector<uint64_t> sink(copies);
    std::vector<std::thread> threads;
    const double t0 = hottiles::monotonicSeconds();
    for (unsigned c = 0; c < copies; ++c)
        threads.emplace_back([&, c] { sink[c] = spin(iters, c); });
    for (auto& t : threads)
        t.join();
    const double dt = hottiles::monotonicSeconds() - t0;
    volatile uint64_t keep = 0;
    for (uint64_t s : sink)
        keep = keep + s;
    (void)keep;
    return dt;
}

} // namespace

double
spinParallelism(unsigned nproc)
{
    // Calibrate the loop to ~20 ms on one thread.
    uint64_t iters = 1u << 20;
    while (timeConcurrent(1, iters) < 0.02)
        iters *= 2;
    // Wake every vCPU first: after an idle spell a virtual machine can
    // take a moment to schedule all of them.
    timeConcurrent(nproc, iters * 8);
    std::vector<double> ratios;
    for (int trial = 0; trial < 3; ++trial) {
        const double one = timeConcurrent(1, iters);
        const double all = timeConcurrent(nproc, iters);
        ratios.push_back(double(nproc) * one / all);
    }
    return median(ratios);
}

StreamResult
streamTriad(unsigned nproc, size_t elems)
{
    std::vector<double> a(elems), b(elems, 1.0), c(elems, 2.0);
    auto pass = [&] {
        std::vector<std::thread> threads;
        const double t0 = hottiles::monotonicSeconds();
        for (unsigned t = 0; t < nproc; ++t)
            threads.emplace_back([&, t] {
                const size_t lo = elems * t / nproc;
                const size_t hi = elems * (t + 1) / nproc;
                for (size_t i = lo; i < hi; ++i)
                    a[i] = b[i] + 3.0 * c[i];
            });
        for (auto& th : threads)
            th.join();
        return hottiles::monotonicSeconds() - t0;
    };
    pass();  // first touch of a
    std::vector<double> gbs;
    for (int i = 0; i < 3; ++i)
        gbs.push_back(24.0 * double(elems) / pass() / 1e9);
    return {median(gbs), 8.0 * double(elems) / 1e6};
}

double
llcMb()
{
    long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    return l3 > 0 ? double(l3) / 1e6 : 0;
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return double(ru.ru_maxrss) * 1024 / 1e6;  // KiB on Linux
}

std::string
buildFacts()
{
    return std::string("tier=") +
           hottiles::kernels::tierName(hottiles::kernels::activeTier()) +
           " build=" PERFBENCH_BUILD_TYPE " compiler=" PERFBENCH_COMPILER;
}

} // namespace perfbench
