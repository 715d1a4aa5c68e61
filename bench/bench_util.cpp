#include "bench_util.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "sparse/generators.hpp"

namespace hottiles::bench {

namespace {

bool g_smoke = false;

constexpr const char* kSharedUsage =
    "shared bench flags:\n"
    "  --smoke       one tiny synthetic matrix, full code path (CI)\n"
    "  --threads N   thread-pool size, a positive integer\n";

} // namespace

void
exitUsage(const std::string& usage, const std::string& message)
{
    if (!message.empty())
        std::cerr << "error: " << message << "\n";
    std::cerr << usage << kSharedUsage;
    std::exit(2);
}

std::string
flagValue(int argc, char** argv, int& i, const std::string& usage)
{
    if (i + 1 >= argc)
        exitUsage(usage, std::string("missing value for ") + argv[i]);
    return argv[++i];
}

double
parseNumber(const std::string& flag, const std::string& value,
            const std::string& usage)
{
    double out = 0;
    auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), out);
    if (ec != std::errc() || end != value.data() + value.size() ||
        !std::isfinite(out) || out < 0)
        exitUsage(usage, "bad value for " + flag + ": '" + value +
                             "' (want a non-negative number)");
    return out;
}

uint64_t
parseCount(const std::string& flag, const std::string& value,
           const std::string& usage, uint64_t max)
{
    uint64_t out = 0;
    auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), out);
    if (ec != std::errc() || end != value.data() + value.size() ||
        out > max)
        exitUsage(usage, "bad value for " + flag + ": '" + value +
                             "' (want an integer in [0, " +
                             std::to_string(max) + "])");
    return out;
}

void
init(int* argc, char** argv)
{
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        std::string_view a = argv[i];
        if (a == "--smoke") {
            g_smoke = true;
        } else if (a == "--threads") {
            if (i + 1 >= *argc)
                exitUsage("", "missing value for --threads");
            const std::string_view v = argv[++i];
            unsigned n = 0;
            auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
            if (ec != std::errc() || end != v.data() + v.size() || n == 0)
                exitUsage("", "bad value for --threads: '" + std::string(v) +
                                  "'");
            ThreadPool::setGlobalThreads(n);
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
}

bool
smokeMode()
{
    return g_smoke;
}

void
banner(const std::string& experiment, const std::string& paper_ref,
       const std::string& description)
{
    std::cout << "\n==============================================================\n"
              << experiment << "  (" << paper_ref << ")\n"
              << description << "\n"
              << "==============================================================\n";
}

namespace {

std::vector<std::string>
filterFromEnv(std::vector<std::string> names)
{
    if (g_smoke)
        return {"smoke"};
    const char* env = std::getenv("HT_BENCH_MATRICES");
    if (!env || !*env)
        return names;
    std::vector<std::string> out;
    for (std::string_view tok : splitChar(env, ',')) {
        std::string name(trim(tok));
        for (const auto& n : names)
            if (n == name)
                out.push_back(name);
    }
    return out.empty() ? names : out;
}

} // namespace

std::vector<std::string>
tableVNames()
{
    std::vector<std::string> names;
    for (const auto& e : tableV())
        names.push_back(e.name);
    return filterFromEnv(std::move(names));
}

std::vector<std::string>
tableVIIINames()
{
    std::vector<std::string> names;
    for (const auto& e : tableVIII())
        names.push_back(e.name);
    return filterFromEnv(std::move(names));
}

const CooMatrix&
suiteMatrix(const std::string& name)
{
    if (g_smoke) {
        // One tiny deterministic matrix stands in for every suite name
        // so smoke runs exercise the full pipeline in seconds.
        static CooMatrix tiny = genCommunity(1024, 12.0, 32, 128, 0.8, 7);
        return tiny;
    }
    static std::map<std::string, CooMatrix> cache;
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache.emplace(name, makeSuiteMatrix(name)).first;
    return it->second;
}

const TileGrid&
suiteGrid(const std::string& name, Index tile_h, Index tile_w)
{
    static std::map<std::string, TileGrid> cache;
    std::string key =
        name + "/" + std::to_string(tile_h) + "x" + std::to_string(tile_w);
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, TileGrid(suiteMatrix(name), tile_h, tile_w))
                 .first;
    return it->second;
}

std::vector<MatrixEvaluation>
evaluateSuite(const Architecture& arch, const std::vector<std::string>& names,
              const HotTilesOptions& opts)
{
    std::vector<MatrixEvaluation> out;
    out.reserve(names.size());
    for (const auto& name : names)
        out.push_back(evaluateMatrix(arch, suiteMatrix(name), name, opts));
    return out;
}

double
geomeanOver(const std::vector<MatrixEvaluation>& evs,
            const std::function<double(const MatrixEvaluation&)>& f)
{
    GeoMean g;
    for (const auto& ev : evs)
        g.add(f(ev));
    return g.value();
}

double
speedup(double baseline_cycles, double cycles)
{
    HT_ASSERT(cycles > 0, "zero runtime");
    return baseline_cycles / cycles;
}

} // namespace hottiles::bench
