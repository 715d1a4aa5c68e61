#include "bench_util.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "core/preprocess.hpp"
#include "host.hpp"
#include "sparse/generators.hpp"
#include "stats.hpp"

namespace hottiles::bench {

namespace {

bool g_smoke = false;
/** A full run's host probe, taken when its first Runner starts its
 *  rounds; NaN (written as null) until then. */
double g_spin_before = std::numeric_limits<double>::quiet_NaN();

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

unsigned
rounds()
{
    return g_smoke ? 5 : 7;
}

Spread
spreadOf(const std::vector<double>& samples)
{
    const perfbench::Quartiles q = perfbench::quartiles(samples);
    return {perfbench::median(samples), q.q1, q.q3};
}

Spread
ratioSpread(const std::vector<double>& num, const std::vector<double>& den)
{
    HT_ASSERT(num.size() == den.size(), "ratio of unpaired samples");
    std::vector<double> ratios;
    for (size_t r = 0; r < num.size(); ++r)
        ratios.push_back(den[r] > 0 ? num[r] / den[r] : 0);
    return spreadOf(ratios);
}

Budget
repeatFor(double min_ms, int max_reps, const std::function<void()>& call)
{
    Budget b;
    const double t0 = monotonicSeconds();
    do {
        call();
        ++b.reps;
        b.ms = (monotonicSeconds() - t0) * 1e3;
    } while (b.ms < min_ms && b.reps < max_reps);
    return b;
}

size_t
Runner::add(std::function<Sample()> cell)
{
    cells_.push_back(std::move(cell));
    return cells_.size() - 1;
}

void
Runner::run(const std::function<void(unsigned)>& before_round)
{
    // The spin probe costs about a second, so only a full run's first
    // rounds pay it.
    if (!g_smoke && std::isnan(g_spin_before))
        g_spin_before = perfbench::spinParallelism(
            std::max(1u, std::thread::hardware_concurrency()));
    samples_.assign(cells_.size(), {});
    for (unsigned r = 0; r <= rounds(); ++r) {
        if (before_round)
            before_round(r);
        if (r == 0) {
            for (auto& cell : cells_)
                cell();
            continue;
        }
        for (size_t j = 0; j < cells_.size(); ++j) {
            const size_t i = (r - 1 + j) % cells_.size();
            samples_[i].push_back(cells_[i]());
        }
    }
}

std::vector<double>
Runner::samples(size_t cell, const std::string& field) const
{
    std::vector<double> out;
    for (const Sample& s : samples_.at(cell)) {
        auto it = std::find_if(s.begin(), s.end(),
                               [&](const auto& kv) { return kv.first == field; });
        HT_FATAL_IF(it == s.end(), "cell ", cell, " did not measure '",
                    field, "'");
        out.push_back(it->second);
    }
    return out;
}

std::vector<std::string>
Runner::fields(size_t cell) const
{
    std::vector<std::string> out;
    if (!samples_.at(cell).empty())
        for (const auto& kv : samples_[cell].front())
            out.push_back(kv.first);
    return out;
}

Row&
Row::put(const std::string& key, const std::string& value)
{
    return putJson(key, "\"" + jsonEscape(value) + "\"");
}

Row&
Row::put(const std::string& key, const Spread& s)
{
    return putNumber(key, s.median)
        .putNumber(key + "_q1", s.q1)
        .putNumber(key + "_q3", s.q3);
}

Row&
Row::put(const Runner& runner, size_t cell)
{
    for (const std::string& f : runner.fields(cell))
        put(f, runner.spread(cell, f));
    return *this;
}

Row&
Row::put(const std::string& key, const Row& nested)
{
    return putJson(key, "{" + nested.json() + "}");
}

Row&
Row::putNumber(const std::string& key, double value)
{
    // JSON has no NaN or infinity; null, as the metrics registry writes.
    if (!std::isfinite(value))
        return putJson(key, "null");
    std::ostringstream os;
    os << value;
    return putJson(key, os.str());
}

Row&
Row::putJson(const std::string& key, std::string json)
{
    fields_.emplace_back(key, std::move(json));
    return *this;
}

std::string
Row::json(const std::string& sep) const
{
    std::string out;
    for (const auto& [key, value] : fields_)
        out += (out.empty() ? "" : sep) + "\"" + jsonEscape(key) +
               "\": " + value;
    return out;
}

std::string
defaultOut(const std::string& name)
{
    return "BENCH_" + name + (g_smoke ? ".smoke.json" : ".json");
}

void
writeReport(const std::string& path, const std::string& name,
            const Row& summary, const std::vector<Row>& results)
{
    std::ofstream out(path);
    HT_FATAL_IF(!out, "cannot open '", path, "' for writing");
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    Row host;
    host.put("nproc", nproc).put("build", perfbench::buildFacts());
    if (!g_smoke)  // the probes before and after the rounds
        host.put("spin_parallelism_before", g_spin_before)
            .put("spin_parallelism", perfbench::spinParallelism(nproc));
    out << "{\n  \"schema\": \"hottiles.bench_" << name << ".v2\",\n"
        << "  \"smoke\": " << (g_smoke ? "true" : "false") << ",\n"
        << "  \"host\": {" << host.json() << "},\n"
        << "  \"metrics\": ";
    MetricsRegistry::global().writeJson(out);
    const std::string fields = summary.json(",\n  ");
    if (!fields.empty())
        out << ",\n  " << fields;
    out << ",\n  \"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i)
        out << "    {" << results[i].json() << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    out << "  ]\n}\n";
    HT_FATAL_IF(!out, "error writing '", path, "'");
}

namespace {

/** Recursive-descent JSON reader that keeps scalar values only. */
struct JsonReader
{
    std::string text;
    std::string path;
    size_t pos = 0;

    /** The objects of the top-level object's `results` array. */
    std::vector<Object> results()
    {
        std::vector<Object> rows;
        object(&rows);
        skipSpace();
        if (pos != text.size())
            fail("trailing bytes");
        return rows;
    }

    [[noreturn]] void fail(const char* what) const
    {
        HT_FATAL(path, ": ", what, " at byte ", pos);
    }

    void skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool peek(char c)
    {
        skipSpace();
        return pos < text.size() && text[pos] == c;
    }

    bool eat(char c)
    {
        if (!peek(c))
            return false;
        ++pos;
        return true;
    }

    void need(char c)
    {
        if (!eat(c))
            fail("malformed JSON");
    }

    std::string string()
    {
        static const std::string kEscapes = "b\bf\fn\nr\rt\t";
        need('"');
        std::string out;
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c == '\\' && pos < text.size()) {
                c = text[pos++];
                const size_t e = kEscapes.find(c);
                if (e != std::string::npos && e % 2 == 0) {
                    c = kEscapes[e + 1];
                } else if (c == 'u') {
                    // jsonEscape writes only control characters this way.
                    unsigned code = 0;
                    const char* at = text.data() + pos;
                    if (pos + 4 > text.size() ||
                        std::from_chars(at, at + 4, code, 16).ptr != at + 4 ||
                        code > 0x7f)
                        fail("unsupported \\u escape");
                    c = char(code);
                    pos += 4;
                }  // else '"', '\\' or '/', kept as is
            }
            out += c;
        }
        fail("unterminated string");
    }

    /** An object's scalar fields; the objects of its `results` array go
     *  to @p results when given. */
    Object object(std::vector<Object>* results = nullptr)
    {
        Object out;
        need('{');
        if (eat('}'))
            return out;
        do {
            std::string key = string();
            need(':');
            if (std::optional<Scalar> v =
                    value(key == "results" ? results : nullptr))
                out[std::move(key)] = std::move(*v);
        } while (eat(','));
        need('}');
        return out;
    }

    /** A scalar, or nullopt for an object or array; an array's objects
     *  go to @p rows when given. */
    std::optional<Scalar> value(std::vector<Object>* rows = nullptr)
    {
        if (peek('"'))
            return string();
        if (peek('{')) {
            object();
            return std::nullopt;
        }
        if (eat('[')) {
            if (!eat(']')) {
                do {
                    if (rows && peek('{'))
                        rows->push_back(object());
                    else
                        value();
                } while (eat(','));
                need(']');
            }
            return std::nullopt;
        }
        for (const auto& [word, v] :
             {std::pair<std::string_view, Scalar>{"true", true},
              {"false", false},
              {"null", std::monostate{}}})
            if (text.compare(pos, word.size(), word) == 0) {
                pos += word.size();
                return v;
            }
        double v = 0;
        auto [end, ec] =
            std::from_chars(text.data() + pos, text.data() + text.size(), v);
        if (ec != std::errc())
            fail("malformed JSON");
        pos = size_t(end - text.data());
        return v;
    }
};

} // namespace

std::vector<Object>
readResults(const std::string& path)
{
    std::ifstream in(path);
    HT_FATAL_IF(!in, "cannot open '", path, "'");
    std::stringstream ss;
    ss << in.rdbuf();
    JsonReader reader{ss.str(), path};
    return reader.results();
}

} // namespace hottiles::bench
