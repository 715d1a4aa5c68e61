/**
 * @file
 * Tests of the perf-bench harness (bench_util.hpp): the result writer and
 * baseline reader round trip, the checked-in baselines, the runner's
 * rotation and the spread statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "stats.hpp"

using namespace hottiles::bench;

namespace {

/** The cells the pre-harness baseline parsers read: on every line after
 *  "results", the @p keys' values (strings, or k's number) joined as the
 *  key, and @p value's number. */
std::map<std::string, double>
oldParserCells(const std::string& path, const std::vector<std::string>& keys,
               const std::string& value)
{
    auto after = [](const std::string& line, const std::string& key) {
        const size_t p = line.find("\"" + key + "\": ");
        return p == std::string::npos ? p : p + key.size() + 4;
    };
    std::map<std::string, double> out;
    std::ifstream in(path);
    bool results = false;
    for (std::string line; std::getline(in, line);) {
        results = results || line.find("\"results\"") != std::string::npos;
        if (!results || after(line, value) == std::string::npos)
            continue;
        std::string key;
        for (const std::string& k : keys) {
            const size_t b = after(line, k);
            key += line[b] == '"'
                       ? line.substr(b + 1, line.find('"', b + 1) - b - 1)
                       : std::to_string(std::stoi(line.substr(b)));
        }
        out[key + "/"] = std::stod(line.substr(after(line, value)));
    }
    return out;
}

} // namespace

TEST(BenchHarness, WriterReaderRoundTrip)
{
    EXPECT_EQ(defaultOut("x"), "BENCH_x.json");
    Runner runner;
    double calls = 0;
    runner.add([&] { return Sample{{"ms", ++calls}}; });
    runner.run();
    const std::string path = ::testing::TempDir() + "bench_roundtrip.json";
    const std::string text = "say \"hi\" \\ to\ttab\nand \x01";
    writeReport(path, "roundtrip", Row().put("note", "top"),
                {Row()
                     .put("text", text)
                     .put("nan", std::nan(""))
                     .put("inf", HUGE_VAL)
                     .put("count", 7)
                     .put("flag", true)
                     .put(runner, 0)});
    const std::vector<Object> rows = readResults(path);
    ASSERT_EQ(rows.size(), 1u);
    const Object& r = rows[0];
    EXPECT_EQ(field<std::string>(r, "text"), text);
    EXPECT_TRUE(std::holds_alternative<std::monostate>(r.at("nan")));
    EXPECT_TRUE(std::holds_alternative<std::monostate>(r.at("inf")));
    EXPECT_EQ(field<double>(r, "count"), 7);
    EXPECT_TRUE(field<bool>(r, "flag"));
    // The warm-up call measured 1; the rounds measured 2..8.
    EXPECT_EQ(field<double>(r, "ms"), 5);
    EXPECT_EQ(field<double>(r, "ms_q1"), 3);
    EXPECT_EQ(field<double>(r, "ms_q3"), 7);
    EXPECT_THROW(field<double>(r, "text"), hottiles::FatalError);

    std::ofstream(path) << "{\"results\": [{\"a\": 1}";
    EXPECT_THROW(readResults(path), hottiles::FatalError);
}

TEST(BenchHarness, CheckedInBaselinesReadAsBefore)
{
    // The gates' keys and values: (matrix, kernel, tier, k) -> gflops and
    // (matrix, strategy) -> events, sim_vs_ref and loop_vs_ref.
    auto read = [](const std::string& path,
                   const std::vector<std::string>& keys,
                   const std::string& value) {
        std::map<std::string, double> out;
        for (const Object& row : readResults(path)) {
            std::string key;
            for (const std::string& k : keys)
                key += k == "k" ? std::to_string(int(field<double>(row, k)))
                                : field<std::string>(row, k);
            out[key + "/"] = field<double>(row, value);
        }
        return out;
    };
    const std::string kernels = HT_BENCH_DIR "/BENCH_kernels_baseline.json";
    const std::vector<std::string> kkeys = {"matrix", "kernel", "tier", "k"};
    const auto kcells = read(kernels, kkeys, "gflops");
    EXPECT_EQ(kcells.size(), 96u);
    EXPECT_EQ(kcells, oldParserCells(kernels, kkeys, "gflops"));
    const std::string sim = HT_BENCH_DIR "/BENCH_sim_perf_baseline.json";
    const std::vector<std::string> skeys = {"matrix", "strategy"};
    for (const char* value : {"events", "sim_vs_ref", "loop_vs_ref"}) {
        const auto scells = read(sim, skeys, value);
        EXPECT_EQ(scells.size(), 4u) << value;
        EXPECT_EQ(scells, oldParserCells(sim, skeys, value)) << value;
    }
}

TEST(BenchHarness, RunnerRotatesTheStartCell)
{
    const size_t n = 3;
    std::vector<size_t> calls;
    Runner runner;
    for (size_t c = 0; c < n; ++c)
        runner.add([&, c] {
            calls.push_back(c);
            return Sample{{"v", double(c)}};
        });
    runner.run();
    ASSERT_GE(rounds(), n);
    ASSERT_EQ(calls.size(), n * (rounds() + 1));
    // The warm-up visits the cells in order; round r starts at r mod n.
    EXPECT_EQ(std::vector<size_t>(calls.begin(), calls.begin() + n),
              (std::vector<size_t>{0, 1, 2}));
    std::set<size_t> starts;
    for (unsigned r = 0; r < rounds(); ++r) {
        const std::vector<size_t> round(calls.begin() + n * (r + 1),
                                        calls.begin() + n * (r + 2));
        for (size_t j = 0; j < n; ++j)
            EXPECT_EQ(round[j], (r + j) % n);
        starts.insert(round.front());
    }
    EXPECT_EQ(starts.size(), n);
    EXPECT_EQ(runner.samples(2, "v"), std::vector<double>(rounds(), 2.0));
}

TEST(BenchHarness, SpreadIsPerfbenchMedianAndQuartiles)
{
    const std::vector<double> v = {9, 1, 7, 3, 5, 2};
    const Spread s = spreadOf(v);
    EXPECT_EQ(s.median, perfbench::median(v));
    EXPECT_EQ(s.q1, perfbench::quartiles(v).q1);
    EXPECT_EQ(s.q3, perfbench::quartiles(v).q3);
    // Python: statistics.quantiles([1, 2, 3, 5, 7, 9]) == [1.75, 4.0, 7.5]
    EXPECT_EQ(s.median, 4);
    EXPECT_EQ(s.q1, 1.75);
    EXPECT_EQ(s.q3, 7.5);
    // Per-round ratios 2, 3, 1.
    EXPECT_EQ(ratioSpread({2, 6, 4}, {1, 2, 4}).median, 2);
}
