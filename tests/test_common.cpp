/** @file Tests for the common substrate: errors, RNG, stats, strings,
 *  units, and the table printer. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

using namespace hottiles;

TEST(Error, FatalThrowsWithContext)
{
    try {
        HT_FATAL("bad thing ", 42);
        FAIL() << "should have thrown";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("bad thing 42"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
                  std::string::npos);
    }
}

TEST(Error, AssertPassesOnTrue)
{
    HT_ASSERT(1 + 1 == 2, "math works");  // must not abort
    SUCCEED();
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a() == b() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        uint64_t v = rng.nextBounded(17);
        ASSERT_LT(v, 17u);
    }
}

TEST(Rng, BoundedCoversAllValues)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    bool lo = false;
    bool hi = false;
    for (int i = 0; i < 5000; ++i) {
        uint64_t v = rng.nextRange(3, 5);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 5u);
        lo |= v == 3;
        hi |= v == 5;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0;
    double sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.nextGaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, MergeMatchesSequential)
{
    Summary all;
    Summary a;
    Summary b;
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        double v = rng.nextDouble(0, 10);
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeEquivalentToInterleavedAddProperty)
{
    // Property: for random splits of a random stream, merging the parts
    // matches adding every value to one accumulator, within Welford's
    // numeric tolerance — count/min/max are exact.
    Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = 1 + int(rng.nextBounded(400));
        const int parts = 1 + int(rng.nextBounded(5));
        Summary all;
        std::vector<Summary> split(parts);
        for (int i = 0; i < n; ++i) {
            double v = rng.nextDouble(-50, 50);
            all.add(v);
            split[rng.nextBounded(uint64_t(parts))].add(v);
        }
        Summary merged;
        for (const Summary& s : split)
            merged.merge(s);
        SCOPED_TRACE("trial=" + std::to_string(trial));
        ASSERT_EQ(merged.count(), all.count());
        EXPECT_DOUBLE_EQ(merged.min(), all.min());
        EXPECT_DOUBLE_EQ(merged.max(), all.max());
        EXPECT_NEAR(merged.mean(), all.mean(), 1e-9);
        EXPECT_NEAR(merged.variance(), all.variance(), 1e-6);
    }
}

TEST(Summary, MergeWithEmptyIsIdentity)
{
    Summary s;
    s.add(3.0);
    s.add(5.0);
    Summary empty;
    s.merge(empty);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    Summary onto;
    onto.merge(s);
    EXPECT_EQ(onto.count(), 2u);
    EXPECT_DOUBLE_EQ(onto.min(), 3.0);
    EXPECT_DOUBLE_EQ(onto.max(), 5.0);
}

TEST(GeoMean, MatchesClosedForm)
{
    GeoMean g;
    g.add(2.0);
    g.add(8.0);
    EXPECT_NEAR(g.value(), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(GeoMean().value(), 1.0);
}

TEST(GeoMean, VectorHelper)
{
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
}

TEST(GeoMean, NonPositiveObservationsDie)
{
    // @pre x > 0: zero/negative would poison the log-sum with -inf/NaN
    // that only surfaces far downstream in a geomean summary line.
    GeoMean g;
    EXPECT_DEATH(g.add(0.0), "positive");
    EXPECT_DEATH(g.add(-2.0), "positive");
}

TEST(Histogram, BinningAndQuantiles)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(i / 10.0);  // uniform over [0, 10)
    EXPECT_EQ(h.total(), 100u);
    for (size_t b = 0; b < h.bins(); ++b)
        EXPECT_EQ(h.binCount(b), 10u);
    EXPECT_NEAR(h.quantile(0.5), 6.0, 1.01);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-5.0);
    h.add(99.0);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(3), 1u);
}

TEST(Histogram, QuantileEdgeCasesArePinned)
{
    // Empty: every quantile collapses to the range floor.
    Histogram empty(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);

    // Mass only in bins [3,4) and [7,8): q=0 pins the lower edge of the
    // first non-empty bin, q=1 the upper edge of the last non-empty bin,
    // and interior quantiles land on upper bin edges.
    Histogram h(0.0, 10.0, 10);
    h.add(3.5);
    h.add(7.5);
    h.add(7.6);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0 / 3.0), 4.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 8.0);

    // Out-of-range q is a caller bug.
    EXPECT_DEATH(h.quantile(-0.1), "quantile");
    EXPECT_DEATH(h.quantile(1.5), "quantile");
}

TEST(Histogram, LogBinsHaveEqualRatios)
{
    // Decades 1-10-100-1000 in 3 bins: edges 1, 10, 100, 1000.
    Histogram h(1.0, 1000.0, 3, BinScale::Log);
    for (size_t i = 0; i <= 3; ++i)
        EXPECT_NEAR(h.binLo(i), std::pow(10.0, double(i)), 1e-9);
    for (double x : {0.0, 5.0, 50.0, 5e6})  // 0 and 5e6 clamp
        h.add(x);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 1u);
    // Quantiles land on upper bin edges, as for linear bins.
    EXPECT_NEAR(h.quantile(0.5), 10.0, 1e-12);
    EXPECT_NEAR(h.quantile(0.75), 100.0, 1e-10);
    EXPECT_DEATH(Histogram(0.0, 1.0, 4, BinScale::Log), "lo > 0");
}

TEST(StringUtil, Trim)
{
    EXPECT_EQ(trim("  abc \t\n"), "abc");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, SplitWs)
{
    auto t = splitWs("  a  bb\tccc \n");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0], "a");
    EXPECT_EQ(t[1], "bb");
    EXPECT_EQ(t[2], "ccc");
    EXPECT_TRUE(splitWs("   ").empty());
}

TEST(StringUtil, SplitChar)
{
    auto t = splitChar("a,,b", ',');
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0], "a");
    EXPECT_EQ(t[1], "");
    EXPECT_EQ(t[2], "b");
}

TEST(StringUtil, CaseHelpers)
{
    EXPECT_TRUE(iequals("MatrixMarket", "matrixmarket"));
    EXPECT_FALSE(iequals("abc", "abd"));
    EXPECT_EQ(toLower("AbC"), "abc");
}

TEST(StringUtil, Formatting)
{
    EXPECT_EQ(formatDouble(1.500, 2), "1.5");
    EXPECT_EQ(formatDouble(2.0, 2), "2");
    EXPECT_EQ(formatBytes(2 * kMiB), "2.0 MiB");
    EXPECT_EQ(strPrintf("%d-%d", 3, 5), "3-5");
}

TEST(Units, Conversions)
{
    // 205 GB/s at 0.8 GHz = 256.25 bytes per cycle.
    EXPECT_NEAR(gbpsToBytesPerCycle(205.0, 0.8), 256.25, 1e-9);
    EXPECT_NEAR(bytesPerCycleToGbps(256.25, 0.8), 205.0, 1e-9);
    EXPECT_NEAR(cyclesToMs(8e5, 0.8), 1.0, 1e-12);
    EXPECT_NEAR(gflops(2e9, 1e9, 1.0), 2.0, 1e-12);
    EXPECT_EQ(roundUp(65, 64), 128u);
    EXPECT_EQ(ceilDiv(65, 64), 2u);
    EXPECT_EQ(ceilDiv(64, 64), 1u);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"Name", "Value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("| Name"), std::string::npos);
    EXPECT_NE(s.find("long-name"), std::string::npos);
    // All lines have equal width.
    std::istringstream is(s);
    std::string line;
    size_t width = 0;
    while (std::getline(is, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, NumFormatsDigits)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}
