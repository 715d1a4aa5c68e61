/** @file Tests for the Table V / Table VIII benchmark proxies.  The key
 *  contract: each proxy hits its row/nnz budget and preserves the tile
 *  "hotness" regime of the matrix it stands in for (DESIGN.md §3). */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "sparse/suite.hpp"
#include "sparse/tiling.hpp"

using namespace hottiles;

TEST(Suite, TableVHasTenEntries)
{
    const auto& v = tableV();
    ASSERT_EQ(v.size(), 10u);
    EXPECT_EQ(v[0].name, "ski");
    EXPECT_EQ(v[1].name, "pap");
    EXPECT_EQ(v[9].name, "wik");
}

TEST(Suite, TableVIIIHasFiveEntries)
{
    const auto& v = tableVIII();
    ASSERT_EQ(v.size(), 5u);
    EXPECT_EQ(v[0].name, "gea");
    EXPECT_EQ(v[4].name, "si4");
}

TEST(Suite, LookupByName)
{
    const SuiteEntry* e = findSuiteEntry("myc");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->full_name, "mycielskian17");
    EXPECT_EQ(findSuiteEntry("nope"), nullptr);
    EXPECT_THROW(makeSuiteMatrix("nope"), FatalError);
}

TEST(Suite, Deterministic)
{
    CooMatrix a = makeSuiteMatrix("kro");
    CooMatrix b = makeSuiteMatrix("kro");
    EXPECT_TRUE(a.sameStructure(b));
}

namespace hottiles {

/** Without a printer gtest dumps the param's raw bytes, std::string
 *  heap pointers included, and gtest_discover_tests copies that dump
 *  into the ctest names, which then changed from build to build.  Print
 *  the SuiteSparse name the proxy stands in for instead (found by ADL). */
static void
PrintTo(const SuiteEntry& e, std::ostream* os)
{
    *os << e.full_name;
}

} // namespace hottiles

/** Parameterized over the whole suite: size budgets hold. */
class SuiteProxy : public testing::TestWithParam<SuiteEntry>
{
};

TEST_P(SuiteProxy, MatchesBudgets)
{
    const SuiteEntry& e = GetParam();
    CooMatrix m = makeSuiteMatrix(e);
    EXPECT_EQ(m.rows(), e.rows);
    EXPECT_EQ(m.cols(), e.rows);
    double rel = std::abs(double(m.nnz()) - double(e.nnz_target)) /
                 double(e.nnz_target);
    EXPECT_LT(rel, 0.15) << e.name << ": nnz " << m.nnz() << " vs target "
                         << e.nnz_target;
}

namespace {

std::vector<SuiteEntry>
allEntries()
{
    std::vector<SuiteEntry> all = tableV();
    for (const auto& e : tableVIII())
        all.push_back(e);
    return all;
}

} // namespace

namespace {

std::string
suiteParamName(const testing::TestParamInfo<SuiteEntry>& info)
{
    return info.param.name;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllMatrices, SuiteProxy,
                         testing::ValuesIn(allEntries()), suiteParamName);

TEST(Suite, DensityOrdering)
{
    // myc is the densest Table V matrix (the paper's HotOnly winner);
    // del is among the sparsest.
    CooMatrix myc = makeSuiteMatrix("myc");
    CooMatrix del = makeSuiteMatrix("del");
    CooMatrix ski = makeSuiteMatrix("ski");
    EXPECT_GT(myc.density(), 50.0 * ski.density());
    EXPECT_GT(ski.density(), del.density());
}

TEST(Suite, PowerLawProxiesAreSkewed)
{
    for (const char* name : {"ski", "kro", "pok", "wik"}) {
        CooMatrix m = makeSuiteMatrix(name);
        TileGrid g(m, 256, 256);
        EXPECT_GT(g.tileNnzCv(), 1.0) << name;
    }
}

TEST(Suite, PapHasDiagonalCommunities)
{
    // The Fig 5 signature: hot mass clusters near the diagonal.
    CooMatrix m = makeSuiteMatrix("pap");
    size_t near = 0;
    for (size_t i = 0; i < m.nnz(); ++i)
        if (std::abs(double(m.rowId(i)) - double(m.colId(i))) < 512)
            ++near;
    EXPECT_GT(double(near) / double(m.nnz()), 0.5);
}

TEST(Suite, DenseSetIsHotterThanSparseSet)
{
    // Table VIII matrices should have much higher per-tile-column
    // occupancy (H = density x tile height) than the Table V graphs.
    auto hotness = [](const char* name) {
        CooMatrix m = makeSuiteMatrix(name);
        return m.density() * 256.0;
    };
    double mou = hotness("mou");
    double nd2 = hotness("nd2");
    double ski = hotness("ski");
    double pok = hotness("pok");
    EXPECT_GT(mou, 20.0);
    EXPECT_GT(nd2, 20.0);
    EXPECT_LT(ski, 1.0);
    EXPECT_LT(pok, 1.0);
}
