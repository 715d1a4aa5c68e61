/**
 * @file
 * Property suite for the vectorized kernel library (docs/KERNELS.md).
 *
 * The two contracts under test, across every SIMD tier the host
 * supports and the dense widths that exercise full vectors, register
 * blocks, and masked odd-K tails:
 *  - Golden policy is BIT-IDENTICAL between the scalar tier and every
 *    vector tier (double accumulation, K-lane independence);
 *  - Fast policy agrees within a small tolerance (fp32 + FMA
 *    reassociates differently per tier).
 * Plus: dispatch/force-scalar behaviour, 64-byte dense alignment,
 * masked tails never touching padding, row-run and prefetch range
 * boundaries (splits inside a run, CSR sub-ranges, arrays that end at
 * the view), and bit-identical results across {1, 2, 7} threads with
 * SIMD active.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/aligned.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/gspmm.hpp"
#include "core/kernels.hpp"
#include "kernels/dispatch.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/generators.hpp"

namespace hottiles {
namespace {

namespace hk = hottiles::kernels;

/** Dense widths: sub-vector, odd tails, exact vector multiples for
 *  every tier (scalar/NEON/AVX2/AVX-512), and a 4-vector block. */
const Index kWidths[] = {1, 2, 3, 8, 13, 16, 31, 32, 100};

hk::CsrView
csrView(const CsrMatrix& m)
{
    return {m.rowPtr().data(), m.colIds().data(), m.values().data(),
            m.rows()};
}

hk::CooView
cooView(const CooMatrix& m)
{
    return {m.rowIds().data(), m.colIds().data(), m.values().data(),
            m.nnz()};
}

/** ~12 nonzeros per row, no particular structure. */
CooMatrix
uniformMatrix()
{
    return genUniform(96, 80, 1200, 1234);
}

/** Empty rows at the front, in the middle, and at the end. */
CooMatrix
gappyMatrix()
{
    CooMatrix m(37, 29);
    Rng rng(55);
    for (Index r : {Index(1), Index(2), Index(9), Index(20), Index(33)})
        for (Index c = 0; c < 29; c += (r % 3) + 1)
            m.push(r, c, static_cast<Value>(rng.nextDouble(-1.0, 1.0)));
    m.sortRowMajor();
    return m;
}

/** A single dense-ish row. */
CooMatrix
singleRowMatrix()
{
    CooMatrix m(1, 64);
    Rng rng(77);
    for (Index c = 0; c < 64; c += 2)
        m.push(0, c, static_cast<Value>(rng.nextDouble(-1.0, 1.0)));
    return m;
}

/** Largest minimum row run and prefetch distance (simd_*.hpp traits)
 *  that runMatrix() exercises at every boundary. */
constexpr Index kCoveredMinRun = 16;
constexpr Index kCoveredPrefetchDist = 32;

/** Row of the long run in runMatrix(). */
constexpr Index kLongRow = 2 * kCoveredMinRun + 3;

/**
 * Row-run and prefetch boundaries: an empty row before and after every
 * run length 1 through kCoveredMinRun + 1, then one row longer than
 * twice kCoveredPrefetchDist, a short row, and an empty last row.
 */
CooMatrix
runMatrix()
{
    // Coprime to the column stride 3, so a row's columns are distinct.
    const Index cols = 2 * kCoveredPrefetchDist + 24;
    CooMatrix m(kLongRow + 3, cols);
    Rng rng(91);
    auto pushRow = [&](Index r, Index len) {
        for (Index t = 0; t < len; ++t)
            m.push(r, (r + 3 * t) % cols,
                   static_cast<Value>(rng.nextDouble(-1.0, 1.0)));
    };
    for (Index len = 1; len <= kCoveredMinRun + 1; ++len)
        pushRow(2 * len - 1, len);
    pushRow(kLongRow, 2 * kCoveredPrefetchDist + 9);
    pushRow(kLongRow + 1, 3);
    m.sortRowMajor();
    return m;
}

std::vector<CooMatrix>
testMatrices()
{
    std::vector<CooMatrix> ms;
    ms.push_back(uniformMatrix());
    ms.push_back(gappyMatrix());
    ms.push_back(singleRowMatrix());
    ms.push_back(runMatrix());
    return ms;
}

DenseMatrix
randomDense(Index rows, Index cols, uint64_t seed)
{
    DenseMatrix m(rows, cols);
    Rng rng(seed);
    m.fillRandom(rng);
    return m;
}

/** rows x k doubles in [-1, 1): a nonzero starting accumulator. */
std::vector<double>
randomDoubles(Index rows, Index k, uint64_t seed)
{
    std::vector<double> v(size_t(rows) * k);
    Rng rng(seed);
    for (double& x : v)
        x = rng.nextDouble(-1.0, 1.0);
    return v;
}

/** Restores the force-scalar override on scope exit. */
class ForceScalarGuard
{
  public:
    ForceScalarGuard() : was_(hk::scalarForced()) {}
    ~ForceScalarGuard() { hk::setForceScalar(was_); }

  private:
    bool was_;
};

std::vector<hk::Tier>
vectorTiers()
{
    std::vector<hk::Tier> out;
    for (hk::Tier t : hk::supportedTiers())
        if (t != hk::Tier::Scalar)
            out.push_back(t);
    return out;
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(KernelLibrary, ScalarTierIsAlwaysSupported)
{
    ASSERT_FALSE(hk::supportedTiers().empty());
    EXPECT_EQ(hk::supportedTiers().front(), hk::Tier::Scalar);
    EXPECT_TRUE(hk::tierSupported(hk::Tier::Scalar));
    EXPECT_EQ(hk::opsForTier(hk::Tier::Scalar).tier, hk::Tier::Scalar);
}

TEST(KernelLibrary, ForceScalarPinsActiveTier)
{
    ForceScalarGuard guard;
    hk::setForceScalar(true);
    EXPECT_TRUE(hk::scalarForced());
    EXPECT_EQ(hk::activeTier(), hk::Tier::Scalar);
    EXPECT_EQ(hk::activeOps().tier, hk::Tier::Scalar);
    hk::setForceScalar(false);
    EXPECT_FALSE(hk::scalarForced());
    // Unforced, the active tier is whatever the host supports best.
    EXPECT_EQ(hk::activeTier(), hk::supportedTiers().back());
}

TEST(KernelLibrary, EveryTierTableIsFullyPopulated)
{
    for (hk::Tier t : hk::supportedTiers()) {
        const hk::KernelOps& ops = hk::opsForTier(t);
        EXPECT_EQ(ops.tier, t);
        EXPECT_NE(ops.spmm_csr_golden, nullptr);
        EXPECT_NE(ops.spmm_csr_fast, nullptr);
        EXPECT_NE(ops.spmm_coo_golden, nullptr);
        EXPECT_NE(ops.spmm_coo_fast, nullptr);
        EXPECT_NE(ops.spmv_csr_fast, nullptr);
        EXPECT_NE(ops.spmv_coo_golden, nullptr);
        EXPECT_NE(ops.sddmm_golden, nullptr);
        EXPECT_NE(ops.sddmm_fast, nullptr);
        EXPECT_NE(ops.gspmm_ai, nullptr);
        EXPECT_NE(ops.cvt_d2f, nullptr);
    }
}

TEST(KernelLibrary, DenseMatrixStorageIsCacheLineAligned)
{
    for (Index k : kWidths) {
        DenseMatrix m(7, k);
        EXPECT_TRUE(isAligned(m.row(0), kDenseAlign)) << "k=" << k;
    }
}

// ---------------------------------------------------------------------------
// Golden policy: bit-identical across tiers
// ---------------------------------------------------------------------------

TEST(KernelLibrary, GoldenCsrSpmmBitIdenticalAcrossTiers)
{
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    for (const CooMatrix& coo : testMatrices()) {
        CsrMatrix a = CsrMatrix::fromCoo(coo);
        for (Index k : kWidths) {
            DenseMatrix din = randomDense(a.cols(), k, 10 + k);
            DenseMatrix ref(a.rows(), k);
            scalar.spmm_csr_golden(csrView(a), k, din.row(0), ref.row(0),
                                   0, a.rows());
            for (hk::Tier t : vectorTiers()) {
                DenseMatrix got(a.rows(), k);
                hk::opsForTier(t).spmm_csr_golden(csrView(a), k,
                                                  din.row(0), got.row(0),
                                                  0, a.rows());
                SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                             " k=" + std::to_string(k));
                ASSERT_EQ(ref.data(), got.data());  // element-exact
            }
        }
    }
}

TEST(KernelLibrary, GoldenCooSpmmBitIdenticalAcrossTiers)
{
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    for (const CooMatrix& coo : testMatrices()) {
        for (Index k : kWidths) {
            DenseMatrix din = randomDense(coo.cols(), k, 20 + k);
            std::vector<double> ref(size_t(coo.rows()) * k, 0.0);
            scalar.spmm_coo_golden(cooView(coo), k, din.row(0), ref.data(),
                                   0, 0, coo.nnz());
            for (hk::Tier t : vectorTiers()) {
                std::vector<double> got(size_t(coo.rows()) * k, 0.0);
                hk::opsForTier(t).spmm_coo_golden(cooView(coo), k,
                                                  din.row(0), got.data(),
                                                  0, 0, coo.nnz());
                SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                             " k=" + std::to_string(k));
                ASSERT_EQ(ref, got);  // exact double bits
            }
        }
    }
}

TEST(KernelLibrary, GoldenCsrAccSpmmBitIdenticalAcrossTiers)
{
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    for (const CooMatrix& coo : testMatrices()) {
        CsrMatrix a = CsrMatrix::fromCoo(coo);
        for (Index k : kWidths) {
            DenseMatrix din = randomDense(a.cols(), k, 25 + k);
            // Every chain starts from the stored accumulator.
            const std::vector<double> init = randomDoubles(a.rows(), k, k);
            std::vector<double> ref = init;
            scalar.spmm_csr_golden_acc(csrView(a), k, din.row(0),
                                       ref.data(), 0, a.rows());
            for (hk::Tier t : vectorTiers()) {
                std::vector<double> got = init;
                hk::opsForTier(t).spmm_csr_golden_acc(
                    csrView(a), k, din.row(0), got.data(), 0, a.rows());
                SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                             " k=" + std::to_string(k));
                ASSERT_EQ(ref, got);  // exact double bits
            }
        }
    }
}

TEST(KernelLibrary, GoldenSddmmBitIdenticalAcrossTiers)
{
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    for (const CooMatrix& coo : testMatrices()) {
        for (Index k : kWidths) {
            DenseMatrix u = randomDense(coo.rows(), k, 30 + k);
            DenseMatrix v = randomDense(coo.cols(), k, 40 + k);
            std::vector<Value> ref(coo.nnz());
            scalar.sddmm_golden(cooView(coo), k, u.row(0), v.row(0),
                                ref.data(), 0, coo.nnz());
            for (hk::Tier t : vectorTiers()) {
                std::vector<Value> got(coo.nnz());
                hk::opsForTier(t).sddmm_golden(cooView(coo), k, u.row(0),
                                               v.row(0), got.data(), 0,
                                               coo.nnz());
                SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                             " k=" + std::to_string(k));
                ASSERT_EQ(ref, got);
            }
        }
    }
}

TEST(KernelLibrary, GoldenSpmvBitIdenticalAcrossTiers)
{
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    for (const CooMatrix& coo : testMatrices()) {
        std::vector<Value> x(coo.cols());
        Rng rng(99);
        for (auto& v : x)
            v = static_cast<Value>(rng.nextDouble(-1.0, 1.0));
        std::vector<double> ref(coo.rows(), 0.0);
        scalar.spmv_coo_golden(cooView(coo), x.data(), ref.data(), 0,
                               coo.nnz());
        for (hk::Tier t : vectorTiers()) {
            std::vector<double> got(coo.rows(), 0.0);
            hk::opsForTier(t).spmv_coo_golden(cooView(coo), x.data(),
                                              got.data(), 0, coo.nnz());
            SCOPED_TRACE(hk::tierName(t));
            ASSERT_EQ(ref, got);
        }
    }
}

/** End to end: the wired-up golden reference kernels must not change at
 *  all when the vector tiers are disabled. */
TEST(KernelLibrary, ReferenceKernelsBitIdenticalForcedScalarVsSimd)
{
    ForceScalarGuard guard;
    CooMatrix coo = uniformMatrix();
    CsrMatrix csr = CsrMatrix::fromCoo(coo);
    DenseMatrix din = randomDense(coo.cols(), 32, 5);
    DenseMatrix u = randomDense(coo.rows(), 32, 6);
    std::vector<Value> x(coo.cols());
    Rng rng(7);
    for (auto& v : x)
        v = static_cast<Value>(rng.nextDouble(-1.0, 1.0));

    hk::setForceScalar(true);
    DenseMatrix spmm_s = referenceSpmm(coo, din);
    DenseMatrix csr_s = referenceSpmm(csr, din);
    std::vector<Value> spmv_s = referenceSpmv(coo, x);
    CooMatrix sddmm_s = referenceSddmm(coo, u, din);

    hk::setForceScalar(false);
    DenseMatrix spmm_v = referenceSpmm(coo, din);
    DenseMatrix csr_v = referenceSpmm(csr, din);
    std::vector<Value> spmv_v = referenceSpmv(coo, x);
    CooMatrix sddmm_v = referenceSddmm(coo, u, din);

    EXPECT_EQ(spmm_s.data(), spmm_v.data());
    EXPECT_EQ(csr_s.data(), csr_v.data());
    EXPECT_EQ(spmv_s, spmv_v);
    EXPECT_EQ(sddmm_s.values(), sddmm_v.values());
}

// ---------------------------------------------------------------------------
// Fast policy: tolerance across tiers
// ---------------------------------------------------------------------------

TEST(KernelLibrary, FastCsrSpmmMatchesScalarWithinTolerance)
{
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    for (const CooMatrix& coo : testMatrices()) {
        CsrMatrix a = CsrMatrix::fromCoo(coo);
        for (Index k : kWidths) {
            DenseMatrix din = randomDense(a.cols(), k, 50 + k);
            DenseMatrix ref(a.rows(), k);
            scalar.spmm_csr_fast(csrView(a), k, din.row(0), ref.row(0), 0,
                                 a.rows());
            for (hk::Tier t : vectorTiers()) {
                DenseMatrix got(a.rows(), k);
                hk::opsForTier(t).spmm_csr_fast(csrView(a), k, din.row(0),
                                                got.row(0), 0, a.rows());
                SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                             " k=" + std::to_string(k));
                EXPECT_LT(ref.maxAbsDiff(got), 1e-4);
            }
        }
    }
}

TEST(KernelLibrary, FastCooSpmmMatchesScalarWithinTolerance)
{
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    for (const CooMatrix& coo : testMatrices()) {
        for (Index k : kWidths) {
            DenseMatrix din = randomDense(coo.cols(), k, 60 + k);
            DenseMatrix ref(coo.rows(), k);
            scalar.spmm_coo_fast(cooView(coo), k, din.row(0), ref.row(0),
                                 0, coo.nnz());
            for (hk::Tier t : vectorTiers()) {
                DenseMatrix got(coo.rows(), k);
                hk::opsForTier(t).spmm_coo_fast(cooView(coo), k,
                                                din.row(0), got.row(0), 0,
                                                coo.nnz());
                SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                             " k=" + std::to_string(k));
                EXPECT_LT(ref.maxAbsDiff(got), 1e-4);
            }
        }
    }
}

TEST(KernelLibrary, FastCsrSpmvMatchesScalarWithinTolerance)
{
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    for (const CooMatrix& coo : testMatrices()) {
        CsrMatrix a = CsrMatrix::fromCoo(coo);
        std::vector<Value> x(a.cols());
        Rng rng(13);
        for (auto& v : x)
            v = static_cast<Value>(rng.nextDouble(-1.0, 1.0));
        std::vector<Value> ref(a.rows());
        scalar.spmv_csr_fast(csrView(a), x.data(), ref.data(), 0,
                             a.rows());
        for (hk::Tier t : vectorTiers()) {
            std::vector<Value> got(a.rows());
            hk::opsForTier(t).spmv_csr_fast(csrView(a), x.data(),
                                            got.data(), 0, a.rows());
            SCOPED_TRACE(hk::tierName(t));
            for (size_t i = 0; i < ref.size(); ++i)
                EXPECT_NEAR(ref[i], got[i], 1e-4);
        }
    }
}

TEST(KernelLibrary, FastSddmmMatchesScalarWithinTolerance)
{
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    for (const CooMatrix& coo : testMatrices()) {
        for (Index k : kWidths) {
            DenseMatrix u = randomDense(coo.rows(), k, 70 + k);
            DenseMatrix v = randomDense(coo.cols(), k, 80 + k);
            std::vector<Value> ref(coo.nnz());
            scalar.sddmm_fast(cooView(coo), k, u.row(0), v.row(0),
                              ref.data(), 0, coo.nnz());
            for (hk::Tier t : vectorTiers()) {
                std::vector<Value> got(coo.nnz());
                hk::opsForTier(t).sddmm_fast(cooView(coo), k, u.row(0),
                                             v.row(0), got.data(), 0,
                                             coo.nnz());
                SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                             " k=" + std::to_string(k));
                for (size_t i = 0; i < ref.size(); ++i)
                    EXPECT_NEAR(ref[i], got[i], 1e-4);
            }
        }
    }
}

TEST(KernelLibrary, GspmmAiMatchesScalarWithinTolerance)
{
    const hk::KernelOps& scalar = hk::opsForTier(hk::Tier::Scalar);
    for (int reps : {1, 4}) {
        for (const CooMatrix& coo : testMatrices()) {
            for (Index k : kWidths) {
                DenseMatrix din = randomDense(coo.cols(), k, 90 + k);
                DenseMatrix ref(coo.rows(), k);
                scalar.gspmm_ai(cooView(coo), k, reps, din.row(0),
                                ref.row(0), 0, coo.nnz());
                for (hk::Tier t : vectorTiers()) {
                    DenseMatrix got(coo.rows(), k);
                    hk::opsForTier(t).gspmm_ai(cooView(coo), k, reps,
                                               din.row(0), got.row(0), 0,
                                               coo.nnz());
                    SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                                 " k=" + std::to_string(k) +
                                 " reps=" + std::to_string(reps));
                    EXPECT_LT(ref.maxAbsDiff(got), 1e-4);
                }
            }
        }
    }
}

/** The IteratedMac fast path must agree with the same semiring
 *  evaluated through the Generic std::function path. */
TEST(KernelLibrary, IteratedMacGspmmMatchesGenericEvaluation)
{
    CooMatrix a = uniformMatrix();
    DenseMatrix din = randomDense(a.cols(), 13, 3);
    for (double ai : {1.0, 8.0}) {
        Semiring fast =
            ai == 1.0 ? arithmeticSemiring() : heavySemiring(ai);
        ASSERT_EQ(fast.kind, SemiringKind::IteratedMac);
        Semiring generic = fast;
        generic.kind = SemiringKind::Generic;
        DenseMatrix got = referenceGspmm(a, din, fast);
        DenseMatrix ref = referenceGspmm(a, din, generic);
        SCOPED_TRACE("ai=" + std::to_string(ai));
        EXPECT_TRUE(ref.approxEqual(got, 1e-3));
    }
}

// ---------------------------------------------------------------------------
// Memory safety of masked tails
// ---------------------------------------------------------------------------

TEST(KernelLibrary, MaskedTailsNeverTouchPadding)
{
    CooMatrix coo = uniformMatrix();
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    for (Index k : {Index(3), Index(13), Index(31)}) {
        DenseMatrix din = randomDense(a.cols(), k, 100 + k);
        for (hk::Tier t : hk::supportedTiers()) {
            const size_t n = size_t(a.rows()) * k;
            std::vector<Value> padded(n + 64, Value(12345.0f));
            hk::opsForTier(t).spmm_csr_fast(csrView(a), k, din.row(0),
                                            padded.data(), 0, a.rows());
            SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                         " k=" + std::to_string(k));
            for (size_t i = n; i < padded.size(); ++i)
                ASSERT_EQ(padded[i], Value(12345.0f));
        }
    }
}

// ---------------------------------------------------------------------------
// Row runs and prefetch: range boundaries
// ---------------------------------------------------------------------------

constexpr Value kUntouched = Value(12345.0f);

/** What the three CSR SpMM kernels wrote over one row range. */
struct CsrOutputs
{
    DenseMatrix golden;
    DenseMatrix fast;
    std::vector<double> acc;
};

/**
 * Run the CSR SpMM kernels of @p ops over rows [r0, r1) of @p a, with
 * col_ids and vals copied into heap arrays exactly row_ptr[r1] long, as
 * exec's panel-local arrays are: ASan flags any read past the view.
 * Rows outside the range keep kUntouched (golden, fast) or @p init.
 */
CsrOutputs
runCsrOverExactArrays(const hk::KernelOps& ops, const CsrMatrix& a,
                      Index k, const DenseMatrix& din, Index r0, Index r1,
                      const std::vector<double>& init)
{
    const size_t n = a.rowPtr()[r1];
    const std::unique_ptr<Index[]> cols(new Index[n]);
    const std::unique_ptr<Value[]> vals(new Value[n]);
    std::copy_n(a.colIds().data(), n, cols.get());
    std::copy_n(a.values().data(), n, vals.get());
    const hk::CsrView v{a.rowPtr().data(), cols.get(), vals.get(), r1};
    CsrOutputs out{DenseMatrix(a.rows(), k), DenseMatrix(a.rows(), k),
                   init};
    out.golden.fill(kUntouched);
    out.fast.fill(kUntouched);
    ops.spmm_csr_golden(v, k, din.row(0), out.golden.row(0), r0, r1);
    ops.spmm_csr_fast(v, k, din.row(0), out.fast.row(0), r0, r1);
    ops.spmm_csr_golden_acc(v, k, din.row(0), out.acc.data(), r0, r1);
    return out;
}

TEST(KernelLibrary, CsrSpmmOverExactArraysMatchesMatrixArrays)
{
    const CsrMatrix a = CsrMatrix::fromCoo(runMatrix());
    for (hk::Tier t : hk::supportedTiers()) {
        const hk::KernelOps& ops = hk::opsForTier(t);
        for (Index k : kWidths) {
            const DenseMatrix din = randomDense(a.cols(), k, 110 + k);
            const std::vector<double> init = randomDoubles(a.rows(), k, k);
            const CsrOutputs got =
                runCsrOverExactArrays(ops, a, k, din, 0, a.rows(), init);
            DenseMatrix golden(a.rows(), k);
            DenseMatrix fast(a.rows(), k);
            std::vector<double> acc = init;
            ops.spmm_csr_golden(csrView(a), k, din.row(0), golden.row(0), 0,
                                a.rows());
            ops.spmm_csr_fast(csrView(a), k, din.row(0), fast.row(0), 0,
                              a.rows());
            ops.spmm_csr_golden_acc(csrView(a), k, din.row(0), acc.data(),
                                    0, a.rows());
            SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                         " k=" + std::to_string(k));
            ASSERT_EQ(golden.data(), got.golden.data());
            ASSERT_EQ(fast.data(), got.fast.data());
            ASSERT_EQ(acc, got.acc);
        }
    }
}

TEST(KernelLibrary, CsrSpmmSubRangeMatchesFullCall)
{
    const CsrMatrix a = CsrMatrix::fromCoo(runMatrix());
    // Ends after the long row, before the last non-empty row: a
    // prefetch past row_ptr[r1] would read beyond the exact arrays.
    const Index r0 = 5;
    const Index r1 = kLongRow + 1;
    ASSERT_LT(a.rowPtr()[r1], a.nnz());
    for (hk::Tier t : hk::supportedTiers()) {
        const hk::KernelOps& ops = hk::opsForTier(t);
        for (Index k : kWidths) {
            const DenseMatrix din = randomDense(a.cols(), k, 120 + k);
            const std::vector<double> init = randomDoubles(a.rows(), k, k);
            const CsrOutputs full =
                runCsrOverExactArrays(ops, a, k, din, 0, a.rows(), init);
            const CsrOutputs sub =
                runCsrOverExactArrays(ops, a, k, din, r0, r1, init);
            SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                         " k=" + std::to_string(k));
            for (Index r = 0; r < a.rows(); ++r) {
                const bool in = r >= r0 && r < r1;
                for (Index j = 0; j < k; ++j) {
                    const size_t x = size_t(r) * k + j;
                    ASSERT_EQ(sub.golden.data()[x],
                              in ? full.golden.data()[x] : kUntouched)
                        << "row " << r;
                    ASSERT_EQ(sub.fast.data()[x],
                              in ? full.fast.data()[x] : kUntouched)
                        << "row " << r;
                    ASSERT_EQ(sub.acc[x], in ? full.acc[x] : init[x])
                        << "row " << r;
                }
            }
        }
    }
}

/** Splitting a nonzero range inside a row run changes no bit: each
 *  element's chain continues from the value the first call stored. */
TEST(KernelLibrary, CooSpmmSplitInsideRunMatchesOneCall)
{
    const CooMatrix coo = runMatrix();
    const hk::CooView v = cooView(coo);
    // A row panel from row 9 to the end, so row_base is not 0.
    const Index row_base = 9;
    const Index height = coo.rows() - row_base;
    const size_t b = size_t(std::lower_bound(coo.rowIds().begin(),
                                             coo.rowIds().end(), row_base) -
                            coo.rowIds().begin());
    const size_t e = coo.nnz();
    for (Index k : kWidths) {
        const DenseMatrix din = randomDense(coo.cols(), k, 130 + k);
        const std::vector<double> init = randomDoubles(height, k, k);
        DenseMatrix fast_init = randomDense(coo.rows(), k, 140 + k);
        std::vector<double> scalar_one = init;
        hk::opsForTier(hk::Tier::Scalar)
            .spmm_coo_golden(v, k, din.row(0), scalar_one.data(), row_base,
                             b, e);
        for (hk::Tier t : hk::supportedTiers()) {
            const hk::KernelOps& ops = hk::opsForTier(t);
            std::vector<double> one = init;
            ops.spmm_coo_golden(v, k, din.row(0), one.data(), row_base, b,
                                e);
            DenseMatrix fast_one = fast_init;
            ops.spmm_coo_fast(v, k, din.row(0), fast_one.row(0), b, e);
            SCOPED_TRACE(std::string("tier=") + hk::tierName(t) +
                         " k=" + std::to_string(k));
            ASSERT_EQ(one, scalar_one);
            for (size_t m = b; m <= e; ++m) {
                std::vector<double> two = init;
                ops.spmm_coo_golden(v, k, din.row(0), two.data(), row_base,
                                    b, m);
                ops.spmm_coo_golden(v, k, din.row(0), two.data(), row_base,
                                    m, e);
                ASSERT_EQ(one, two) << "golden split at " << m;
                DenseMatrix fast_two = fast_init;
                ops.spmm_coo_fast(v, k, din.row(0), fast_two.row(0), b, m);
                ops.spmm_coo_fast(v, k, din.row(0), fast_two.row(0), m, e);
                ASSERT_EQ(fast_one.data(), fast_two.data())
                    << "fast split at " << m;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism across thread counts with SIMD active
// ---------------------------------------------------------------------------

class KernelLibraryDeterminism : public ::testing::Test
{
  protected:
    static void
    TearDownTestSuite()
    {
        ThreadPool::setGlobalThreads(0);
    }

    template <typename Fn, typename Cmp>
    static void
    expectIdenticalAcrossThreads(Fn&& run, Cmp&& compare)
    {
        ThreadPool::setGlobalThreads(1);
        const auto baseline = run();
        for (unsigned t : {1u, 2u, 7u}) {
            ThreadPool::setGlobalThreads(t);
            const auto got = run();
            SCOPED_TRACE("threads=" + std::to_string(t));
            compare(baseline, got);
        }
    }
};

TEST_F(KernelLibraryDeterminism, SpmmBitIdenticalAcrossThreads)
{
    CooMatrix m = genCommunity(1024, 12.0, 16, 96, 0.8, 21);
    CsrMatrix csr = CsrMatrix::fromCoo(m);
    DenseMatrix din = randomDense(m.cols(), 13, 8);
    expectIdenticalAcrossThreads(
        [&] { return referenceSpmm(m, din); },
        [](const DenseMatrix& a, const DenseMatrix& b) {
            ASSERT_EQ(a.data(), b.data());
        });
    expectIdenticalAcrossThreads(
        [&] { return referenceSpmm(csr, din); },
        [](const DenseMatrix& a, const DenseMatrix& b) {
            ASSERT_EQ(a.data(), b.data());
        });
}

TEST_F(KernelLibraryDeterminism, SddmmAndGspmmBitIdenticalAcrossThreads)
{
    CooMatrix m = genCommunity(1024, 12.0, 16, 96, 0.8, 22);
    DenseMatrix u = randomDense(m.rows(), 16, 9);
    DenseMatrix din = randomDense(m.cols(), 16, 10);
    expectIdenticalAcrossThreads(
        [&] { return referenceSddmm(m, u, din); },
        [](const CooMatrix& a, const CooMatrix& b) {
            ASSERT_EQ(a.values(), b.values());
        });
    expectIdenticalAcrossThreads(
        [&] { return referenceGspmm(m, din, heavySemiring(4.0)); },
        [](const DenseMatrix& a, const DenseMatrix& b) {
            ASSERT_EQ(a.data(), b.data());
        });
}

} // namespace
} // namespace hottiles
