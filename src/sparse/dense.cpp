#include "sparse/dense.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "kernels/dispatch.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace hottiles {

DenseMatrix::DenseMatrix(Index rows, Index cols)
    : DenseMatrix(uninitialized(rows, cols))
{
    // One memset: the allocator's element-wise construction is a loop.
    if (!data_.empty())
        std::memset(data_.data(), 0, data_.size() * sizeof(Value));
}

DenseMatrix
DenseMatrix::uninitialized(Index rows, Index cols)
{
    DenseMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = AlignedValueVector(size_t(rows) * cols);
    return m;
}

void
DenseMatrix::fill(Value v)
{
    std::fill(data_.begin(), data_.end(), v);
}

void
DenseMatrix::fillRandom(Rng& rng)
{
    for (auto& v : data_)
        v = static_cast<Value>(rng.nextDouble(-1.0, 1.0));
}

void
DenseMatrix::accumulate(const DenseMatrix& other)
{
    HT_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
              "accumulate shape mismatch");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
}

double
DenseMatrix::maxAbsDiff(const DenseMatrix& other) const
{
    HT_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
              "maxAbsDiff shape mismatch");
    double m = 0.0;
    for (size_t i = 0; i < data_.size(); ++i)
        m = std::max(m, std::abs(double(data_[i]) - double(other.data_[i])));
    return m;
}

bool
DenseMatrix::approxEqual(const DenseMatrix& other, double rel_tol) const
{
    HT_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
              "approxEqual shape mismatch");
    for (size_t i = 0; i < data_.size(); ++i) {
        double a = data_[i];
        double b = other.data_[i];
        double scale = std::max({std::abs(a), std::abs(b), 1.0});
        if (std::abs(a - b) > rel_tol * scale)
            return false;
    }
    return true;
}

DenseMatrix
referenceSpmm(const CooMatrix& a, const DenseMatrix& din)
{
    HT_ASSERT(a.cols() == din.rows(), "SpMM shape mismatch");
    const Index k = din.cols();

    // Row-panel parallelism: sort row-major, then chunk at row
    // boundaries so every output row is owned by exactly one chunk.
    const CooMatrix* src = &a;
    CooMatrix sorted;
    if (!a.isRowMajorSorted()) {
        sorted = a;
        sorted.sortRowMajor();
        src = &sorted;
    }

    // Golden double accumulation through the vectorized kernel library
    // (kernels/dispatch.hpp) — per-chunk scratch instead of a full
    // rows x k double matrix; bit-identical across SIMD tiers.
    DenseMatrix dout(a.rows(), k);
    if (src->nnz() == 0)
        return dout;
    HT_DASSERT(isAligned(din.row(0)) && isAligned(dout.row(0)),
               "dense operands must be cache-line aligned");
    const kernels::CooView view{src->rowIds().data(), src->colIds().data(),
                                src->values().data(), src->nnz()};
    const std::vector<size_t> bounds =
        rowAlignedChunkBounds(src->rowIds(), kGrainNnz);
    kernels::spmmCooGolden(view, k, din.row(0), dout.row(0), bounds);
    return dout;
}

DenseMatrix
referenceSpmm(const CsrMatrix& a, const DenseMatrix& din)
{
    HT_ASSERT(a.cols() == din.rows(), "SpMM shape mismatch");
    const Index k = din.cols();
    DenseMatrix dout(a.rows(), k);
    if (a.rows() == 0 || k == 0)
        return dout;
    HT_DASSERT(isAligned(din.row(0)) && isAligned(dout.row(0)),
               "dense operands must be cache-line aligned");
    const kernels::CsrView view{a.rowPtr().data(), a.colIds().data(),
                                a.values().data(), a.rows()};
    kernels::spmmCsr(view, k, din.row(0), dout.row(0),
                     kernels::Policy::Golden);
    return dout;
}

} // namespace hottiles
