#pragma once

/**
 * @file
 * Row-major dense matrix and reference SpMM kernels.  Used as the input
 * (Din) and output (Dout) operands and as the functional golden model the
 * simulator is validated against.
 */

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "sparse/types.hpp"

namespace hottiles {

class CooMatrix;
class CsrMatrix;
class Rng;

/** Cache-line-aligned backing store for dense operands (SIMD loads in
 *  src/kernels start from a 64-byte boundary). */
using AlignedValueVector = std::vector<Value, AlignedAllocator<Value>>;

/** Row-major dense matrix of floats. */
class DenseMatrix
{
  public:
    DenseMatrix() = default;

    /** Create a zero-filled rows x cols matrix. */
    DenseMatrix(Index rows, Index cols);

    /** A rows x cols matrix whose elements are left uninitialized, for
     *  an output or input that is overwritten in full before it is
     *  read (an execution backend's run, fillRandom). */
    static DenseMatrix uninitialized(Index rows, Index cols);

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }

    Value& at(Index r, Index c) { return data_[size_t(r) * cols_ + c]; }
    Value at(Index r, Index c) const { return data_[size_t(r) * cols_ + c]; }

    /** Pointer to the first element of row @p r. */
    Value* row(Index r) { return data_.data() + size_t(r) * cols_; }
    const Value* row(Index r) const { return data_.data() + size_t(r) * cols_; }

    const AlignedValueVector& data() const { return data_; }

    /** Set every element to @p v. */
    void fill(Value v);

    /** Fill with deterministic uniform values in [-1, 1). */
    void fillRandom(Rng& rng);

    /** Element-wise accumulate: this += other. @pre same shape. */
    void accumulate(const DenseMatrix& other);

    /** Largest absolute element difference vs @p other. @pre same shape. */
    double maxAbsDiff(const DenseMatrix& other) const;

    /**
     * True if all elements match @p other within @p rel_tol relative
     * tolerance (with a small absolute floor for near-zero values).
     */
    bool approxEqual(const DenseMatrix& other, double rel_tol = 1e-4) const;

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    AlignedValueVector data_;
};

/** Reference SpMM: Dout = A * Din (double accumulation). */
DenseMatrix referenceSpmm(const CooMatrix& a, const DenseMatrix& din);

/** Reference SpMM over CSR (must equal the COO version). */
DenseMatrix referenceSpmm(const CsrMatrix& a, const DenseMatrix& din);

} // namespace hottiles
