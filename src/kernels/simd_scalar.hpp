#pragma once

/**
 * @file
 * Scalar "SIMD" traits: one lane per vector, plain C++ arithmetic.
 * This tier is the portable fallback and the reference the property
 * suite measures every vector tier against; its translation unit is
 * compiled with auto-vectorization disabled so forced-scalar runs and
 * the bench's scalar baseline really execute one element at a time.
 */

#include "sparse/types.hpp"

namespace hottiles::kernels {

struct SimdScalar
{
    static constexpr const char* kName = "scalar";
    static constexpr Index kF = 1;  //!< float lanes
    static constexpr Index kD = 1;  //!< double lanes

    // Latency tolerance is off: this tier is referenceExecute's oracle
    // and the throughput gate's denominator, so its code path stays put.
    static constexpr size_t kPrefetchDist = 0;  //!< CSR prefetch (off)
    static constexpr size_t kMinRun = 0;        //!< COO row runs (off)

    using VF = Value;
    using VD = double;

    static VF zeroF() { return 0.0f; }
    static VF broadcastF(Value v) { return v; }
    static VF loadF(const Value* p) { return *p; }
    static void storeF(Value* p, VF v) { *p = v; }
    static VF addF(VF a, VF b) { return a + b; }
    static VF mulF(VF a, VF b) { return a * b; }
    static VF fmaF(VF a, VF b, VF c) { return a * b + c; }
    static Value hsumF(VF v) { return v; }

    // Masked tails never trigger at one lane (n < kF is impossible);
    // the stubs keep the template instantiable.
    static VF maskLoadF(const Value* p, Index n) { return n ? *p : 0.0f; }
    static void maskStoreF(Value* p, VF v, Index n)
    {
        if (n)
            *p = v;
    }
    static VF gatherF(const Value* base, const Index* idx)
    {
        return base[*idx];
    }

    static VD zeroD() { return 0.0; }
    static VD broadcastD(double v) { return v; }
    static VD loadD(const double* p) { return *p; }
    static void storeD(double* p, VD v) { *p = v; }
    static VD fmaD(VD a, VD b, VD c) { return a * b + c; }
    /** Load kD floats widened to double lanes. */
    static VD cvtF2D(const Value* p) { return double(*p); }
    /** Store kD double lanes rounded to float. */
    static void storeD2F(Value* p, VD v) { *p = static_cast<Value>(v); }
    static void cvtD2F(const double* src, Value* dst)
    {
        *dst = static_cast<Value>(*src);
    }
};

} // namespace hottiles::kernels
