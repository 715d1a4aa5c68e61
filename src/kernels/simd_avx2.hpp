#pragma once

/**
 * @file
 * AVX2 + FMA traits: 8 x f32 / 4 x f64.  Only included from
 * tier_avx2.cpp, which CMake compiles with -mavx2 -mfma when the
 * compiler supports them; dispatch gates on cpuid at runtime, so the
 * binary stays runnable on older x86 hosts.
 *
 * Loads use unaligned forms throughout: DenseMatrix storage is 64-byte
 * aligned at the base, but interior rows are only aligned when
 * K * sizeof(Value) is a multiple of the vector width, and loadu costs
 * nothing on aligned addresses on every AVX2-era core.  Odd-K tails use
 * maskload/maskstore so no lane ever touches past the row end.
 */

#include <immintrin.h>

#include "sparse/types.hpp"

namespace hottiles::kernels {

struct SimdAvx2
{
    static constexpr const char* kName = "avx2";
    static constexpr Index kF = 8;
    static constexpr Index kD = 4;

    /** Nonzeros ahead whose Din row the golden CSR kernels prefetch,
     *  and the shortest one-row run the COO kernels hold in registers
     *  (docs/KERNELS.md has the sweep that chose them). */
    static constexpr size_t kPrefetchDist = 16;
    static constexpr size_t kMinRun = 4;

    using VF = __m256;
    using VD = __m256d;

    static VF zeroF() { return _mm256_setzero_ps(); }
    static VF broadcastF(Value v) { return _mm256_set1_ps(v); }
    static VF loadF(const Value* p) { return _mm256_loadu_ps(p); }
    static void storeF(Value* p, VF v) { _mm256_storeu_ps(p, v); }
    static VF addF(VF a, VF b) { return _mm256_add_ps(a, b); }
    static VF mulF(VF a, VF b) { return _mm256_mul_ps(a, b); }
    static VF fmaF(VF a, VF b, VF c) { return _mm256_fmadd_ps(a, b, c); }

    static Value hsumF(VF v)
    {
        __m128 lo = _mm256_castps256_ps128(v);
        __m128 hi = _mm256_extractf128_ps(v, 1);
        lo = _mm_add_ps(lo, hi);
        lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
        lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
        return _mm_cvtss_f32(lo);
    }

    static __m256i tailMask(Index n)
    {
        // First n 32-bit lanes all-ones, rest zero (n in [0, 8)).
        alignas(32) static const int32_t tbl[16] = {-1, -1, -1, -1, -1,
                                                    -1, -1, -1, 0,  0,
                                                    0,  0,  0,  0,  0, 0};
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(tbl + 8 - n));
    }
    static VF maskLoadF(const Value* p, Index n)
    {
        return _mm256_maskload_ps(p, tailMask(n));
    }
    static void maskStoreF(Value* p, VF v, Index n)
    {
        _mm256_maskstore_ps(p, tailMask(n), v);
    }
    static VF gatherF(const Value* base, const Index* idx)
    {
        const __m256i vi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
        return _mm256_i32gather_ps(base, vi, 4);
    }

    static VD zeroD() { return _mm256_setzero_pd(); }
    static VD broadcastD(double v) { return _mm256_set1_pd(v); }
    static VD loadD(const double* p) { return _mm256_loadu_pd(p); }
    static void storeD(double* p, VD v) { _mm256_storeu_pd(p, v); }
    static VD fmaD(VD a, VD b, VD c) { return _mm256_fmadd_pd(a, b, c); }
    static VD cvtF2D(const Value* p)
    {
        return _mm256_cvtps_pd(_mm_loadu_ps(p));
    }
    static void storeD2F(Value* p, VD v)
    {
        _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
    }
    static void cvtD2F(const double* src, Value* dst)
    {
        storeD2F(dst, loadD(src));
    }
};

} // namespace hottiles::kernels
