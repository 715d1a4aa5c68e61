#pragma once

/**
 * @file
 * AVX-512F traits: 16 x f32 / 8 x f64 with native mask registers for
 * the odd-K tails.  Only included from tier_avx512.cpp (compiled with
 * -mavx512f when available); runtime dispatch requires cpuid avx512f.
 */

#include <immintrin.h>

#include "sparse/types.hpp"

namespace hottiles::kernels {

struct SimdAvx512
{
    static constexpr const char* kName = "avx512";
    static constexpr Index kF = 16;
    static constexpr Index kD = 8;

    /** Nonzeros ahead whose Din row the golden CSR kernels prefetch,
     *  and the shortest one-row run the COO kernels hold in registers
     *  (docs/KERNELS.md has the sweep that chose them). */
    static constexpr size_t kPrefetchDist = 16;
    static constexpr size_t kMinRun = 4;

    using VF = __m512;
    using VD = __m512d;

    static VF zeroF() { return _mm512_setzero_ps(); }
    static VF broadcastF(Value v) { return _mm512_set1_ps(v); }
    static VF loadF(const Value* p) { return _mm512_loadu_ps(p); }
    static void storeF(Value* p, VF v) { _mm512_storeu_ps(p, v); }
    static VF addF(VF a, VF b) { return _mm512_add_ps(a, b); }
    static VF mulF(VF a, VF b) { return _mm512_mul_ps(a, b); }
    static VF fmaF(VF a, VF b, VF c) { return _mm512_fmadd_ps(a, b, c); }

    static Value hsumF(VF v)
    {
        // Hand-rolled instead of _mm512_reduce_add_ps: GCC 12's reduce
        // expands through _mm512_extractf64x4_pd whose undefined-value
        // pass-through trips -Wmaybe-uninitialized under -Werror.
        const __m256 lo = _mm512_castps512_ps256(v);
        const __m256 hi = _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(
            __mmask8(0xf), _mm512_castps_pd(v), 1));
        const __m256 s = _mm256_add_ps(lo, hi);
        __m128 l = _mm_add_ps(_mm256_castps256_ps128(s),
                              _mm256_extractf128_ps(s, 1));
        l = _mm_add_ps(l, _mm_movehl_ps(l, l));
        l = _mm_add_ss(l, _mm_movehdup_ps(l));
        return _mm_cvtss_f32(l);
    }

    static VF maskLoadF(const Value* p, Index n)
    {
        const __mmask16 m = static_cast<__mmask16>((1u << n) - 1);
        return _mm512_maskz_loadu_ps(m, p);
    }
    static void maskStoreF(Value* p, VF v, Index n)
    {
        const __mmask16 m = static_cast<__mmask16>((1u << n) - 1);
        _mm512_mask_storeu_ps(p, m, v);
    }
    static VF gatherF(const Value* base, const Index* idx)
    {
        const __m512i vi =
            _mm512_loadu_si512(reinterpret_cast<const void*>(idx));
        // Masked gather with a defined zero source (the plain form's
        // undefined source trips GCC 12 -Wmaybe-uninitialized).
        return _mm512_mask_i32gather_ps(_mm512_setzero_ps(),
                                        __mmask16(0xffff), vi, base, 4);
    }

    static VD zeroD() { return _mm512_setzero_pd(); }
    static VD broadcastD(double v) { return _mm512_set1_pd(v); }
    static VD loadD(const double* p) { return _mm512_loadu_pd(p); }
    static void storeD(double* p, VD v) { _mm512_storeu_pd(p, v); }
    static VD fmaD(VD a, VD b, VD c) { return _mm512_fmadd_pd(a, b, c); }
    static VD cvtF2D(const Value* p)
    {
        return _mm512_cvtps_pd(_mm256_loadu_ps(p));
    }
    static void storeD2F(Value* p, VD v)
    {
        // maskz form: same cvtpd2ps, but with a defined zero fallback —
        // the plain intrinsic's _mm256_undefined_ps() pass-through trips
        // -Wmaybe-uninitialized in GCC 12's headers.
        _mm256_storeu_ps(p, _mm512_maskz_cvtpd_ps(__mmask8(0xff), v));
    }
    static void cvtD2F(const double* src, Value* dst)
    {
        storeD2F(dst, loadD(src));
    }
};

} // namespace hottiles::kernels
