#pragma once

/**
 * @file
 * AArch64 Advanced SIMD (NEON) traits: 4 x f32 / 2 x f64.  NEON is
 * baseline on AArch64 so tier_neon.cpp needs no extra compile flags and
 * no runtime cpuid gate.  NEON has no masked loads or hardware gathers;
 * both are synthesized from lane accesses.
 */

#include <arm_neon.h>

#include "sparse/types.hpp"

namespace hottiles::kernels {

struct SimdNeon
{
    static constexpr const char* kName = "neon";
    static constexpr Index kF = 4;
    static constexpr Index kD = 2;

    /** Nonzeros ahead whose Din row the golden CSR kernels prefetch,
     *  and the shortest one-row run the COO kernels hold in registers.
     *  Copied from the x86 tiers, not yet measured on AArch64
     *  (docs/KERNELS.md). */
    static constexpr size_t kPrefetchDist = 16;
    static constexpr size_t kMinRun = 4;

    using VF = float32x4_t;
    using VD = float64x2_t;

    static VF zeroF() { return vdupq_n_f32(0.0f); }
    static VF broadcastF(Value v) { return vdupq_n_f32(v); }
    static VF loadF(const Value* p) { return vld1q_f32(p); }
    static void storeF(Value* p, VF v) { vst1q_f32(p, v); }
    static VF addF(VF a, VF b) { return vaddq_f32(a, b); }
    static VF mulF(VF a, VF b) { return vmulq_f32(a, b); }
    static VF fmaF(VF a, VF b, VF c) { return vfmaq_f32(c, a, b); }
    static Value hsumF(VF v) { return vaddvq_f32(v); }

    static VF maskLoadF(const Value* p, Index n)
    {
        float32x4_t v = vdupq_n_f32(0.0f);
        if (n > 0)
            v = vsetq_lane_f32(p[0], v, 0);
        if (n > 1)
            v = vsetq_lane_f32(p[1], v, 1);
        if (n > 2)
            v = vsetq_lane_f32(p[2], v, 2);
        return v;
    }
    static void maskStoreF(Value* p, VF v, Index n)
    {
        if (n > 0)
            p[0] = vgetq_lane_f32(v, 0);
        if (n > 1)
            p[1] = vgetq_lane_f32(v, 1);
        if (n > 2)
            p[2] = vgetq_lane_f32(v, 2);
    }
    static VF gatherF(const Value* base, const Index* idx)
    {
        float32x4_t v = vdupq_n_f32(0.0f);
        v = vsetq_lane_f32(base[idx[0]], v, 0);
        v = vsetq_lane_f32(base[idx[1]], v, 1);
        v = vsetq_lane_f32(base[idx[2]], v, 2);
        v = vsetq_lane_f32(base[idx[3]], v, 3);
        return v;
    }

    static VD zeroD() { return vdupq_n_f64(0.0); }
    static VD broadcastD(double v) { return vdupq_n_f64(v); }
    static VD loadD(const double* p) { return vld1q_f64(p); }
    static void storeD(double* p, VD v) { vst1q_f64(p, v); }
    static VD fmaD(VD a, VD b, VD c) { return vfmaq_f64(c, a, b); }
    static VD cvtF2D(const Value* p)
    {
        return vcvt_f64_f32(vld1_f32(p));
    }
    static void storeD2F(Value* p, VD v)
    {
        vst1_f32(p, vcvt_f32_f64(v));
    }
    static void cvtD2F(const double* src, Value* dst)
    {
        storeD2F(dst, loadD(src));
    }
};

} // namespace hottiles::kernels
