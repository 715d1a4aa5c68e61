#pragma once

/**
 * @file
 * Tier-generic micro-kernel bodies, templated over a SIMD traits type
 * (simd_scalar.hpp / simd_avx2.hpp / simd_avx512.hpp / simd_neon.hpp).
 * Each tier translation unit instantiates MicroKernels<S> once and
 * exports the resulting KernelOps table; dispatch.cpp picks a table at
 * runtime.
 *
 * Vectorization discipline (kernel_api.hpp): golden kernels vectorize
 * only across the dense-K dimension, where every output column owns an
 * independent accumulator chain, so lane width never changes the
 * floating-point result.  Reductions across the sparse dimension (SpMV
 * and SDDMM dots) reassociate when vectorized and therefore exist only
 * under the Fast policy; their golden forms are scalar in every tier.
 *
 * Register blocking: the K loop runs in panels of four vectors (the
 * inner kernel holds 4 accumulators live across the whole nonzero run
 * of a row, giving Dout register reuse like the paper's streaming PEs),
 * then single vectors, then a masked (or scalar, for doubles) tail.
 *
 * Latency tolerance, in the vector tiers only (the scalar traits switch
 * both off, so referenceExecute and the throughput gate's scalar
 * denominator keep their code path):
 *  - the golden CSR kernels' four-vector loop prefetches the Din row
 *    slice of the nonzero S::kPrefetchDist positions ahead, within the
 *    view;
 *  - the COO kernels fold each run of at least S::kMinRun nonzeros on
 *    one row in registers, loading and storing its accumulator once per
 *    run instead of once per nonzero, and the accumulating golden CSR
 *    kernel folds every row that way.
 * Neither changes any element's FMA sequence (docs/KERNELS.md).
 */

#include <cstddef>
#include <type_traits>

#include "kernels/kernel_api.hpp"

namespace hottiles::kernels {

template <class S>
struct MicroKernels
{
    using VF = typename S::VF;
    using VD = typename S::VD;
    static constexpr Index F = S::kF;
    static constexpr Index D = S::kD;

    /**
     * Prefetch the cache lines of the Din row slice [j, j + 4D) that the
     * nonzero S::kPrefetchDist positions after @p i will read, while
     * that nonzero lies before @p end (inside the view).  A prefetch
     * does no arithmetic, so no accumulator chain changes.
     */
    static void
    prefetchAhead([[maybe_unused]] const Index* col_ids,
                  [[maybe_unused]] size_t i, [[maybe_unused]] size_t end,
                  [[maybe_unused]] Index k,
                  [[maybe_unused]] const Value* din,
                  [[maybe_unused]] Index j)
    {
        if constexpr (S::kPrefetchDist > 0) {
            if (i + S::kPrefetchDist < end) {
                const char* p = reinterpret_cast<const char*>(
                    din + size_t(col_ids[i + S::kPrefetchDist]) * k + j);
                for (size_t off = 0; off < 4 * D * sizeof(Value); off += 64)
                    __builtin_prefetch(p + off);
            }
        }
    }

    /**
     * Fold nonzeros [b, e) of one row into the output row @p out with
     * double chains, four vectors at a time in registers.  For a double
     * @p out each chain starts from the stored value (accumulate); for a
     * Value @p out it starts from zero and is rounded once on store.
     * The four-vector loop prefetches while the nonzero ahead lies
     * before @p pf_end (0: never); the narrower loops read under a cache
     * line per nonzero, where a prefetch costs more than it hides.
     */
    template <class Out>
    [[gnu::always_inline]] static void
    runGolden(const Index* col_ids, const Value* vals, size_t b, size_t e,
              size_t pf_end, Index k, const Value* din, Out* out)
    {
        constexpr bool kLoad = std::is_same_v<Out, double>;
        auto load = [&](Index at) {
            if constexpr (kLoad)
                return S::loadD(out + at);
            else
                return S::zeroD();
        };
        auto store = [&](Index at, VD v) {
            if constexpr (kLoad)
                S::storeD(out + at, v);
            else
                S::storeD2F(out + at, v);
        };
        Index j = 0;
        for (; j + 4 * D <= k; j += 4 * D) {
            VD a0 = load(j);
            VD a1 = load(j + D);
            VD a2 = load(j + 2 * D);
            VD a3 = load(j + 3 * D);
            for (size_t i = b; i < e; ++i) {
                prefetchAhead(col_ids, i, pf_end, k, din, j);
                const VD v = S::broadcastD(double(vals[i]));
                const Value* in = din + size_t(col_ids[i]) * k + j;
                a0 = S::fmaD(v, S::cvtF2D(in), a0);
                a1 = S::fmaD(v, S::cvtF2D(in + D), a1);
                a2 = S::fmaD(v, S::cvtF2D(in + 2 * D), a2);
                a3 = S::fmaD(v, S::cvtF2D(in + 3 * D), a3);
            }
            store(j, a0);
            store(j + D, a1);
            store(j + 2 * D, a2);
            store(j + 3 * D, a3);
        }
        for (; j + D <= k; j += D) {
            VD acc = load(j);
            for (size_t i = b; i < e; ++i)
                acc = S::fmaD(S::broadcastD(double(vals[i])),
                              S::cvtF2D(din + size_t(col_ids[i]) * k + j),
                              acc);
            store(j, acc);
        }
        for (; j < k; ++j) {
            double acc = 0.0;
            if constexpr (kLoad)
                acc = out[j];
            for (size_t i = b; i < e; ++i)
                acc += double(vals[i]) *
                       double(din[size_t(col_ids[i]) * k + j]);
            out[j] = static_cast<Out>(acc);
        }
    }

    /**
     * Fold nonzeros [b, e) of one row into the fp32 row @p out, four
     * vectors at a time in registers.  kLoad starts each chain from the
     * stored value (accumulate), otherwise from zero.  No prefetch: the
     * fp32 loops are light enough that out-of-order execution already
     * overlaps their Din misses (docs/KERNELS.md has the measurement).
     */
    template <bool kLoad>
    [[gnu::always_inline]] static void
    runFast(const Index* col_ids, const Value* vals, size_t b, size_t e,
            Index k, const Value* din, Value* out)
    {
        Index j = 0;
        for (; j + 4 * F <= k; j += 4 * F) {
            VF a0 = kLoad ? S::loadF(out + j) : S::zeroF();
            VF a1 = kLoad ? S::loadF(out + j + F) : S::zeroF();
            VF a2 = kLoad ? S::loadF(out + j + 2 * F) : S::zeroF();
            VF a3 = kLoad ? S::loadF(out + j + 3 * F) : S::zeroF();
            for (size_t i = b; i < e; ++i) {
                const VF v = S::broadcastF(vals[i]);
                const Value* in = din + size_t(col_ids[i]) * k + j;
                a0 = S::fmaF(v, S::loadF(in), a0);
                a1 = S::fmaF(v, S::loadF(in + F), a1);
                a2 = S::fmaF(v, S::loadF(in + 2 * F), a2);
                a3 = S::fmaF(v, S::loadF(in + 3 * F), a3);
            }
            S::storeF(out + j, a0);
            S::storeF(out + j + F, a1);
            S::storeF(out + j + 2 * F, a2);
            S::storeF(out + j + 3 * F, a3);
        }
        for (; j + F <= k; j += F) {
            VF acc = kLoad ? S::loadF(out + j) : S::zeroF();
            for (size_t i = b; i < e; ++i)
                acc = S::fmaF(S::broadcastF(vals[i]),
                              S::loadF(din + size_t(col_ids[i]) * k + j),
                              acc);
            S::storeF(out + j, acc);
        }
        if (j < k) {
            const Index tail = k - j;
            VF acc = kLoad ? S::maskLoadF(out + j, tail) : S::zeroF();
            for (size_t i = b; i < e; ++i)
                acc = S::fmaF(
                    S::broadcastF(vals[i]),
                    S::maskLoadF(din + size_t(col_ids[i]) * k + j, tail),
                    acc);
            S::maskStoreF(out + j, acc, tail);
        }
    }

    /**
     * Walk nonzeros [b, e): each run of at least S::kMinRun nonzeros on
     * one row goes to @p run(rb, re), every other nonzero to @p one(i).
     * Run search costs a branch per run, so it happens only when the
     * range averages at least S::kMinRun nonzeros per row it spans, read
     * off its end rows in O(1) (row-sorted input); ranges of short runs,
     * and the scalar tier, keep the plain per-nonzero loop.
     */
    template <class Run, class One>
    [[gnu::always_inline]] static void
    forEachRun(const Index* row_ids, size_t b, size_t e, Run&& run, One&& one)
    {
        if constexpr (S::kMinRun > 0) {
            const size_t n = e - b;
            if (n >= S::kMinRun && row_ids[e - 1] >= row_ids[b] &&
                n >= S::kMinRun * (size_t(row_ids[e - 1] - row_ids[b]) + 1)) {
                for (size_t i = b; i < e;) {
                    size_t re = i + 1;
                    while (re < e && row_ids[re] == row_ids[i])
                        ++re;
                    if (re - i >= S::kMinRun)
                        run(i, re);
                    else
                        for (size_t x = i; x < re; ++x)
                            one(x);
                    i = re;
                }
                return;
            }
        }
        for (size_t i = b; i < e; ++i)
            one(i);
    }

    static void
    spmmCsrGolden(const CsrView& a, Index k, const Value* din, Value* dout,
                  Index r0, Index r1)
    {
        const size_t end = a.row_ptr[r1];
        for (Index r = r0; r < r1; ++r)
            runGolden(a.col_ids, a.vals, a.row_ptr[r], a.row_ptr[r + 1],
                      end, k, din, dout + size_t(r) * k);
    }

    static void
    spmmCsrFast(const CsrView& a, Index k, const Value* din, Value* dout,
                Index r0, Index r1)
    {
        for (Index r = r0; r < r1; ++r)
            runFast<false>(a.col_ids, a.vals, a.row_ptr[r],
                           a.row_ptr[r + 1], k, din, dout + size_t(r) * k);
    }

    static void
    spmmCsrGoldenAcc(const CsrView& a, Index k, const Value* din,
                     double* acc, Index r0, Index r1)
    {
        // Per-element chain: start from the stored accumulator and fold
        // the row's nonzeros in CSR order.  Products of promoted floats
        // are exact in double, so fused vs unfused FMA and lane width
        // never change the result (the golden contract).
        [[maybe_unused]] const size_t end = a.row_ptr[r1];
        for (Index r = r0; r < r1; ++r) {
            const size_t rb = a.row_ptr[r];
            const size_t re = a.row_ptr[r + 1];
            if (rb == re)
                continue;
            double* out = acc + size_t(r) * k;
            if constexpr (S::kMinRun > 0) {
                // A CSR row is one row run: the vector tiers fold it in
                // registers, four vectors at a time.
                runGolden(a.col_ids, a.vals, rb, re, end, k, din, out);
            } else {
                Index j = 0;
                for (; j + D <= k; j += D) {
                    VD accv = S::loadD(out + j);
                    for (size_t i = rb; i < re; ++i)
                        accv = S::fmaD(
                            S::broadcastD(double(a.vals[i])),
                            S::cvtF2D(din + size_t(a.col_ids[i]) * k + j),
                            accv);
                    S::storeD(out + j, accv);
                }
                for (; j < k; ++j) {
                    double accs = out[j];
                    for (size_t i = rb; i < re; ++i)
                        accs += double(a.vals[i]) *
                                double(din[size_t(a.col_ids[i]) * k + j]);
                    out[j] = accs;
                }
            }
        }
    }

    /** One nonzero of the COO golden kernel, accumulated in memory. */
    [[gnu::always_inline]] static void
    nnzGolden(const CooView& a, Index k, const Value* din, double* acc,
              Index row_base, size_t i)
    {
        const double v = double(a.vals[i]);
        const Value* in = din + size_t(a.col_ids[i]) * k;
        double* out = acc + size_t(a.row_ids[i] - row_base) * k;
        const VD vv = S::broadcastD(v);
        Index j = 0;
        for (; j + D <= k; j += D)
            S::storeD(out + j,
                      S::fmaD(vv, S::cvtF2D(in + j), S::loadD(out + j)));
        for (; j < k; ++j)
            out[j] += v * double(in[j]);
    }

    /** One nonzero of the COO fast kernel, accumulated in memory. */
    [[gnu::always_inline]] static void
    nnzFast(const CooView& a, Index k, const Value* din, Value* dout,
            size_t i)
    {
        const Value v = a.vals[i];
        const Value* in = din + size_t(a.col_ids[i]) * k;
        Value* out = dout + size_t(a.row_ids[i]) * k;
        const VF vv = S::broadcastF(v);
        Index j = 0;
        for (; j + F <= k; j += F)
            S::storeF(out + j,
                      S::fmaF(vv, S::loadF(in + j), S::loadF(out + j)));
        if (j < k) {
            const Index tail = k - j;
            S::maskStoreF(out + j,
                          S::fmaF(vv, S::maskLoadF(in + j, tail),
                                  S::maskLoadF(out + j, tail)),
                          tail);
        }
    }

    static void
    spmmCooGolden(const CooView& a, Index k, const Value* din, double* acc,
                  Index row_base, size_t b, size_t e)
    {
        // A run folds in registers; each element sees the same chain as
        // nonzero by nonzero.
        forEachRun(
            a.row_ids, b, e,
            [&](size_t rb, size_t re) {
                runGolden(a.col_ids, a.vals, rb, re, 0, k, din,
                          acc + size_t(a.row_ids[rb] - row_base) * k);
            },
            [&](size_t i) { nnzGolden(a, k, din, acc, row_base, i); });
    }

    static void
    spmmCooFast(const CooView& a, Index k, const Value* din, Value* dout,
                size_t b, size_t e)
    {
        forEachRun(
            a.row_ids, b, e,
            [&](size_t rb, size_t re) {
                runFast<true>(a.col_ids, a.vals, rb, re, k, din,
                              dout + size_t(a.row_ids[rb]) * k);
            },
            [&](size_t i) { nnzFast(a, k, din, dout, i); });
    }

    static void
    spmvCsrFast(const CsrView& a, const Value* x, Value* y, Index r0,
                Index r1)
    {
        for (Index r = r0; r < r1; ++r) {
            const size_t rb = a.row_ptr[r];
            const size_t re = a.row_ptr[r + 1];
            VF acc = S::zeroF();
            size_t i = rb;
            for (; i + F <= re; i += F)
                acc = S::fmaF(S::loadF(a.vals + i),
                              S::gatherF(x, a.col_ids + i), acc);
            Value s = S::hsumF(acc);
            for (; i < re; ++i)
                s += a.vals[i] * x[a.col_ids[i]];
            y[r] = s;
        }
    }

    static void
    spmvCooGolden(const CooView& a, const Value* x, double* acc, size_t b,
                  size_t e)
    {
        // Cross-nonzero accumulation: scalar in every tier (reassociation
        // would break the golden bit-identity contract).
        for (size_t i = b; i < e; ++i)
            acc[a.row_ids[i]] +=
                double(a.vals[i]) * double(x[a.col_ids[i]]);
    }

    static void
    sddmmGolden(const CooView& a, Index k, const Value* u, const Value* v,
                Value* out, size_t b, size_t e)
    {
        for (size_t i = b; i < e; ++i) {
            const Value* ur = u + size_t(a.row_ids[i]) * k;
            const Value* vr = v + size_t(a.col_ids[i]) * k;
            double dot = 0.0;
            for (Index j = 0; j < k; ++j)
                dot += double(ur[j]) * double(vr[j]);
            out[i] = static_cast<Value>(double(a.vals[i]) * dot);
        }
    }

    static void
    sddmmFast(const CooView& a, Index k, const Value* u, const Value* v,
              Value* out, size_t b, size_t e)
    {
        for (size_t i = b; i < e; ++i) {
            const Value* ur = u + size_t(a.row_ids[i]) * k;
            const Value* vr = v + size_t(a.col_ids[i]) * k;
            VF acc = S::zeroF();
            Index j = 0;
            for (; j + F <= k; j += F)
                acc = S::fmaF(S::loadF(ur + j), S::loadF(vr + j), acc);
            if (j < k) {
                const Index tail = k - j;
                acc = S::fmaF(S::maskLoadF(ur + j, tail),
                              S::maskLoadF(vr + j, tail), acc);
            }
            out[i] = a.vals[i] * S::hsumF(acc);
        }
    }

    static void
    gspmmAi(const CooView& a, Index k, int reps, const Value* din,
            Value* dout, size_t b, size_t e)
    {
        const Value rcp = Value(1) / Value(reps);
        const VF vrcp = S::broadcastF(rcp);
        for (size_t i = b; i < e; ++i) {
            const Value v = a.vals[i];
            const Value* in = din + size_t(a.col_ids[i]) * k;
            Value* out = dout + size_t(a.row_ids[i]) * k;
            const VF vv = S::broadcastF(v);
            Index j = 0;
            if (reps == 1) {
                for (; j + F <= k; j += F)
                    S::storeF(out + j, S::fmaF(vv, S::loadF(in + j),
                                               S::loadF(out + j)));
                for (; j < k; ++j)
                    out[j] += v * in[j];
                continue;
            }
            // Iterated MAC (gspmm.cpp heavySemiring): the multiply costs
            // reps accumulations scaled back by 1/reps.
            for (; j + F <= k; j += F) {
                const VF inv = S::loadF(in + j);
                VF t = S::mulF(vv, inv);
                for (int rreps = 1; rreps < reps; ++rreps)
                    t = S::addF(t, S::mulF(vv, inv));
                S::storeF(out + j,
                          S::addF(S::loadF(out + j), S::mulF(t, vrcp)));
            }
            for (; j < k; ++j) {
                Value t = v * in[j];
                for (int rreps = 1; rreps < reps; ++rreps)
                    t += v * in[j];
                out[j] += t * rcp;
            }
        }
    }

    static void
    cvtD2F(const double* src, Value* dst, size_t n)
    {
        size_t i = 0;
        for (; i + D <= n; i += D)
            S::cvtD2F(src + i, dst + i);
        for (; i < n; ++i)
            dst[i] = static_cast<Value>(src[i]);
    }

    static KernelOps
    ops(Tier t)
    {
        KernelOps o;
        o.tier = t;
        o.spmm_csr_golden = &spmmCsrGolden;
        o.spmm_csr_fast = &spmmCsrFast;
        o.spmm_csr_golden_acc = &spmmCsrGoldenAcc;
        o.spmm_coo_golden = &spmmCooGolden;
        o.spmm_coo_fast = &spmmCooFast;
        o.spmv_csr_fast = &spmvCsrFast;
        o.spmv_coo_golden = &spmvCooGolden;
        o.sddmm_golden = &sddmmGolden;
        o.sddmm_fast = &sddmmFast;
        o.gspmm_ai = &gspmmAi;
        o.cvt_d2f = &cvtD2F;
        return o;
    }
};

} // namespace hottiles::kernels
