/**
 * @file
 * spmm-repeat: the library user, e.g. a GNN layer over a fixed graph.
 * The HotTiles plan of del, pap, myc and ser is built once in set-up;
 * the timed window calls makeNativeCpuBackend()->run() under the Golden
 * policy round-robin over the four matrices on the global pool, and
 * every output must be bit-identical to referenceExecute.
 */

#include <malloc.h>

#include <cstring>
#include <iostream>

#include "arch/arch_config.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "core/preprocess.hpp"
#include "exec/backend.hpp"
#include "kernels/dispatch.hpp"
#include "serve/service.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace hottiles;

const std::vector<std::string> kMatrices = {"del", "pap", "myc", "ser"};
constexpr Index kK = 32;

/** Small stand-ins of the four shapes for the benchmark's own tests. */
CooMatrix
tinyMatrix(const std::string& name, uint64_t seed)
{
    if (name == "del")
        return genMesh(4096, 6.0, 64.0, seed);
    if (name == "pap")
        return genCommunity(2048, 24.0, 32, 256, 0.75, seed);
    if (name == "myc")
        return genUniform(256, 256, 12000, seed);
    return genFemBlocks(2048, 6, 10, 400, seed);
}

struct Case
{
    std::string name;
    CooMatrix coo;
    std::unique_ptr<HotTiles> ht;
    DenseMatrix din;
    DenseMatrix ref;  //!< referenceExecute output
    uint64_t ref_checksum = 0;
    double flops = 0;  //!< 2 * nnz * K per run
};

bool
sameBits(const DenseMatrix& a, const DenseMatrix& b)
{
    return a.data().size() == b.data().size() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(Value)) == 0;
}

class SpmmRepeat final : public Workload
{
  public:
    SpmmRepeat(const Options& o, Checks& checks) : o_(o), checks_(checks)
    {
        kernel_.kind = SparseKernel::Spmm;
        kernel_.k = kK;
    }


    void
    setup() override
    {
        cases_.clear();
        const Architecture arch = calibrated(makeSpadeSextans(4));
        backend_ = exec::makeNativeCpuBackend();
        for (size_t i = 0; i < kMatrices.size(); ++i) {
            Case c;
            c.name = kMatrices[i];
            c.coo = o_.tiny ? tinyMatrix(c.name, subSeed(o_.seed, 100 + i))
                            : makeSuiteMatrix(c.name);
            HotTilesOptions opts;
            opts.kernel = kernel_;
            opts.build_formats = false;
            c.ht = std::make_unique<HotTiles>(arch, c.coo, opts);
            c.din = DenseMatrix(c.ht->grid().matrixCols(), kK);
            Rng rng(subSeed(o_.seed, i));
            c.din.fillRandom(rng);
            c.ref = exec::referenceExecute(c.ht->grid(), c.ht->partition(),
                                           kernel_, c.din);
            if (o_.bad_checksum && i == 0)
                c.ref.row(0)[0] += 1;  // a deliberately wrong reference
            c.ref_checksum = serve::denseChecksum(c.ref);
            c.flops = kernel_.flopsPerNnz() * double(c.coo.nnz());
            // Warm-up: first touch of the run's buffers and the pool.
            backend_->run(c.ht->grid(), c.ht->partition(), kernel_, c.din);
            cases_.push_back(std::move(c));
        }
    }

    Window
    run(double seconds) override
    {
        Window w = emptyWindow(kMatrices);
        const double t0 = monotonicSeconds();
        const double end = t0 + seconds;
        for (size_t i = 0; monotonicSeconds() < end; i = (i + 1) % 4) {
            Case& c = cases_[i];
            OpClass& cls = w.classes[i];
            ++cls.attempted;
            const double s0 = monotonicSeconds();
            DenseMatrix out;
            {
                Span span("exec.run", c.name);
                out = backend_->run(c.ht->grid(), c.ht->partition(), kernel_,
                                    c.din);
            }
            const double ms = (monotonicSeconds() - s0) * 1e3;
            if (checks_.expect(sameBits(out, c.ref),
                               c.name + ": run() output differs from "
                                        "referenceExecute"))
                cls.ok(ms, monotonicSeconds() - t0);
            else
                ++cls.failed;
        }
        w.seconds = monotonicSeconds() - t0;
        return w;
    }

    void
    verify() override
    {
        for (Case& c : cases_) {
            const DenseMatrix out = backend_->run(
                c.ht->grid(), c.ht->partition(), kernel_, c.din);
            checks_.expect(serve::denseChecksum(out) == c.ref_checksum,
                           c.name + ": run() checksum differs from the "
                                    "referenceExecute checksum");
        }
    }

    void
    layerMetrics(double stream_gbs, std::vector<Metric>& out) override
    {
        const int reps = 3;
        const kernels::KernelOps& ops = kernels::activeOps();
        for (Case& c : cases_) {
            const TileGrid& grid = c.ht->grid();
            const Partition& p = c.ht->partition();
            ThreadPool::setGlobalThreads(1);
            Partition all_cold;
            all_cold.is_hot.assign(grid.numTiles(), 0);
            all_cold.heuristic = "AllCold";
            exec::NativeExecOptions fast_opts;
            fast_opts.policy = kernels::Policy::Fast;
            auto fast = exec::makeNativeCpuBackend(fast_opts);
            for (int r = 0; r < reps; ++r) {
                {
                    Span s("exec.run_1t", c.name);
                    backend_->run(grid, p, kernel_, c.din);
                }
                Span s("exec.run_allcold_fast_1t", c.name);
                fast->run(grid, all_cold, kernel_, c.din);
            }
            ThreadPool::setGlobalThreads(benchThreads());

            // What a call costs when its large buffers are fresh mappings
            // every time (glibc's default threshold); the benchmark keeps
            // them in the heap everywhere else (see main.cpp).
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
            for (int r = 0; r < reps; ++r) {
                Span s("exec.run_fresh_pages", c.name);
                backend_->run(grid, p, kernel_, c.din);
            }
            mallopt(M_MMAP_THRESHOLD, 1 << 30);

            const CsrMatrix csr = CsrMatrix::fromCoo(c.coo);
            const kernels::CsrView view{csr.rowPtr().data(),
                                        csr.colIds().data(),
                                        csr.values().data(), csr.rows()};
            DenseMatrix dout(csr.rows(), kK);
            for (int r = 0; r < reps; ++r) {
                {
                    Span s("kernels.csr_golden_1t", c.name);
                    ops.spmm_csr_golden(view, kK, c.din.row(0), dout.row(0),
                                        0, csr.rows());
                }
                {
                    Span s("kernels.csr_fast_1t", c.name);
                    ops.spmm_csr_fast(view, kK, c.din.row(0), dout.row(0), 0,
                                      csr.rows());
                }
                Span s("sim.worklist", c.name);
                const UntiledWork cold = buildUntiledWork(grid, p.coldTiles());
                const TiledWork hot = buildTiledWork(grid, p.hotTiles());
            }

            const std::vector<SpanRecord> all = spans();
            const std::vector<double> self = selfSeconds(all);
            auto ms = [&](const char* name) {
                return medianSelfMs(all, self, name, c.name);
            };
            auto gflops = [&](double t_ms) {
                return t_ms > 0 ? c.flops / (t_ms / 1e3) / 1e9 : 0;
            };
            const double fast_ms = ms("kernels.csr_fast_1t");
            // Compulsory bytes from array sizes: CSR arrays, Din and Dout
            // once each (computed, not measured).
            const double bytes =
                double(csr.rows() + 1) * sizeof(size_t) +
                double(csr.nnz()) * (sizeof(Index) + sizeof(Value)) +
                double(csr.cols() + csr.rows()) * kK * sizeof(Value);
            const std::string m = "." + c.name;
            out.push_back({"exec.run_ms" + m, ms("exec.run"), "ms"});
            out.push_back({"exec.run_1t_ms" + m, ms("exec.run_1t"), "ms"});
            out.push_back({"exec.run_fresh_pages_ms" + m,
                           ms("exec.run_fresh_pages"), "ms"});
            out.push_back({"exec.over_kernel_1t" + m,
                           fast_ms > 0 ? ms("exec.run_allcold_fast_1t") /
                                             fast_ms
                                       : 0,
                           "ratio"});
            out.push_back({"kernels.csr_golden_1t_gflops" + m,
                           gflops(ms("kernels.csr_golden_1t")), "GFLOP/s"});
            out.push_back({"kernels.csr_fast_1t_gflops" + m, gflops(fast_ms),
                           "GFLOP/s"});
            out.push_back({"kernels.bw_frac" + m,
                           fast_ms > 0 && stream_gbs > 0
                               ? bytes / (fast_ms / 1e3) / 1e9 / stream_gbs
                               : 0,
                           "ratio"});
            out.push_back({"sim.worklist_ms" + m, ms("sim.worklist"), "ms"});
            out.push_back({"partition.hot_nnz_frac" + m,
                           p.hotNnzFraction(grid), "ratio"});
        }
    }

    void
    describe(const Window& w, std::ostream& out) const override
    {
        for (size_t i = 0; i < w.classes.size(); ++i) {
            const OpClass& c = w.classes[i];
            const double ms = median(c.ms);
            out << "spmm_gflops." << c.name << " = "
                << (ms > 0 ? cases_[i].flops / (ms / 1e3) / 1e9 : 0)
                << " GFLOP/s (median of " << c.ms.size() << " runs)\n";
        }
    }

  private:
    Options o_;
    Checks& checks_;
    KernelConfig kernel_;
    std::unique_ptr<exec::ExecutionBackend> backend_;
    std::vector<Case> cases_;
};

} // namespace

std::unique_ptr<Workload>
makeSpmmRepeat(const Options& o, Checks& checks)
{
    return std::make_unique<SpmmRepeat>(o, checks);
}

} // namespace perfbench
