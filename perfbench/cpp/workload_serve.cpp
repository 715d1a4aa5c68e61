/**
 * @file
 * serve-mix: the plan-service tenant, driven in process through
 * PlanService.  benchThreads() closed-loop clients (each blocks on its
 * reply, as `hottiles serve` callers do) repeat one fixed cycle against
 * a service of as many workers:
 *
 *   plan         a Plan on the next matrix of a pool larger than the
 *                plan cache, cycled in order, so every plan misses;
 *   run          a stateless Run on a cached Table V matrix;
 *   session-run  (twice per cycle) a Run on the client's own live
 *                session, an RMAT-17 matrix at 16 nnz/row;
 *   delta        one structural delta on that session (inserts ==
 *                deletes, so nnz stays fixed).
 *
 * Every run reply's checksum must match a reference computed at set-up;
 * after the window each session must equal a from-scratch build of the
 * client-side patched matrix, and one Run on it must match
 * referenceExecute.
 */

#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <set>
#include <thread>

#include "arch/arch_config.hpp"
#include "common/random.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "core/preprocess.hpp"
#include "exec/backend.hpp"
#include "partition/heuristics.hpp"
#include "serve/fingerprint.hpp"
#include "serve/service.hpp"
#include "sim/merger.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace hottiles;
using serve::ServeReply;
using serve::ServeRequest;
using serve::ServeStatus;

const std::vector<std::string> kClasses = {"plan", "run", "session-run",
                                           "delta"};
enum Cls { kPlan, kRun, kSessionRun, kDelta };
const char* const kArch = "spade-sextans:4";
const char* const kRunMatrices[] = {"pap", "myc"};
constexpr double kDeadlineMs = 120000;  // far above any class's p90
constexpr size_t kDeltaOps = 2;  // inserts == deletes; dirties ~1% of tiles

/** The client-side model of one session's matrix: the original
 *  structure minus what deltas removed plus what they inserted. */
struct SessionBook
{
    std::set<uint64_t> removed;
    std::map<uint64_t, Value> added;
};

/** Side records of a window, beyond the latency samples. */
struct ServeRecords
{
    std::vector<double> admit_wait_ms;
    std::vector<double> reply_ms[4];  //!< service-side latency, OK replies
    uint64_t run_hits = 0, runs = 0, plan_misses = 0, plans = 0;
    uint64_t retries = 0, replies = 0;

    void
    merge(const ServeRecords& o)
    {
        admit_wait_ms.insert(admit_wait_ms.end(), o.admit_wait_ms.begin(),
                             o.admit_wait_ms.end());
        for (int c = 0; c < 4; ++c)
            reply_ms[c].insert(reply_ms[c].end(), o.reply_ms[c].begin(),
                               o.reply_ms[c].end());
        run_hits += o.run_hits;
        runs += o.runs;
        plan_misses += o.plan_misses;
        plans += o.plans;
        retries += o.retries;
        replies += o.replies;
    }
};

double
frac(uint64_t num, uint64_t den)
{
    return den ? double(num) / double(den) : 0;
}

class ServeMix final : public Workload
{
  public:
    ServeMix(const Options& o, Checks& checks) : o_(o), checks_(checks)
    {
        kernel_.kind = SparseKernel::Spmm;
        kernel_.k = 32;
        clients_ = benchThreads();
    }


    void
    setup() override
    {
        service_.reset();
        pool_.clear();
        run_refs_.clear();
        books_.assign(clients_, SessionBook{});
        rngs_.clear();
        cycles_.assign(clients_, 0);
        arch_ = calibrated(makeSpadeSextans(4));
        th_ = arch_.tile_height;
        tw_ = arch_.tile_width;

        // Plan pool: structurally distinct, larger than the cache.
        const size_t pool_n = o_.tiny ? 6 : 24;
        for (size_t i = 0; i < pool_n; ++i)
            pool_.push_back(std::make_shared<const CooMatrix>(genCommunity(
                o_.tiny ? 512 : 6144, 16.0, 32, 96, 0.8,
                subSeed(o_.seed, 1000 + i))));
        pool_next_.store(0);

        // Run matrices and their per-client reference checksums.
        run_mats_.clear();
        for (size_t r = 0; r < 2; ++r) {
            auto m = std::make_shared<const CooMatrix>(
                o_.tiny ? genCommunity(1024, 24.0, 32, 256, 0.75,
                                       subSeed(o_.seed, 1500 + r))
                        : makeSuiteMatrix(kRunMatrices[r]));
            HotTiles ht(arch_, *m, formatlessOpts());
            std::vector<uint64_t> refs;
            for (unsigned c = 0; c < clients_; ++c) {
                DenseMatrix din(m->cols(), kernel_.k);
                Rng rng(runSeed(c, r));
                din.fillRandom(rng);
                refs.push_back(serve::denseChecksum(exec::referenceExecute(
                    ht.grid(), ht.partition(), kernel_, din)));
            }
            if (o_.bad_checksum && r == 0)
                refs[0] ^= 1;  // a deliberately wrong reference
            run_refs_.push_back(std::move(refs));
            run_mats_.push_back(std::move(m));
        }

        // The session matrix, shared by every client's session: the
        // bench_serving delta shape at half its rows, so nproc live
        // sessions and their concurrent runs stay near 1 GB.  Its
        // structure is fixed, like the Table V proxies; the seed drives
        // the deltas applied to it.
        const Index srows = Index(1) << (o_.tiny ? 12 : 17);
        session_mat_ = std::make_shared<const CooMatrix>(genRmat(
            srows, size_t(16) * srows, 0.57, 0.19, 0.19, 0.05, 55));
        base_keys_.clear();
        base_keys_.reserve(session_mat_->nnz());
        for (size_t i = 0; i < session_mat_->nnz(); ++i)
            base_keys_.push_back(key(session_mat_->rowId(i),
                                     session_mat_->colId(i)));
        std::sort(base_keys_.begin(), base_keys_.end());
        for (unsigned c = 0; c < clients_; ++c)
            rngs_.emplace_back(subSeed(o_.seed, 5000 + c));

        serve::ServiceConfig cfg;
        cfg.workers = clients_;
        cfg.queue_capacity = 4 * size_t(clients_) + 16;
        cfg.cache_capacity = o_.tiny ? 4 : 16;
        cfg.default_deadline_ms = kDeadlineMs;
        service_ = std::make_unique<serve::PlanService>(cfg);

        // Warm-up: create every session and seed its partition sweep
        // cache with one delta (a one-time full-cost charge), and put
        // both run matrices' plans into the cache.
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients_; ++c)
            threads.emplace_back([this, c] {
                ServeRequest req = request(c);
                req.mode = serve::RequestMode::Plan;
                req.session = "s";
                req.matrix_data = session_mat_;
                checks_.expect(service_->call(req).status == ServeStatus::Ok,
                               "session creation failed");
                checks_.expect(sendDelta(c).status == ServeStatus::Ok,
                               "warm-up delta failed");
            });
        for (auto& t : threads)
            t.join();
        for (size_t r = 0; r < run_mats_.size(); ++r)
            checks_.expect(sendRun(0, r).status == ServeStatus::Ok,
                           "run warm-up failed");
    }

    Window
    run(double seconds) override
    {
        Window w = emptyWindow(kClasses);
        records_ = ServeRecords{};
        std::mutex mu;
        const double t0 = monotonicSeconds();
        const double end = t0 + seconds;
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients_; ++c)
            threads.emplace_back([&, c] {
                Window local = emptyWindow(kClasses);
                ServeRecords rec;
                while (monotonicSeconds() < end)
                    cycle(c, t0, end, local, rec);
                std::lock_guard<std::mutex> lock(mu);
                w.merge(local);
                records_.merge(rec);
            });
        for (auto& t : threads)
            t.join();
        w.seconds = monotonicSeconds() - t0;
        return w;
    }

    void
    verify() override
    {
        service_->drain();
        for (unsigned c = 0; c < clients_; ++c) {
            const std::string who = "client" + std::to_string(c);
            std::shared_ptr<const HotTiles> live =
                service_->sessionState(who, "s");
            if (!checks_.expect(live != nullptr, who + ": session is gone"))
                continue;
            const CooMatrix patched = patchedMatrix(books_[c]);
            const HotTiles fresh(arch_, patched, formatlessOpts());
            checks_.expect(sameState(*live, fresh),
                           who + ": live session differs from a "
                                 "from-scratch build of the patched matrix");
            // One Run on the live session against the reference executor.
            ServeRequest req = request(c);
            req.session = "s";
            req.matrix_data = session_mat_;
            req.seed = subSeed(o_.seed, 6000 + c);
            const ServeReply rep = service_->call(req);
            DenseMatrix din(patched.cols(), kernel_.k);
            Rng rng(req.seed);
            din.fillRandom(rng);
            const uint64_t ref = serve::denseChecksum(exec::referenceExecute(
                fresh.grid(), fresh.partition(), kernel_, din));
            checks_.expect(rep.status == ServeStatus::Ok &&
                               rep.checksum == ref,
                           who + ": session Run differs from "
                                 "referenceExecute");
        }
    }

    void
    layerMetrics(double, std::vector<Metric>& out) override
    {
        // The loaded (traced) window's service-side figures.
        const ServeRecords loaded = records_;
        out.push_back({"serve.admit_wait_p50_ms",
                       median(loaded.admit_wait_ms), "ms"});
        out.push_back({"serve.admit_wait_p90_ms",
                       percentile(loaded.admit_wait_ms, 0.9), "ms"});
        out.push_back({"serve.cache_hit_frac.run",
                       frac(loaded.run_hits, loaded.runs), "ratio"});
        out.push_back({"serve.cache_miss_frac.plan",
                       frac(loaded.plan_misses, loaded.plans), "ratio"});
        out.push_back({"serve.retry_frac",
                       frac(loaded.retries, loaded.replies), "ratio"});

        // Uncontended reply latencies: client 0 alone for four cycles.
        Window solo = emptyWindow(kClasses);
        records_ = ServeRecords{};
        for (int i = 0; i < 4; ++i)
            cycle(0, monotonicSeconds(), monotonicSeconds() + 3600, solo,
                  records_);
        const ServeRecords alone = records_;

        probeStages();
        const std::vector<SpanRecord> all = spans();
        const std::vector<double> self = selfSeconds(all);
        auto ms = [&](const char* name, const char* tag) {
            return medianSelfMs(all, self, name, tag);
        };
        const double build = ms("core.build", "plan");
        const double grid_plan = ms("sparse.tile_grid", "plan");
        out.push_back({"serve.fingerprint_ms", ms("serve.fingerprint", "run"),
                       "ms"});
        out.push_back({"sparse.tile_grid_ms", ms("sparse.tile_grid", "run"),
                       "ms"});
        out.push_back({"model.context_ms", ms("model.context", "plan"), "ms"});
        out.push_back({"partition.heuristics_ms",
                       ms("partition.heuristics", "plan"), "ms"});
        out.push_back({"core.build_ms", build, "ms"});
        out.push_back({"core.build_residual_ms",
                       build - grid_plan - ms("model.context", "plan") -
                           ms("partition.heuristics", "plan"),
                       "ms"});
        out.push_back({"core.apply_delta_ms", ms("core.apply_delta", "delta"),
                       "ms"});
        out.push_back({"core.delta_dirty_tile_frac", median(dirty_frac_),
                       "ratio"});
        out.push_back({"sparse.din_fill_ms", ms("sparse.din_fill", "run"),
                       "ms"});
        out.push_back({"serve.checksum_ms", ms("serve.checksum", "run"),
                       "ms"});
        out.push_back({"exec.session_run_ms",
                       ms("exec.session_run", "session-run"), "ms"});

        const double stages[4] = {
            ms("serve.fingerprint", "plan") + build,
            ms("serve.fingerprint", "run") + ms("sparse.tile_grid", "run") +
                ms("sparse.din_fill", "run") + ms("exec.run", "run") +
                ms("serve.checksum", "run"),
            ms("sparse.din_fill", "session-run") +
                ms("exec.session_run", "session-run") +
                ms("serve.checksum", "session-run"),
            ms("core.apply_delta", "delta"),
        };
        for (int c = 0; c < 4; ++c)
            out.push_back({"serve.residual_ms." + kClasses[c],
                           median(alone.reply_ms[c]) - stages[c], "ms"});
    }

    void
    describe(const Window& w, std::ostream& out) const override
    {
        out << "serve_rps = " << (w.seconds > 0 ? double(w.ok()) / w.seconds
                                                : 0)
            << " 1/s (" << clients_ << " closed-loop clients, " << clients_
            << " workers)\n";
        const char* names[4] = {"plan", "run", "session_run", "delta"};
        for (int c = 0; c < 4; ++c) {
            const OpClass& cls = w.classes[c];
            out << names[c] << "_p50_ms = " << median(cls.ms) << " ms, "
                << names[c] << "_p90_ms = ";
            if (tailReportable(cls.ms.size(), 0.9))
                out << percentile(cls.ms, 0.9) << " ms";
            else
                out << "n/a";
            out << " (n=" << cls.ms.size() << ", "
                << samplesBeyond(cls.ms.size(), 0.9) << " beyond p90)\n";
        }
        out << "serve.cache_hit_frac.run = "
            << frac(records_.run_hits, records_.runs)
            << ", serve.cache_miss_frac.plan = "
            << frac(records_.plan_misses, records_.plans)
            << ", serve.retry_frac = "
            << frac(records_.retries, records_.replies) << "\n";
    }

  private:
    static HotTilesOptions
    formatlessOpts()
    {
        HotTilesOptions o;
        o.kernel.kind = SparseKernel::Spmm;
        o.kernel.k = 32;
        o.build_formats = false;  // as the service builds
        return o;
    }

    uint64_t
    key(Index r, Index c) const
    {
        return uint64_t(r) * uint64_t(session_mat_->cols()) + c;
    }

    uint64_t
    runSeed(unsigned c, size_t r) const
    {
        return subSeed(o_.seed, 2000 + 8 * c + r);
    }

    ServeRequest
    request(unsigned c, uint64_t id = 0)
    {
        ServeRequest req;
        req.id = id ? id : next_id_.fetch_add(1);
        req.tenant = "client" + std::to_string(c);
        req.arch = kArch;
        req.kernel = kernel_;
        req.deadline_ms = kDeadlineMs;
        req.matrix = "#perfbench";
        return req;
    }

    ServeReply
    sendRun(unsigned c, size_t r, uint64_t id = 0)
    {
        ServeRequest req = request(c, id);
        req.mode = serve::RequestMode::Run;
        req.matrix_data = run_mats_[r];
        req.seed = runSeed(c, r);
        return service_->call(req);
    }

    /** A delta of kDeltaOps inserts and deletes drawn from client @p c's
     *  book: deletes of original nonzeros still present, inserts at
     *  coordinates that never held one. */
    DeltaBatch
    makeDelta(unsigned c)
    {
        const SessionBook& b = books_[c];
        Rng& rng = rngs_[c];
        const size_t ops = kDeltaOps;
        DeltaBatch d;
        std::set<uint64_t> touched;
        while (d.deletes() < ops) {
            const uint64_t k = base_keys_[rng.nextBounded(base_keys_.size())];
            if (!b.removed.count(k) && touched.insert(k).second)
                d.pushDelete(Index(k / session_mat_->cols()),
                             Index(k % session_mat_->cols()));
        }
        while (d.inserts() < ops) {
            const Index r = Index(rng.nextBounded(session_mat_->rows()));
            const Index col = Index(rng.nextBounded(session_mat_->cols()));
            const uint64_t k = key(r, col);
            if (!std::binary_search(base_keys_.begin(), base_keys_.end(), k) &&
                !b.added.count(k) && touched.insert(k).second)
                d.pushInsert(r, col, Value(rng.nextDouble(-1.0, 1.0)));
        }
        return d;
    }

    void
    applyToBook(unsigned c, const DeltaBatch& d)
    {
        SessionBook& b = books_[c];
        for (size_t i = 0; i < d.deletes(); ++i)
            b.removed.insert(key(d.del_rows[i], d.del_cols[i]));
        for (size_t i = 0; i < d.inserts(); ++i)
            b.added[key(d.ins_rows[i], d.ins_cols[i])] = d.ins_vals[i];
    }

    ServeReply
    sendDelta(unsigned c, uint64_t id = 0)
    {
        const DeltaBatch batch = makeDelta(c);
        auto frame = std::make_shared<serve::DeltaFrame>();
        frame->batch = batch;
        ServeRequest req = request(c, id);
        req.mode = serve::RequestMode::Delta;
        req.session = "s";
        req.delta = frame;
        const ServeReply rep = service_->call(req);
        if (rep.status == ServeStatus::Ok)
            applyToBook(c, batch);  // a failed delta leaves the session as is
        return rep;
    }

    /** One client cycle: plan, run, session-run, delta, session-run, in
     *  a window that started at @p t0, entered at step c so the clients
     *  start out of phase.  Stops early once @p end has passed. */
    void
    cycle(unsigned c, double t0, double end, Window& w, ServeRecords& rec)
    {
        const uint64_t n = cycles_[c]++;
        const Cls order[] = {kPlan, kRun, kSessionRun, kDelta, kSessionRun};
        for (size_t step = 0; step < std::size(order); ++step) {
            const Cls cls = order[(step + c) % std::size(order)];
            if (monotonicSeconds() >= end)
                return;
            OpClass& oc = w.classes[cls];
            ++oc.attempted;
            ServeReply rep;
            const size_t r = (n + c) % run_mats_.size();
            const uint64_t id = next_id_.fetch_add(1);
            const double s0 = monotonicSeconds();
            {
                Span span("serve.request", kClasses[cls], id);
                switch (cls) {
                case kPlan: {
                    ServeRequest req = request(c, id);
                    req.mode = serve::RequestMode::Plan;
                    req.matrix_data =
                        pool_[pool_next_.fetch_add(1) % pool_.size()];
                    rep = service_->call(req);
                    break;
                }
                case kRun:
                    rep = sendRun(c, r, id);
                    break;
                case kSessionRun: {
                    ServeRequest req = request(c, id);
                    req.session = "s";
                    req.matrix_data = session_mat_;
                    req.seed = subSeed(o_.seed, 4000 + c);
                    rep = service_->call(req);
                    break;
                }
                case kDelta:
                    rep = sendDelta(c, id);
                    break;
                }
            }
            const double ms = (monotonicSeconds() - s0) * 1e3;
            ++rec.replies;
            rec.retries += rep.retries;
            if (cls == kPlan) {
                ++rec.plans;
                rec.plan_misses += rep.plan_source == "miss";
            } else if (cls == kRun) {
                ++rec.runs;
                rec.run_hits += rep.plan_source == "hit";
            }
            bool ok = rep.status == ServeStatus::Ok;
            if (ok && cls == kRun)
                ok = checks_.expect(rep.checksum == run_refs_[r][c],
                                    "run reply checksum differs from the "
                                    "set-up reference (client " +
                                        std::to_string(c) + ", " +
                                        kRunMatrices[r] + ")");
            if (!ok) {
                ++oc.failed;
                continue;
            }
            oc.ok(ms, monotonicSeconds() - t0);
            rec.reply_ms[cls].push_back(rep.latency_ms);
            rec.admit_wait_ms.push_back(ms - rep.latency_ms);
        }
    }

    CooMatrix
    patchedMatrix(const SessionBook& b) const
    {
        const CooMatrix& m = *session_mat_;
        std::vector<Index> rows, cols;
        std::vector<Value> vals;
        for (size_t i = 0; i < m.nnz(); ++i) {
            if (b.removed.count(key(m.rowId(i), m.colId(i))))
                continue;
            rows.push_back(m.rowId(i));
            cols.push_back(m.colId(i));
            vals.push_back(m.value(i));
        }
        for (const auto& [k, v] : b.added) {
            rows.push_back(Index(k / m.cols()));
            cols.push_back(Index(k % m.cols()));
            vals.push_back(v);
        }
        return CooMatrix(m.rows(), m.cols(), std::move(rows), std::move(cols),
                         std::move(vals));
    }

    /** Grid (tiles and tiled arrays) and partition are bit-identical. */
    static bool
    sameState(const HotTiles& a, const HotTiles& b)
    {
        const TileGrid& ga = a.grid();
        const TileGrid& gb = b.grid();
        if (ga.numTiles() != gb.numTiles() ||
            a.partition().is_hot != b.partition().is_hot ||
            a.partition().heuristic != b.partition().heuristic ||
            a.partition().predicted_cycles != b.partition().predicted_cycles)
            return false;
        for (size_t t = 0; t < ga.numTiles(); ++t) {
            auto eq = [](auto x, auto y) {
                return std::equal(x.begin(), x.end(), y.begin(), y.end());
            };
            if (!eq(ga.tileRows(t), gb.tileRows(t)) ||
                !eq(ga.tileCols(t), gb.tileCols(t)) ||
                !eq(ga.tileVals(t), gb.tileVals(t)))
                return false;
        }
        return true;
    }

    /** Call each stage's public function under spans, on the same kind
     *  of input each request class hands the service. */
    void
    probeStages()
    {
        const int reps = 2;
        // The arguments HotTiles passes its model stage (SpMM kernel).
        const bool no_merge = arch_.atomic_rmw;
        const double hot_bw = arch_.pcie_gbps > 0
                                  ? arch_.pcie_gbps / arch_.freq_ghz
                                  : arch_.bwBytesPerCycle();
        // plan: fingerprint + the whole build, and the build's stages.
        for (int i = 0; i < reps; ++i) {
            const CooMatrix& m = *pool_[i];
            {
                Span s("serve.fingerprint", "plan");
                serve::fingerprintStructure(m, th_, tw_);
            }
            {
                Span s("core.build", "plan");
                HotTiles ht(arch_, m, formatlessOpts());
            }
            std::unique_ptr<TileGrid> grid;
            {
                Span s("sparse.tile_grid", "plan");
                grid = std::make_unique<TileGrid>(m, th_, tw_);
            }
            const double merge =
                no_merge ? 0.0
                         : mergeCycles(grid->matrixRows(), kernel_.k,
                                       arch_.cold.value_bytes,
                                       arch_.bwBytesPerCycle(),
                                       arch_.line_bytes);
            PartitionContext ctx;
            {
                Span s("model.context", "plan");
                ctx = makePartitionContext(*grid, arch_.hot, arch_.cold,
                                           kernel_, arch_.bwBytesPerCycle(),
                                           merge, no_merge, hot_bw);
            }
            Span s("partition.heuristics", "plan");
            hotTilesPartition(ctx);
        }
        // run: fingerprint, rescan, Din fill, execution, checksum.
        for (size_t r = 0; r < run_mats_.size(); ++r) {
            const CooMatrix& m = *run_mats_[r];
            const HotTiles ht(arch_, m, formatlessOpts());
            for (int i = 0; i < reps; ++i)
                execStages(m, ht.partition(), "run", "exec.run", true);
        }
        // session-run and delta, on a private copy of the session state.
        HotTiles ht(arch_, *session_mat_, formatlessOpts());
        SessionBook saved = books_[0];
        books_[0] = SessionBook{};
        dirty_frac_.clear();
        for (int i = 0; i < reps + 1; ++i) {
            const DeltaBatch d = makeDelta(0);
            applyToBook(0, d);
            DeltaUpdateStats st;
            if (i == 0) {  // the first delta seeds the sweep cache
                st = ht.applyDelta(d);
                continue;
            }
            {
                Span s("core.apply_delta", "delta");
                st = ht.applyDelta(d);
            }
            dirty_frac_.push_back(
                frac(st.dirty_tiles, ht.grid().numTiles()));
        }
        books_[0] = std::move(saved);
        for (int i = 0; i < reps; ++i)
            execStages(*session_mat_, ht.partition(), "session-run",
                       "exec.session_run", false, &ht.grid());
    }

    /** Din fill, native run and checksum (plus fingerprint and rescan
     *  when @p stateless), each under its own span. */
    void
    execStages(const CooMatrix& m, const Partition& p, const char* tag,
               const char* exec_span, bool stateless,
               const TileGrid* grid = nullptr)
    {
        std::unique_ptr<TileGrid> own;
        if (stateless) {
            {
                Span s("serve.fingerprint", tag);
                serve::fingerprintStructure(m, th_, tw_);
            }
            Span s("sparse.tile_grid", tag);
            own = std::make_unique<TileGrid>(m, th_, tw_);
            grid = own.get();
        }
        DenseMatrix din;
        {
            Span s("sparse.din_fill", tag);
            din = DenseMatrix(grid->matrixCols(), kernel_.k);
            Rng rng(subSeed(o_.seed, 7000));
            din.fillRandom(rng);
        }
        exec::NativeExecOptions eo;
        eo.collect_unit_times = false;  // as the service runs
        DenseMatrix out;
        {
            Span s(exec_span, tag);
            out = exec::makeNativeCpuBackend(eo)->run(*grid, p, kernel_, din);
        }
        Span s("serve.checksum", tag);
        serve::denseChecksum(out);
    }

    Options o_;
    Checks& checks_;
    KernelConfig kernel_;
    unsigned clients_ = 1;
    Architecture arch_;
    Index th_ = 0, tw_ = 0;
    std::unique_ptr<serve::PlanService> service_;
    std::atomic<uint64_t> next_id_{1};
    std::vector<std::shared_ptr<const CooMatrix>> pool_;
    std::atomic<uint64_t> pool_next_{0};
    std::vector<std::shared_ptr<const CooMatrix>> run_mats_;
    std::vector<std::vector<uint64_t>> run_refs_;  //!< [matrix][client]
    std::shared_ptr<const CooMatrix> session_mat_;
    std::vector<uint64_t> base_keys_;  //!< sorted keys of session_mat_
    std::vector<SessionBook> books_;
    std::vector<Rng> rngs_;
    std::vector<uint64_t> cycles_;
    ServeRecords records_;
    std::vector<double> dirty_frac_;
};

} // namespace

std::unique_ptr<Workload>
makeServeMix(const Options& o, Checks& checks)
{
    return std::make_unique<ServeMix>(o, checks);
}

} // namespace perfbench
