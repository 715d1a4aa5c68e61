/**
 * @file
 * Out-of-core preprocessing harness (docs/OUTOFCORE.md): measures the
 * panel-streamed planner (streamedPlan over a memory-mapped `.htb`)
 * against the in-memory pipeline on an RMAT matrix, emitting
 * BENCH_outofcore.json.
 *
 * `ru_maxrss` is a process-lifetime high-water mark, so each measured
 * phase (generate / in-memory plan / streamed plan) runs in its own
 * child process (fork + execv of /proc/self/exe with a hidden --phase
 * flag); the parent collects the child's peak RSS from wait4.  Every
 * phase writes a plan fingerprint (FNV-1a over the tile directory, the
 * model estimates and the partition) so bit-identity is enforced
 * across the in-memory path and streamed runs at 1, 2 and 7 threads.
 * The parent additionally cross-checks the full-build mmap path
 * in-process at a small scale: HotTiles from a MappedMatrix must be
 * samePreprocessedState-identical to the in-memory constructor and
 * produce byte-identical reference SpMM output.
 *
 * The bench runner interleaves the in-memory phase with the streamed
 * runs; the RSS and throughput ratios are medians of per-round ratios.
 *
 * Flags (besides the shared --smoke / --threads):
 *   --out FILE   JSON output path (default BENCH_outofcore.json, or
 *                BENCH_outofcore.smoke.json under --smoke)
 *   --check      self-check gates, exit 1 on violation: all plan
 *                fingerprints identical and the in-process mmap build
 *                bit-identical; additionally, unless --smoke (ASan
 *                inflates RSS), the streamed planner's peak RSS must be
 *                >= 4x below the in-memory phase and its preprocessing
 *                throughput >= 0.8x of it.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/rss.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/calibrate.hpp"
#include "core/hottiles.hpp"
#include "core/outofcore.hpp"
#include "core/preprocess.hpp"
#include "exec/backend.hpp"
#include "sparse/generators.hpp"
#include "sparse/htb.hpp"
#include "sparse/panel_stream.hpp"

using namespace hottiles;
using namespace hottiles::bench;

namespace {

struct Config
{
    Index rows = 0;
    size_t nnz = 0;     // requested (pre-dedup) nonzeros
    Index tile = 0;     // tile height == width == .htb panel_rows
    uint64_t seed = 7;
};

/** FNV-1a over the plan bits: directory, estimates, partition. */
struct Fingerprint
{
    uint64_t h = 1469598103934665603ull;

    void bytes(const void* p, size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
    template <typename T> void pod(const T& v) { bytes(&v, sizeof v); }

    void tile(const Tile& t)
    {
        pod(t.panel);
        pod(t.tcol);
        pod(t.row0);
        pod(t.col0);
        pod(t.height);
        pod(t.width);
        pod(t.offset);
        pod(t.nnz);
        pod(t.uniq_rids);
        pod(t.uniq_cids);
    }
    void estimate(const TileEstimate& e)
    {
        pod(e.th);
        pod(e.tc);
        pod(e.bh);
        pod(e.bc);
    }
    void partition(const Partition& p)
    {
        bytes(p.is_hot.data(), p.is_hot.size());
        pod(p.serial);
        pod(p.predicted_cycles);
        bytes(p.heuristic.data(), p.heuristic.size());
    }
};

/** The plan fingerprint in hex. */
std::string
planFingerprint(size_t num_tiles, const std::function<const Tile&(size_t)>& at,
                const std::vector<TileEstimate>& est, const Partition& p)
{
    Fingerprint f;
    f.pod(num_tiles);
    for (size_t i = 0; i < num_tiles; ++i)
        f.tile(at(i));
    for (const TileEstimate& e : est)
        f.estimate(e);
    f.partition(p);
    std::ostringstream hex;
    hex << std::hex << f.h;
    return hex.str();
}

Architecture
benchArch(Index tile)
{
    Architecture arch = calibrated(makeSpadeSextans(4));
    arch.tile_height = tile;
    arch.tile_width = tile;
    return arch;
}

/* ---------------------------------------------------------------- *
 * Child phases.  Each writes its result to --result as the one row of
 * a results file and exits 0; the parent reads the file with the
 * bench reader, and the wait4 rusage.
 * ---------------------------------------------------------------- */

void
writeResult(const std::string& path, const Row& row)
{
    std::ofstream out(path);
    HT_FATAL_IF(!out, "cannot open result file '", path, "'");
    out << "{\"results\": [{" << row.json() << "}]}\n";
}

int
phaseGen(const Config& c, const std::string& htb, const std::string& result)
{
    uint64_t nnz = genRmatHtb(htb, c.rows, c.nnz, 0.57, 0.19, 0.19, 0.05,
                              c.seed, c.tile);
    writeResult(result, Row().put("nnz", nnz));
    return 0;
}

int
phaseInmem(const Config& c, const std::string& htb, const std::string& result)
{
    Architecture arch = benchArch(c.tile);
    HotTilesOptions opts;
    opts.build_formats = false;  // plan-for-plan comparison vs streamedPlan
    double t0 = monotonicSeconds();
    CooMatrix m = loadHtbToCoo(htb);
    HotTiles ht(arch, m, opts);
    double secs = monotonicSeconds() - t0;

    const TileGrid& g = ht.grid();
    const std::string fp = planFingerprint(
        g.numTiles(), [&](size_t i) -> const Tile& { return g.tile(i); },
        ht.context().estimates, ht.partition());
    writeResult(result, Row().put("fingerprint", fp).put("seconds", secs)
                            .put("nnz", m.nnz()).put("tiles", g.numTiles()));
    return 0;
}

int
phaseStream(const Config& c, const std::string& htb, const std::string& result)
{
    Architecture arch = benchArch(c.tile);
    double t0 = monotonicSeconds();
    MappedMatrix mapped(htb);
    MappedPanelSource src(mapped);
    StreamedPlan plan = streamedPlan(arch, src, {});
    double secs = monotonicSeconds() - t0;

    const std::string fp = planFingerprint(
        plan.tiles.size(),
        [&](size_t i) -> const Tile& { return plan.tiles[i]; },
        plan.estimates, plan.partition);
    writeResult(result, Row().put("fingerprint", fp).put("seconds", secs)
                            .put("nnz", plan.nnz)
                            .put("tiles", plan.tiles.size()));
    return 0;
}

/* ---------------------------------------------------------------- *
 * Parent: spawn phases, collect rusage, gate and report.
 * ---------------------------------------------------------------- */

struct PhaseRun
{
    double seconds = 0;
    uint64_t peak_rss = 0;  // bytes
    std::string fingerprint;  //!< empty for the gen phase
    size_t nnz = 0;
    size_t tiles = 0;
};

/** Run one phase in a child process; returns its result + ru_maxrss. */
PhaseRun
runPhase(const std::string& phase, unsigned threads, const Config& c,
         const std::string& htb, const std::string& result_path)
{
    std::remove(result_path.c_str());
    std::vector<std::string> args = {
        "/proc/self/exe",
        "--phase", phase,
        "--threads", std::to_string(threads),
        "--htb", htb,
        "--result", result_path,
        "--rows", std::to_string(c.rows),
        "--nnz", std::to_string(c.nnz),
        "--tile", std::to_string(c.tile),
        "--seed", std::to_string(c.seed),
    };
    std::vector<char*> argv;
    for (auto& a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = fork();
    HT_FATAL_IF(pid < 0, "fork failed: ", std::strerror(errno));
    if (pid == 0) {
        execv("/proc/self/exe", argv.data());
        // Only reached when execv itself fails.
        std::perror("execv");
        _exit(127);
    }
    int status = 0;
    struct rusage ru {};
    pid_t got;
    do {
        got = wait4(pid, &status, 0, &ru);
    } while (got < 0 && errno == EINTR);
    HT_FATAL_IF(got != pid, "wait4 failed: ", std::strerror(errno));
    HT_FATAL_IF(!WIFEXITED(status) || WEXITSTATUS(status) != 0, "phase '",
                phase, "' child failed (status ", status, ")");

    const Object kv = readResults(result_path).at(0);
    auto number = [&](const char* key) {
        return kv.count(key) ? field<double>(kv, key) : 0.0;
    };
    PhaseRun r;
    r.peak_rss = uint64_t(ru.ru_maxrss) * 1024;  // Linux reports KiB
    r.seconds = number("seconds");
    r.nnz = size_t(number("nnz"));
    r.tiles = size_t(number("tiles"));
    if (kv.count("fingerprint"))
        r.fingerprint = field<std::string>(kv, "fingerprint");
    return r;
}

/**
 * In-process cross-check at small scale: the full-build mmap path
 * (HotTiles from MappedMatrix) against the in-memory constructor, plus
 * the plan-only streamed path from both panel-source flavours.
 */
bool
inProcessIdentity(std::string& why, const std::string& tmp_htb)
{
    const Index tile = 128;
    Architecture arch = benchArch(tile);
    CooMatrix m = genRmat(Index(1) << 12, size_t(8) << 12, 0.57, 0.19, 0.19,
                          0.05, /*seed=*/21);
    m.sortRowMajor();
    m.dedupSum();
    writeHtbFromCoo(tmp_htb, m, tile);

    HotTilesOptions opts;
    HotTiles inmem(arch, m, opts);
    MappedMatrix mapped(tmp_htb);
    HotTiles viamap(arch, mapped, opts);
    if (!samePreprocessedState(inmem, viamap)) {
        why = "HotTiles(MappedMatrix) state differs from in-memory build";
        return false;
    }

    DenseMatrix din(m.cols(), opts.kernel.k);
    Rng rng(99);
    din.fillRandom(rng);
    DenseMatrix a = exec::referenceExecute(inmem.grid(), inmem.partition(),
                                           opts.kernel, din);
    DenseMatrix b = exec::referenceExecute(viamap.grid(), viamap.partition(),
                                           opts.kernel, din);
    if (a.data().size() != b.data().size() ||
        std::memcmp(a.data().data(), b.data().data(),
                    a.data().size() * sizeof(Value)) != 0) {
        why = "mmap-built reference SpMM output differs";
        return false;
    }

    CooPanelSource coo_src(m);
    MappedPanelSource map_src(mapped);
    StreamedPlan pa = streamedPlan(arch, coo_src, {});
    StreamedPlan pb = streamedPlan(arch, map_src, {});
    auto fp = [](const StreamedPlan& p) {
        return planFingerprint(
            p.tiles.size(),
            [&](size_t i) -> const Tile& { return p.tiles[i]; }, p.estimates,
            p.partition);
    };
    const std::string fa = fp(pa), fb = fp(pb);
    const std::string fg = planFingerprint(
        inmem.grid().numTiles(),
        [&](size_t i) -> const Tile& { return inmem.grid().tile(i); },
        inmem.context().estimates, inmem.partition());
    if (fa != fb || fa != fg) {
        why = "streamed plan fingerprints diverge (coo/mmap/in-memory)";
        return false;
    }
    return true;
}

std::string
mib(uint64_t bytes)
{
    return Table::num(double(bytes) / (1024.0 * 1024.0), 1);
}

} // namespace

int
main(int argc, char** argv)
{
    init(&argc, argv);
    const char* usage =
        "usage: bench_outofcore [--smoke] [--threads N] [--out FILE] "
        "[--check]\n"
        "  --out FILE    JSON output path (default BENCH_outofcore.json, "
        "BENCH_outofcore.smoke.json under --smoke)\n"
        "  --check       exit 1 when a plan fingerprint or RSS gate "
        "fails\n"
        "(--phase, --htb, --result, --rows, --nnz, --tile and --seed "
        "drive the per-phase child processes)\n";
    std::string out_path = defaultOut("outofcore");
    std::string phase, htb_path, result_path;
    Config c;
    bool check = false;
    constexpr uint64_t kIndexMax = std::numeric_limits<Index>::max();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&] { return flagValue(argc, argv, i, usage); };
        if (a == "--out")
            out_path = val();
        else if (a == "--check")
            check = true;
        else if (a == "--phase")
            phase = val();
        else if (a == "--htb")
            htb_path = val();
        else if (a == "--result")
            result_path = val();
        else if (a == "--rows")
            c.rows = Index(parseCount(a, val(), usage, kIndexMax));
        else if (a == "--nnz")
            c.nnz = parseCount(a, val(), usage);
        else if (a == "--tile")
            c.tile = Index(parseCount(a, val(), usage, kIndexMax));
        else if (a == "--seed")
            c.seed = parseCount(a, val(), usage);
        else if (a == "--help" || a == "-h")
            exitUsage(usage);
        else
            exitUsage(usage, "unknown option '" + a + "'");
    }

    // Hidden child mode: run one phase, report, exit.
    if (!phase.empty()) {
        try {
            if (phase == "gen")
                return phaseGen(c, htb_path, result_path);
            if (phase == "inmem")
                return phaseInmem(c, htb_path, result_path);
            if (phase == "stream")
                return phaseStream(c, htb_path, result_path);
            HT_FATAL("unknown phase '", phase, "'");
        } catch (const FatalError& e) {
            std::cerr << "phase " << phase << ": " << e.what() << "\n";
            return 1;
        }
    }

    const bool smoke = smokeMode();
    banner("Out-of-core preprocessing", "docs/OUTOFCORE.md",
           "panel-streamed planner vs in-memory pipeline: peak RSS, "
           "throughput, and plan bit-identity (per-phase child processes)");

    // rmat-20 at ~16 nnz/row is the regime the O(panel) window pays off
    // in: the in-memory path holds ~2x O(nnz) arrays (input + tiled
    // copies) while the streamed planner retains only the tile
    // directory.  Tile 2048 keeps the O(tiles) directory small enough
    // that the 4x RSS gate measures the streaming, not the directory.
    if (smoke) {
        c = {Index(1) << 14, size_t(8) << 14, /*tile=*/512, /*seed=*/7};
    } else {
        c = {Index(1) << 20, size_t(16) << 20, /*tile=*/2048, /*seed=*/7};
    }

    char tmpl[] = "bench_outofcore.XXXXXX";
    HT_FATAL_IF(mkdtemp(tmpl) == nullptr,
                "mkdtemp failed: ", std::strerror(errno));
    std::string dir = tmpl;
    std::string htb = dir + "/m.htb";
    std::string res = dir + "/result.txt";

    std::cout << "generating " << (c.rows >> 10) << "Ki-row RMAT (~"
              << (c.nnz >> 20) << "M entries) as " << htb << " ...\n";
    const PhaseRun gen = runPhase("gen", 7, c, htb, res);

    // The in-memory phase and the streamed runs are compared, so the
    // runner interleaves them.  Every run of every phase must produce
    // the same plan fingerprint.
    const std::pair<const char*, unsigned> phases[] = {
        {"inmem", 7}, {"stream", 1}, {"stream", 2}, {"stream", 7}};
    std::vector<PhaseRun> last(std::size(phases));
    bool identical = true;
    Runner runner;
    for (size_t i = 0; i < last.size(); ++i)
        runner.add([&, i] {
            last[i] = runPhase(phases[i].first, phases[i].second, c, htb, res);
            identical = identical && last[i].fingerprint == last[0].fingerprint;
            return Sample{{"seconds", last[i].seconds},
                          {"peak_rss_bytes", double(last[i].peak_rss)}};
        });
    runner.run();
    // inmem (cell 0) over streamed at 7 threads (cell 3), per round.
    const Spread rss_ratio = ratioSpread(runner.samples(0, "peak_rss_bytes"),
                                         runner.samples(3, "peak_rss_bytes"));
    const Spread throughput_ratio = ratioSpread(
        runner.samples(0, "seconds"), runner.samples(3, "seconds"));

    std::string why;
    bool inprocess_ok = inProcessIdentity(why, dir + "/small.htb");

    Table t({"Phase", "Threads", "Seconds", "Peak RSS MiB", "Nnz", "Tiles",
             "Fingerprint"});
    std::vector<Row> results;
    t.addRow({"gen", "7", "-", mib(gen.peak_rss), std::to_string(gen.nnz),
              "-", "-"});
    results.push_back(Row()
                          .put("phase", "gen")
                          .put("threads", 7)
                          .put("peak_rss_bytes", gen.peak_rss)
                          .put("nnz", gen.nnz));
    for (size_t i = 0; i < last.size(); ++i) {
        const auto& [phase, threads] = phases[i];
        const PhaseRun& r = last[i];
        t.addRow({phase, std::to_string(threads),
                  Table::num(runner.spread(i, "seconds").median, 3),
                  mib(uint64_t(runner.spread(i, "peak_rss_bytes").median)),
                  std::to_string(r.nnz), std::to_string(r.tiles),
                  r.fingerprint});
        results.push_back(Row()
                              .put("phase", phase)
                              .put("threads", threads)
                              .put(runner, i)
                              .put("fingerprint", r.fingerprint)
                              .put("nnz", r.nnz)
                              .put("tiles", r.tiles));
    }
    t.print(std::cout);
    std::cout << "\n(medians of " << rounds()
              << " interleaved rounds)\npeak RSS in-memory/streamed: "
              << Table::num(rss_ratio.median, 2)
              << "x   streamed throughput vs in-memory: "
              << Table::num(throughput_ratio.median, 2)
              << "x   plans identical: " << (identical ? "yes" : "NO")
              << "   in-process mmap build identical: "
              << (inprocess_ok ? "yes" : "NO") << "\n";

    writeReport(out_path, "outofcore",
                Row()
                    .put("rows", c.rows)
                    .put("tile", c.tile)
                    .put("rss_ratio", rss_ratio)
                    .put("throughput_ratio", throughput_ratio)
                    .put("plans_identical", identical)
                    .put("inprocess_identical", inprocess_ok),
                results);
    std::cout << "wrote " << out_path << "\n";

    std::remove(htb.c_str());
    std::remove(res.c_str());
    std::remove((dir + "/small.htb").c_str());
    rmdir(dir.c_str());

    if (check) {
        std::vector<std::string> failures;
        if (!identical)
            failures.push_back(
                "streamed plan fingerprints diverge from the in-memory plan");
        if (!inprocess_ok)
            failures.push_back("in-process mmap identity: " + why);
        // RSS and throughput gates need unsanitized builds at full
        // scale: ASan shadow memory and --smoke's tiny matrix (where
        // fixed process overhead dominates) both distort the ratios.
        if (!smoke) {
            if (rss_ratio.median < 4.0)
                failures.push_back(
                    "peak RSS ratio " + Table::num(rss_ratio.median, 2) +
                    "x < 4x (" +
                    mib(uint64_t(runner.spread(0, "peak_rss_bytes").median)) +
                    " MiB in-memory vs " +
                    mib(uint64_t(runner.spread(3, "peak_rss_bytes").median)) +
                    " MiB streamed)");
            if (throughput_ratio.median < 0.8)
                failures.push_back("streamed preprocessing throughput " +
                                   Table::num(throughput_ratio.median, 2) +
                                   "x < 0.8x of in-memory");
        }
        if (!failures.empty()) {
            for (const auto& f : failures)
                std::cerr << "CHECK FAILED: " << f << "\n";
            return 1;
        }
        std::cout << "all checks passed: plans bit-identical"
                  << (smoke ? "" : ", >= 4x lower peak RSS, >= 0.8x "
                                   "throughput")
                  << "\n";
    }
    return 0;
}
