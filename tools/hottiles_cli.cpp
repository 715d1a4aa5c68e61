/**
 * @file
 * hottiles — command-line driver for the HotTiles framework.
 *
 *   hottiles suite
 *       List the built-in benchmark matrices (Table V / VIII proxies).
 *
 *   hottiles analyze  <matrix> [options]
 *       Tile the matrix, print IMH statistics and the model's view.
 *
 *   hottiles partition <matrix> [options] [--out FILE]
 *       Run the full preprocessing pipeline; optionally save the
 *       partition for later reuse (GNN training -> inference flow).
 *
 *   hottiles simulate <matrix> [options] [--load FILE]
 *       Simulate every execution strategy and print the comparison.
 *
 *   hottiles explore  <matrix> [options] [--total N]
 *       Iso-scale architecture exploration (predicted vs simulated).
 *
 *   hottiles run <matrix> --native [options]
 *       Execute the HotTiles partition plan for real on the host via
 *       the native CPU backend (docs/EXECUTION.md): the pipeline's worker
 *       formats, hot tiles through the streaming SIMD kernels and cold
 *       panels through untiled CSR, verified against the golden reference
 *       and reporting per-class measured-vs-predicted model error.
 *
 *   hottiles serve [options]
 *       Long-lived partition-plan daemon (docs/SERVING.md): reads
 *       length-prefixed request frames from stdin, writes reply frames
 *       to stdout.  Plan caching, admission control, deadlines and the
 *       graceful-degradation ladder all live behind this command.
 *
 *   hottiles update <matrix> [options]
 *       Incremental-update demonstration (docs/INCREMENTAL.md): apply
 *       random insert/delete batches through HotTiles::applyDelta,
 *       verify each result bit-identical against from-scratch
 *       preprocessing (plan, formats, and the patched formats' native
 *       SpMM), and report the incremental-vs-rebuild cost per round.
 *
 *   hottiles convert <src> <dst.htb> [--panel-rows N]
 *       Convert a matrix to the panel-sorted `.htb` binary format
 *       (docs/OUTOFCORE.md).  <src> is a .mtx path (streamed, O(panel)
 *       RSS), @name for a built-in proxy, or rmat:SCALE:DEGREE[:SEED]
 *       for a streamed R-MAT generation.  `.htb` files feed --mmap.
 *
 * Exit codes (asserted by the CLI ctests):
 *   0  success
 *   1  runtime error (bad matrix file, simulation failure, ...)
 *   2  usage error (unknown command/option, malformed option value)
 *   3  verification failure (native result diverges from the reference)
 *   4  completed, but degraded by an injected fault (class fail-stop)
 *
 * <matrix> is a MatrixMarket file, or @name for a built-in proxy
 * (e.g. @pap); with --mmap it is a `.htb` file consumed zero-copy via
 * mmap (partition/run only — see `convert`).  Options:
 *   --mmap       treat <matrix> as `.htb` and memory-map it; the
 *                preprocessed state is bit-identical to the in-memory
 *                path, but peak RSS excludes the O(nnz) input arrays
 *   --panel-rows N  `.htb` panel height written by convert (default 256;
 *                match the tile height the consumer will use)
 *   --arch spade-sextans[:SCALE] | pcie | piuma   (default spade-sextans:4)
 *   --kernel spmm|spmv|sddmm                      (default spmm)
 *   --k N        dense width                      (default 32)
 *   --ai X       gSpMM arithmetic intensity       (default 1)
 *   --tile N     square tile size override
 *   --seed N     IUnaware randomization seed
 *   --threads N  worker threads for preprocessing/kernels
 *                (default: HOTTILES_THREADS env or all hardware threads)
 *   --faults SPEC   inject faults into `simulate` runs; SPEC is
 *                comma-separated key=N with keys failstop, slowdown,
 *                linkdegrade, memspike, horizon (sim/fault_injector.hpp)
 *   --fault-seed N  seed of the fault plan composition  (default 1)
 *   --trace F       CSV event trace of `simulate` runs
 *   --trace-json F  Chrome trace-event JSON of `simulate` runs (open in
 *                Perfetto / chrome://tracing; see docs/OBSERVABILITY.md)
 *   --metrics F|-   metrics-registry JSON snapshot (phase timings,
 *                prediction-error histograms); '-' writes to stdout
 * `run` options:
 *   --native        select the native CPU backend (required; names the
 *                backend so accelerator backends can slot in later)
 *   --policy golden|fast  kernel policy (default golden, bit-verified)
 *   --hot-executors N     pin hot-class executor slots (default: model)
 *   --no-steal      disable cross-class work stealing at the tail
 *   --no-verify     skip the reference-kernel verification pass
 *   --fail-class hot|cold --fail-after N   inject a class fail-stop
 *                after N tasks (exit 4 when the run survives degraded)
 *   --corrupt-output  fault hook: flip one output value after the run
 *                so the verification pass must fail (exit 3); exists so
 *                the exit-code contract stays testable
 * `update` options:
 *   --updates N      delta rounds to apply              (default 3)
 *   --inserts N      nonzero insertions per round       (default 64)
 *   --deletes N      nonzero deletions per round        (default 64)
 *   --delta-seed S   batch-generator seed               (default 7)
 * `serve` options:
 *   --workers N          request executor threads       (default 4)
 *   --queue-capacity N   admission queue slots          (default 64)
 *   --tenant-cap N       per-tenant queue slots         (default: none)
 *   --cache-capacity N   resident plans, 0 = off        (default 128)
 *   --deadline-ms X      default request deadline       (default 1000)
 *   --max-retries N      transient-failure retries      (default 2)
 *   --chaos-seed N       enable deterministic chaos mode (0 = off)
 *   --no-coalesce        disable in-flight Run request coalescing
 *   --max-sessions N     live delta sessions, 0 = off   (default 64)
 *   --resident-mb N      resident handle budget in MiB: loaded matrices,
 *                        tile grids and worker formats kept per matrix
 *                        handle, LRU-evicted past it; 0 = off (default 512)
 */

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/calibrate.hpp"
#include "core/execution.hpp"
#include "core/explorer.hpp"
#include "core/serialize.hpp"
#include "core/tile_search.hpp"
#include "common/metrics.hpp"
#include "common/random.hpp"
#include "core/telemetry.hpp"
#include "exec/backend.hpp"
#include "kernels/dispatch.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "partition/predicted_runtime.hpp"
#include "sim/fault_injector.hpp"
#include "sim/trace.hpp"
#include "sim/trace_json.hpp"
#include "sparse/delta.hpp"
#include "sparse/generators.hpp"
#include "sparse/htb.hpp"
#include "sparse/imh_stats.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/suite.hpp"

using namespace hottiles;

namespace {

struct Options
{
    std::string command;
    std::string matrix;
    std::string arch_name = "spade-sextans:4";
    std::string kernel_name = "spmm";
    uint32_t k = 32;
    double ai = 1.0;
    Index tile = 0;  // 0 = architecture default
    uint64_t seed = 42;
    unsigned threads = 0;  // 0 = HOTTILES_THREADS env / hardware default
    // out-of-core (docs/OUTOFCORE.md)
    bool mmap = false;          //!< <matrix> is a `.htb`, consumed zero-copy
    Index panel_rows = 256;     //!< `.htb` panel height for `convert`
    std::string convert_dst;    //!< `convert` output path
    std::string out_file;
    std::string load_file;
    std::string trace_file;
    std::string trace_json_file;
    std::string metrics_file;
    std::string faults_spec;
    uint64_t fault_seed = 1;
    int total = 8;
    bool verbose = false;
    // `run` command
    bool native = false;
    std::string policy_name = "golden";
    unsigned hot_executors = 0;
    bool no_steal = false;
    bool no_verify = false;
    int fail_class = -1;  // -1 = no injected class fail-stop
    uint64_t fail_after = 0;
    bool corrupt_output = false;  // fault hook: force verify failure
    // `update` command
    uint64_t updates = 3;
    uint64_t delta_inserts = 64;
    uint64_t delta_deletes = 64;
    uint64_t delta_seed = 7;
    // `serve` command
    unsigned serve_workers = 4;
    uint64_t serve_queue = 64;
    uint64_t serve_tenant_cap = 0;
    uint64_t serve_cache = 128;
    double serve_deadline_ms = 1000;
    uint32_t serve_max_retries = 2;
    bool serve_coalesce = true;
    uint64_t serve_max_sessions = 64;
    uint64_t serve_resident_mb = 512;
    uint64_t chaos_seed = 0;
};

/** Distinct exit codes, documented above and pinned by the CLI ctests. */
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitVerify = 3;
constexpr int kExitFaultDegraded = 4;

/** Checked numeric argument parsing: every malformed value is a clean
 *  FatalError (caught in main) instead of an uncaught std:: exception. */
uint64_t
parseU64Arg(const std::string& v, const char* what)
{
    uint64_t out = 0;
    auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    HT_FATAL_IF(ec != std::errc() || p != v.data() + v.size(),
                "bad value for ", what, ": '", v, "'");
    return out;
}

/** parseU64Arg for a 32-bit option: a value outside [lo, 2^32 - 1] is
 *  rejected, never truncated. */
uint32_t
parseU32Arg(const std::string& v, const char* what, uint32_t lo = 0)
{
    const uint64_t out = parseU64Arg(v, what);
    HT_FATAL_IF(out < lo || out > UINT32_MAX, what, " must be in [", lo,
                ", ", UINT32_MAX, "], got ", v);
    return static_cast<uint32_t>(out);
}

double
parseF64Arg(const std::string& v, const char* what)
{
    double out = 0;
    auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    HT_FATAL_IF(ec != std::errc() || p != v.data() + v.size(),
                "bad value for ", what, ": '", v, "'");
    return out;
}

/** num / den to two decimals plus @p unit, or "-" when den is zero (a
 *  matrix without nonzeros simulates in zero cycles). */
std::string
ratioCell(double num, double den, const char* unit = "")
{
    return den > 0 ? Table::num(num / den, 2) + unit : "-";
}

[[noreturn]] void
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " suite|analyze|partition|simulate|explore|run|serve|"
                 "update|convert <matrix> "
                 "[--arch A] [--kernel K] [--k N] [--ai X] [--tile N] "
                 "[--mmap] [--panel-rows N] "
                 "[--seed N] [--out F] [--load F] [--total N] "
                 "[--threads N] [--faults SPEC] [--fault-seed N] "
                 "[--trace F] [--trace-json F] [--metrics F|-] "
                 "[--verbose] [--native] [--policy golden|fast] "
                 "[--hot-executors N] [--no-steal] [--no-verify] "
                 "[--fail-class hot|cold] [--fail-after N] "
                 "[--corrupt-output] "
                 "[--workers N] [--queue-capacity N] [--tenant-cap N] "
                 "[--cache-capacity N] [--deadline-ms X] "
                 "[--max-retries N] [--chaos-seed N] [--resident-mb N] "
                 "[--updates N] [--inserts N] [--deletes N] "
                 "[--delta-seed S]\n"
                 "<matrix> is a .mtx path or @name for a built-in proxy "
                 "(serve takes no matrix; convert takes <src> <dst.htb> "
                 "with src also rmat:SCALE:DEGREE[:SEED]; --mmap reads "
                 "<matrix> as .htb)\n";
    std::exit(kExitUsage);
}

Options
parseArgs(int argc, char** argv)
{
    if (argc < 2)
        usage(argv[0]);
    Options o;
    o.command = argv[1];
    int i = 2;
    if (o.command != "suite" && o.command != "serve") {
        if (i >= argc)
            usage(argv[0]);
        o.matrix = argv[i++];
    }
    if (o.command == "convert") {
        if (i >= argc)
            usage(argv[0]);
        o.convert_dst = argv[i++];
    }
    auto next = [&](const char* what) -> std::string {
        if (i >= argc)
            HT_FATAL("missing value for ", what);
        return argv[i++];
    };
    while (i < argc) {
        std::string a = argv[i++];
        if (a == "--arch")
            o.arch_name = next("--arch");
        else if (a == "--kernel")
            o.kernel_name = next("--kernel");
        else if (a == "--k")
            o.k = parseU32Arg(next("--k"), "--k", 1);
        else if (a == "--ai")
            o.ai = parseF64Arg(next("--ai"), "--ai");
        else if (a == "--tile")
            o.tile = parseU32Arg(next("--tile"), "--tile");
        else if (a == "--seed")
            o.seed = parseU64Arg(next("--seed"), "--seed");
        else if (a == "--out")
            o.out_file = next("--out");
        else if (a == "--load")
            o.load_file = next("--load");
        else if (a == "--total") {
            uint64_t t = parseU64Arg(next("--total"), "--total");
            HT_FATAL_IF(t == 0 || t > 1024, "--total must be in [1, 1024]");
            o.total = static_cast<int>(t);
        } else if (a == "--trace")
            o.trace_file = next("--trace");
        else if (a == "--trace-json")
            o.trace_json_file = next("--trace-json");
        else if (a == "--metrics")
            o.metrics_file = next("--metrics");
        else if (a == "--faults")
            o.faults_spec = next("--faults");
        else if (a == "--fault-seed")
            o.fault_seed = parseU64Arg(next("--fault-seed"), "--fault-seed");
        else if (a == "--threads")
            o.threads = parseU32Arg(next("--threads"), "--threads");
        else if (a == "--verbose")
            o.verbose = true;
        else if (a == "--mmap")
            o.mmap = true;
        else if (a == "--panel-rows") {
            uint64_t pr =
                parseU64Arg(next("--panel-rows"), "--panel-rows");
            HT_FATAL_IF(pr == 0 || pr > (uint64_t(1) << 30),
                        "--panel-rows must be in [1, 2^30]");
            o.panel_rows = static_cast<Index>(pr);
        } else if (a == "--native")
            o.native = true;
        else if (a == "--policy")
            o.policy_name = next("--policy");
        else if (a == "--hot-executors")
            o.hot_executors =
                parseU32Arg(next("--hot-executors"), "--hot-executors");
        else if (a == "--no-steal")
            o.no_steal = true;
        else if (a == "--no-verify")
            o.no_verify = true;
        else if (a == "--fail-class") {
            std::string c = toLower(next("--fail-class"));
            if (c == "hot")
                o.fail_class = 0;
            else if (c == "cold")
                o.fail_class = 1;
            else
                HT_FATAL("--fail-class must be hot or cold, got '", c, "'");
        } else if (a == "--fail-after")
            o.fail_after = parseU64Arg(next("--fail-after"), "--fail-after");
        else if (a == "--corrupt-output")
            o.corrupt_output = true;
        else if (a == "--workers") {
            uint64_t w = parseU64Arg(next("--workers"), "--workers");
            HT_FATAL_IF(w == 0 || w > 1024, "--workers must be in [1, 1024]");
            o.serve_workers = static_cast<unsigned>(w);
        } else if (a == "--queue-capacity")
            o.serve_queue =
                parseU64Arg(next("--queue-capacity"), "--queue-capacity");
        else if (a == "--tenant-cap")
            o.serve_tenant_cap =
                parseU64Arg(next("--tenant-cap"), "--tenant-cap");
        else if (a == "--cache-capacity")
            o.serve_cache =
                parseU64Arg(next("--cache-capacity"), "--cache-capacity");
        else if (a == "--deadline-ms") {
            o.serve_deadline_ms =
                parseF64Arg(next("--deadline-ms"), "--deadline-ms");
            HT_FATAL_IF(o.serve_deadline_ms <= 0,
                        "--deadline-ms must be positive");
        } else if (a == "--max-retries")
            o.serve_max_retries =
                parseU32Arg(next("--max-retries"), "--max-retries");
        else if (a == "--chaos-seed")
            o.chaos_seed = parseU64Arg(next("--chaos-seed"), "--chaos-seed");
        else if (a == "--no-coalesce")
            o.serve_coalesce = false;
        else if (a == "--max-sessions")
            o.serve_max_sessions =
                parseU64Arg(next("--max-sessions"), "--max-sessions");
        else if (a == "--resident-mb") {
            o.serve_resident_mb =
                parseU64Arg(next("--resident-mb"), "--resident-mb");
            HT_FATAL_IF(o.serve_resident_mb > (SIZE_MAX >> 20),
                        "--resident-mb must be in [0, ", SIZE_MAX >> 20,
                        "], got ", o.serve_resident_mb);
        } else if (a == "--updates") {
            o.updates = parseU64Arg(next("--updates"), "--updates");
            HT_FATAL_IF(o.updates == 0 || o.updates > 1024,
                        "--updates must be in [1, 1024]");
        } else if (a == "--inserts")
            o.delta_inserts = parseU64Arg(next("--inserts"), "--inserts");
        else if (a == "--deletes")
            o.delta_deletes = parseU64Arg(next("--deletes"), "--deletes");
        else if (a == "--delta-seed")
            o.delta_seed = parseU64Arg(next("--delta-seed"), "--delta-seed");
        else
            HT_FATAL("unknown option '", a, "'");
    }
    return o;
}

Architecture
makeArch(const Options& o)
{
    auto parts = splitChar(o.arch_name, ':');
    std::string base = toLower(parts[0]);
    Architecture arch;
    if (base == "spade-sextans") {
        int scale = 4;
        if (parts.size() > 1) {
            uint64_t s = parseU64Arg(std::string(parts[1]), "--arch scale");
            HT_FATAL_IF(s == 0 || s > 256,
                        "--arch scale must be in [1, 256]");
            scale = static_cast<int>(s);
        }
        arch = makeSpadeSextans(scale);
    } else if (base == "pcie") {
        arch = makeSpadeSextansPcie();
    } else if (base == "piuma") {
        arch = makePiuma();
    } else {
        HT_FATAL("unknown architecture '", o.arch_name,
                 "' (try spade-sextans[:1|2|4|8], pcie, piuma)");
    }
    if (o.tile > 0) {
        arch.tile_height = o.tile;
        arch.tile_width = o.tile;
    }
    return arch;
}

KernelConfig
makeKernel(const Options& o)
{
    KernelConfig kc;
    std::string k = toLower(o.kernel_name);
    if (k == "spmm") {
        kc.kind = SparseKernel::Spmm;
        kc.k = o.k;
    } else if (k == "spmv") {
        kc = spmvKernel();
    } else if (k == "sddmm") {
        kc = sddmmKernel(o.k);
    } else {
        HT_FATAL("unknown kernel '", o.kernel_name, "'");
    }
    kc.ai_factor = o.ai;
    return kc;
}

CooMatrix
loadMatrix(const Options& o)
{
    if (!o.matrix.empty() && o.matrix[0] == '@')
        return makeSuiteMatrix(o.matrix.substr(1));
    return readMatrixMarketFile(o.matrix);
}

int
cmdSuite()
{
    Table t({"Name", "Stands in for", "Domain", "Rows", "Nnz target"});
    t.setAlign(1, Table::Align::Left);
    t.setAlign(2, Table::Align::Left);
    auto add = [&](const SuiteEntry& e) {
        t.addRow({e.name, e.full_name, e.domain, std::to_string(e.rows),
                  std::to_string(e.nnz_target)});
    };
    for (const auto& e : tableV())
        add(e);
    for (const auto& e : tableVIII())
        add(e);
    t.print(std::cout);
    std::cout << "use @name as the matrix argument, e.g. 'analyze @pap'\n";
    return 0;
}

int
cmdAnalyze(const Options& o)
{
    CooMatrix m = loadMatrix(o);
    Architecture arch = calibrated(makeArch(o));
    KernelConfig kernel = makeKernel(o);

    std::cout << "matrix: " << m.rows() << "x" << m.cols() << ", "
              << m.nnz() << " nonzeros, density " << m.density()
              << ", avg degree " << m.avgDegree() << "\n";
    TileGrid grid(m, arch.tile_height, arch.tile_width);
    ImhStats imh = computeImhStats(grid);
    std::cout << "tiling: " << arch.tile_height << "x" << arch.tile_width
              << " -> " << grid.numTiles() << " occupied tiles ("
              << grid.emptyTiles() << " empty eliminated)\n"
              << "IMH: tile-nnz CV " << Table::num(imh.tile_cv, 2)
              << ", tile Gini " << Table::num(imh.tile_gini, 2)
              << ", row Gini " << Table::num(imh.row_gini, 2) << "\n"
              << "     densest 10% of tiles hold "
              << Table::num(100 * imh.top10pct_mass, 1)
              << "% of the nonzeros; hot mass (tiles with nnz >= width) "
              << Table::num(100 * imh.hot_mass, 1) << "%\n";

    TileSizeSearchResult ts = searchTileSize(arch, m, kernel);
    Table t({"Tile size", "Occupied tiles", "Predicted cycles"});
    for (const auto& c : ts.candidates)
        t.addRow({std::to_string(c.tile_height), std::to_string(c.tiles),
                  Table::num(c.predicted_cycles, 0)});
    t.print(std::cout);
    std::cout << "model-recommended tile size: " << ts.best.tile_height
              << "\n";
    return 0;
}

/**
 * Build the preprocessed state from either path: --mmap maps a `.htb`
 * and tiles it zero-copy, otherwise the matrix loads into memory.  The
 * mapping must outlive nothing — the grid owns its tiled arrays — but
 * is returned anyway so callers can report on it.
 */
std::unique_ptr<HotTiles>
makeHotTiles(const Options& o, const Architecture& arch,
             const HotTilesOptions& opts)
{
    if (o.mmap) {
        MappedMatrix mapped(o.matrix);
        return std::make_unique<HotTiles>(arch, mapped, opts);
    }
    CooMatrix m = loadMatrix(o);
    return std::make_unique<HotTiles>(arch, m, opts);
}

int
cmdPartition(const Options& o)
{
    Architecture arch = calibrated(makeArch(o));
    HotTilesOptions opts;
    opts.kernel = makeKernel(o);
    opts.iunaware_seed = o.seed;
    std::unique_ptr<HotTiles> ht_ptr = makeHotTiles(o, arch, opts);
    HotTiles& ht = *ht_ptr;

    const Partition& p = ht.partition();
    std::cout << "partitioned " << ht.grid().numTiles() << " tiles with "
              << p.heuristic << (p.serial ? " (serial)" : " (parallel)")
              << "\n"
              << "hot tiles: " << 100.0 * p.hotTileFraction()
              << "%, hot nonzeros: "
              << 100.0 * p.hotNnzFraction(ht.grid()) << "%\n"
              << "predicted runtime: " << p.predicted_cycles << " cycles ("
              << cyclesToMs(p.predicted_cycles, arch.freq_ghz) << " ms)\n"
              << "preprocessing: " << ht.timing().total() * 1e3 << " ms ("
              << 100.0 * ht.timing().overheadFraction()
              << "% HotTiles-specific)\n";
    if (!o.out_file.empty()) {
        writePartitionFile(p, ht.grid(), o.matrix, o.out_file);
        std::cout << "saved partition to " << o.out_file << "\n";
    }
    return 0;
}

/**
 * Owns whichever trace sink the options selected (CSV, Chrome JSON, or
 * none).  Destroy before reading back the output files: the Chrome
 * writer closes its JSON document in the destructor.
 */
struct TraceSinkHolder
{
    std::ofstream stream;
    std::unique_ptr<TraceWriter> csv;
    std::unique_ptr<ChromeTraceWriter> json;
    TraceSink* sink = nullptr;

    explicit TraceSinkHolder(const Options& o)
    {
        HT_FATAL_IF(!o.trace_file.empty() && !o.trace_json_file.empty(),
                    "--trace and --trace-json are mutually exclusive; "
                    "pick one sink per run");
        const std::string& path =
            !o.trace_file.empty() ? o.trace_file : o.trace_json_file;
        if (path.empty())
            return;
        stream.open(path);
        HT_FATAL_IF(!stream, "cannot open '", path, "' for writing");
        if (!o.trace_file.empty()) {
            csv = std::make_unique<TraceWriter>(stream);
            sink = csv.get();
        } else {
            json = std::make_unique<ChromeTraceWriter>(stream);
            sink = json.get();
        }
    }
};

/** Write the global metrics registry as JSON to @p dest ('-' = stdout). */
void
writeMetricsTo(const std::string& dest)
{
    if (dest == "-") {
        MetricsRegistry::global().writeJson(std::cout);
        return;
    }
    std::ofstream os(dest);
    HT_FATAL_IF(!os, "cannot open '", dest, "' for writing");
    MetricsRegistry::global().writeJson(os);
    std::cout << "wrote metrics to " << dest << "\n";
}

int
cmdSimulate(const Options& o)
{
    CooMatrix m = loadMatrix(o);
    Architecture arch = calibrated(makeArch(o));
    HotTilesOptions opts;
    opts.kernel = makeKernel(o);
    opts.iunaware_seed = o.seed;
    if (o.verbose)
        std::cout << "host kernel tier: "
                  << kernels::tierName(kernels::activeTier())
                  << (kernels::scalarForced() ? " (force-scalar)" : "")
                  << "\n";

    FaultPlan plan;
    const FaultPlan* faults = nullptr;
    if (!o.faults_spec.empty()) {
        plan = makeFaultPlan(o.fault_seed, arch,
                             parseFaultSpec(o.faults_spec));
        faults = &plan;
        std::cout << "injecting " << plan.events.size()
                  << " fault(s) from seed " << o.fault_seed << ":";
        for (const FaultEvent& ev : plan.events)
            std::cout << " " << faultKindName(ev.kind) << "@" << ev.at;
        std::cout << "\n";
    }

    if (!o.load_file.empty()) {
        TileGrid grid(m, arch.tile_height, arch.tile_width);
        Partition p = readPartitionFile(o.load_file, grid);
        SimConfig scfg;
        TraceSinkHolder sinks(o);
        scfg.trace = sinks.sink;
        scfg.faults = faults;
        SimOutput out = simulateExecution(arch, grid, p.is_hot, p.serial,
                                          opts.kernel, scfg);
        std::cout << "loaded partition (" << p.heuristic << "): "
                  << out.stats.cycles << " cycles, " << out.stats.ms
                  << " ms, " << out.stats.avg_bw_gbps << " GB/s\n";
        if (faults) {
            const FaultStats& fs = out.stats.faults;
            std::cout << "faults: " << fs.injected << " injected, "
                      << fs.workers_failed << " PEs dead, "
                      << fs.tiles_migrated << " tiles migrated ("
                      << fs.nnz_redispatched << " nnz)"
                      << (fs.degraded_mode ? ", DEGRADED to homogeneous"
                                           : "")
                      << "\n"
                      << "predicted (fault-free) " << p.predicted_cycles
                      << " cycles vs achieved " << out.stats.cycles << "\n";
        }
        if (o.verbose)
            std::cout << "event loop: " << out.stats.events_processed
                      << " events, peak queue depth "
                      << out.stats.peak_queue_depth << ", "
                      << out.stats.batched_events
                      << " completions batched\n";
        if (sinks.csv)
            std::cout << "wrote " << sinks.csv->rows() << " trace rows to "
                      << o.trace_file << "\n";
        if (sinks.json)
            std::cout << "wrote " << sinks.json->events()
                      << " trace events to " << o.trace_json_file << "\n";
        if (!o.metrics_file.empty())
            writeMetricsTo(o.metrics_file);
        return 0;
    }

    TraceSinkHolder sinks(o);
    EvalObservability obs;
    obs.trace = sinks.sink;
    // Per-tile prediction error rides along whenever metrics are asked
    // for (it lands in the registry as histograms).
    PredictionErrorTelemetry pred;
    obs.collect_prediction_error = !o.metrics_file.empty();
    obs.prediction = obs.collect_prediction_error ? &pred : nullptr;
    MatrixEvaluation ev =
        evaluateMatrix(arch, m, o.matrix, opts, faults, obs);
    std::vector<std::string> cols = {"Strategy", "Cycles", "ms",
                                     "Speedup vs worst", "BW GB/s"};
    if (faults) {
        // Predicted-vs-achieved under faults, plus the recovery columns.
        cols.push_back("Predicted");
        cols.push_back("PEs dead");
        cols.push_back("Migrated");
    }
    if (o.verbose) {
        // Event-loop observability columns (deterministic; useful for
        // judging simulation cost per strategy).
        cols.push_back("Events");
        cols.push_back("PeakQ");
        cols.push_back("Batched");
    }
    Table t(cols);
    auto row = [&](const char* name, const StrategyOutcome& s) {
        std::vector<std::string> r = {
            name, Table::num(s.cycles(), 0), Table::num(s.ms(), 3),
            ratioCell(ev.worstHomogeneousCycles(), s.cycles()),
            Table::num(s.stats.avg_bw_gbps, 1)};
        if (faults) {
            r.push_back(Table::num(s.predicted_cycles, 0));
            r.push_back(std::to_string(s.stats.faults.workers_failed));
            r.push_back(std::to_string(s.stats.faults.tiles_migrated) +
                        (s.stats.faults.degraded_mode ? "*" : ""));
        }
        if (o.verbose) {
            r.push_back(std::to_string(s.stats.events_processed));
            r.push_back(std::to_string(s.stats.peak_queue_depth));
            r.push_back(std::to_string(s.stats.batched_events));
        }
        t.addRow(r);
    };
    row("HotOnly", ev.hot_only);
    row("ColdOnly", ev.cold_only);
    row("IUnaware", ev.iunaware);
    row("HotTiles", ev.hottiles);
    t.print(std::cout);
    if (faults)
        std::cout << "(* = degraded to homogeneous execution after a "
                     "worker class died)\n";
    std::cout << "HotTiles vs BestHomogeneous: "
              << ratioCell(ev.bestHomogeneousCycles(), ev.hottiles.cycles(),
                           "x")
              << "\n";
    if (obs.collect_prediction_error && !pred.empty())
        std::cout << "prediction error sampled over "
                  << pred.hot_tiles.size() << " hot tiles / "
                  << pred.cold_panels.size() << " cold panels "
                  << "(histograms in metrics output)\n";
    if (sinks.csv)
        std::cout << "wrote " << sinks.csv->rows() << " trace rows to "
                  << o.trace_file << "\n";
    if (sinks.json)
        std::cout << "wrote " << sinks.json->events()
                  << " trace events to " << o.trace_json_file << "\n";
    if (!o.metrics_file.empty())
        writeMetricsTo(o.metrics_file);
    return 0;
}

int
cmdRun(const Options& o)
{
    HT_FATAL_IF(!o.native,
                "run needs a backend; the only one today is --native "
                "(the host CPU, docs/EXECUTION.md)");
    const std::string policy = toLower(o.policy_name);
    HT_FATAL_IF(policy != "golden" && policy != "fast",
                "unknown --policy '", o.policy_name, "' (golden|fast)");

    Architecture arch = calibrated(makeArch(o));
    HotTilesOptions opts;
    opts.kernel = makeKernel(o);
    opts.iunaware_seed = o.seed;
    std::unique_ptr<HotTiles> ht_ptr = makeHotTiles(o, arch, opts);
    HotTiles& ht = *ht_ptr;
    const TileGrid& grid = ht.grid();
    const Partition& p = ht.partition();

    exec::NativeExecOptions eo;
    eo.policy = policy == "fast" ? kernels::Policy::Fast
                                 : kernels::Policy::Golden;
    eo.work_stealing = !o.no_steal;
    eo.hot_executors = o.hot_executors;
    if (o.fail_class >= 0) {
        eo.fail_class = o.fail_class;
        eo.fail_after_tasks = o.fail_after;
    }
    AssignmentTotals totals = assignmentTotals(ht.context(), p.is_hot);
    if (totals.th_total + totals.tc_total > 0)
        eo.hot_share_hint =
            totals.th_total / (totals.th_total + totals.tc_total);
    auto backend = exec::makeNativeCpuBackend(eo);

    DenseMatrix din(grid.matrixCols(), opts.kernel.k);
    Rng rng(o.seed);
    din.fillRandom(rng);

    std::cout << "executing " << p.heuristic << " plan natively ("
              << policy << " kernels, tier "
              << kernels::tierName(kernels::activeTier()) << ")\n";
    exec::ExecReport rep;
    DenseMatrix out = backend->run(grid, p, ht.hotFormat(), ht.coldFormat(),
                                   opts.kernel, din, &rep);
    if (o.corrupt_output && out.rows() > 0 && out.cols() > 0)
        out.at(0, 0) += Value(1);

    if (!o.no_verify) {
        DenseMatrix ref =
            exec::referenceExecute(grid, p, opts.kernel, din);
        if (eo.policy == kernels::Policy::Golden) {
            const bool same =
                out.data().size() == ref.data().size() &&
                std::memcmp(out.data().data(), ref.data().data(),
                            out.data().size() * sizeof(Value)) == 0;
            if (!same) {
                std::cerr << "verification failed: native result is NOT "
                             "bit-identical to the golden reference "
                             "(max |diff| "
                          << out.maxAbsDiff(ref) << ")\n";
                return kExitVerify;
            }
            std::cout << "verified: bit-identical to the golden reference "
                         "kernels\n";
        } else {
            if (!out.approxEqual(ref)) {
                std::cerr << "verification failed: native fast-policy "
                             "result diverges from the golden reference "
                             "(max |diff| "
                          << out.maxAbsDiff(ref) << ")\n";
                return kExitVerify;
            }
            std::cout << "verified: within fast-policy tolerance of the "
                         "golden reference (max |diff| "
                      << out.maxAbsDiff(ref) << ")\n";
        }
    }

    PredictionErrorTelemetry tel =
        exec::computeNativePredictionError(grid, ht.context(), p.is_hot,
                                           rep);
    recordPredictionError(tel, "native");
    PredictionErrorSummary hs = summarizePredictionError(tel.hot_tiles);
    PredictionErrorSummary cs = summarizePredictionError(tel.cold_panels);

    Table t({"Class", "Executors", "Tasks", "Stolen", "Tiles", "Nnz",
             "Busy ms", "Model err% mean", "p90"});
    auto row = [&](const char* name, unsigned execs,
                   const exec::ExecClassReport& c,
                   const PredictionErrorSummary& s) {
        t.addRow({name, std::to_string(execs), std::to_string(c.tasks),
                  std::to_string(c.stolen_tasks), std::to_string(c.tiles),
                  std::to_string(c.nnz), Table::num(c.busy_s * 1e3, 3),
                  s.count ? Table::num(s.mean_pct, 1) : "-",
                  s.count ? Table::num(s.p90_pct, 1) : "-"});
    };
    row("hot", rep.hot_executors, rep.hot, hs);
    row("cold", rep.cold_executors, rep.cold, cs);
    t.print(std::cout);
    const PreprocessTiming& pt = ht.timing();
    std::cout << "wall " << Table::num(rep.wall_s * 1e3, 3)
              << " ms (format stage, once in preprocessing: "
              << Table::num((pt.format_base_s + pt.format_extra_s) * 1e3, 3)
              << " ms), " << Table::num(rep.gflops, 2) << " GFLOP/s on "
              << rep.threads << " threads\n"
              << "measured-vs-predicted sampled over " << hs.count
              << " hot tiles / " << cs.count
              << " cold panels (prediction_error.native.* histograms)\n";
    if (!o.metrics_file.empty())
        writeMetricsTo(o.metrics_file);
    if (rep.class_failed) {
        // Correct result, but a worker class was lost along the way:
        // the distinct exit code lets callers tell "healthy" from
        // "survived degraded" without parsing stdout.
        std::cout << "fault: class fail-stop migrated "
                  << rep.requeued_tasks << " task(s) to the survivor\n";
        return kExitFaultDegraded;
    }
    return kExitOk;
}

int
cmdServe(const Options& o)
{
    serve::ServiceConfig cfg;
    cfg.workers = o.serve_workers;
    cfg.queue_capacity = o.serve_queue;
    cfg.max_per_tenant = o.serve_tenant_cap;
    cfg.cache_capacity = o.serve_cache;
    cfg.default_deadline_ms = o.serve_deadline_ms;
    cfg.max_retries = o.serve_max_retries;
    cfg.coalesce_runs = o.serve_coalesce;
    cfg.max_sessions = o.serve_max_sessions;
    cfg.resident_budget_bytes = size_t(o.serve_resident_mb) << 20;
    cfg.chaos.seed = o.chaos_seed;
    TraceSinkHolder trace(o);  // --trace/--trace-json: ladder transitions
    cfg.trace = trace.sink;

    std::cerr << "hottiles serve: " << cfg.workers << " workers, queue "
              << cfg.queue_capacity << ", cache " << cfg.cache_capacity
              << ", deadline " << cfg.default_deadline_ms << " ms"
              << ", resident " << o.serve_resident_mb << " MiB"
              << (cfg.chaos.enabled() ? ", CHAOS MODE" : "") << "\n";

    serve::PlanService service(cfg);
    uint64_t processed =
        serve::runServeLoop(std::cin, std::cout, service);
    service.stop();

    serve::ServiceStats s = service.stats();
    std::cerr << "hottiles serve: processed " << processed << " request(s): "
              << s.ok << " ok, " << s.degraded << " degraded, " << s.shed
              << " shed, " << s.timeout << " timeout, " << s.error
              << " error; " << s.coalesced << " coalesced, " << s.deltas
              << " delta(s), " << s.value_patches
              << " value patch(es); cache " << s.cache.hits << " hit / "
              << s.cache.misses << " miss / " << s.cache.shared_builds
              << " shared / " << s.cache.corrupt_dropped << " corrupt; "
              << "resident "
              << uint64_t(MetricsRegistry::global()
                              .gauge("serve.resident_bytes")
                              .value())
              << " bytes\n";
    if (!o.metrics_file.empty())
        writeMetricsTo(o.metrics_file);
    return kExitOk;
}

int
cmdUpdate(const Options& o)
{
    CooMatrix m = loadMatrix(o);
    Architecture arch = calibrated(makeArch(o));
    HotTilesOptions opts;
    opts.kernel = makeKernel(o);
    opts.iunaware_seed = o.seed;

    double t0 = monotonicSeconds();
    HotTiles ht(arch, m, opts);
    std::cout << "initial preprocessing: "
              << Table::num((monotonicSeconds() - t0) * 1e3, 3) << " ms, "
              << ht.grid().numTiles() << " tiles\n";

    DenseMatrix din(m.cols(), opts.kernel.k);
    Rng rng(o.seed);
    din.fillRandom(rng);

    Table t({"Round", "Ops", "Dirty tiles", "Migrated", "Reused panels",
             "Update ms", "Rebuild ms", "Speedup", "Identical"});
    bool all_identical = true;
    for (uint64_t round = 0; round < o.updates; ++round) {
        DeltaBatch batch = genDeltaBatch(m, o.delta_inserts, o.delta_deletes,
                                         o.delta_seed + round);
        t0 = monotonicSeconds();
        DeltaUpdateStats st = ht.applyDelta(batch);
        const double update_ms = (monotonicSeconds() - t0) * 1e3;

        m = applyDeltaToCoo(m, batch);
        t0 = monotonicSeconds();
        HotTiles fresh(arch, m, opts);
        const double rebuild_ms = (monotonicSeconds() - t0) * 1e3;

        bool identical = samePreprocessedState(ht, fresh);
        if (identical) {
            DenseMatrix out_inc = exec::makeNativeCpuBackend()->run(
                ht.grid(), ht.partition(), ht.hotFormat(), ht.coldFormat(),
                opts.kernel, din);
            DenseMatrix out_fresh = exec::referenceExecute(
                fresh.grid(), fresh.partition(), opts.kernel, din);
            identical =
                out_inc.data().size() == out_fresh.data().size() &&
                std::memcmp(out_inc.data().data(), out_fresh.data().data(),
                            out_inc.data().size() * sizeof(Value)) == 0;
        }
        all_identical = all_identical && identical;

        t.addRow({std::to_string(round), std::to_string(batch.size()),
                  std::to_string(st.dirty_tiles),
                  std::to_string(st.migrated_tiles),
                  std::to_string(st.panels_reused) + "/" +
                      std::to_string(st.panels_reused + st.panels_rebuilt),
                  Table::num(update_ms, 3), Table::num(rebuild_ms, 3),
                  Table::num(update_ms > 0 ? rebuild_ms / update_ms : 0, 2),
                  identical ? "yes" : "NO"});
    }
    t.print(std::cout);
    std::cout << "accumulated update time: "
              << Table::num(ht.timing().update_s * 1e3, 3) << " ms over "
              << o.updates << " round(s)\n";
    if (!o.metrics_file.empty())
        writeMetricsTo(o.metrics_file);
    if (!all_identical) {
        std::cerr << "verification failed: incremental update diverged "
                     "from from-scratch preprocessing\n";
        return kExitVerify;
    }
    std::cout << "verified: every round bit-identical to from-scratch "
                 "preprocessing\n";
    return kExitOk;
}

int
cmdConvert(const Options& o)
{
    const Index pr = o.panel_rows;
    uint64_t nnz = 0;
    if (o.matrix.rfind("rmat:", 0) == 0) {
        // rmat:SCALE:DEGREE[:SEED] — streamed generation, never holds
        // more than one panel's edges.
        auto parts = splitChar(o.matrix, ':');
        HT_FATAL_IF(parts.size() < 3 || parts.size() > 4,
                    "rmat spec is rmat:SCALE:DEGREE[:SEED], got '",
                    o.matrix, "'");
        uint64_t scale =
            parseU64Arg(std::string(parts[1]), "rmat scale");
        HT_FATAL_IF(scale == 0 || scale > 30,
                    "rmat scale must be in [1, 30]");
        uint64_t degree =
            parseU64Arg(std::string(parts[2]), "rmat degree");
        HT_FATAL_IF(degree == 0 || degree > 4096,
                    "rmat degree must be in [1, 4096]");
        uint64_t seed = parts.size() > 3
                            ? parseU64Arg(std::string(parts[3]), "rmat seed")
                            : o.seed;
        const Index rows = Index(1) << scale;
        nnz = genRmatHtb(o.convert_dst, rows, size_t(rows) * degree, 0.57,
                         0.19, 0.19, 0.05, seed, pr);
    } else if (!o.matrix.empty() && o.matrix[0] == '@') {
        CooMatrix m = makeSuiteMatrix(o.matrix.substr(1));
        m.sortRowMajor();
        m.dedupSum();
        writeHtbFromCoo(o.convert_dst, m, pr);
        nnz = m.nnz();
    } else {
        // Two-pass streaming conversion: O(largest panel) peak RSS.
        nnz = convertMatrixMarketToHtb(o.matrix, o.convert_dst, pr);
    }
    MappedMatrix check(o.convert_dst);
    std::cout << "wrote " << o.convert_dst << ": " << check.rows() << "x"
              << check.cols() << ", " << nnz << " nonzeros in "
              << check.numPanels() << " panel(s) of " << check.panelRows()
              << " row(s)\n";
    return kExitOk;
}

int
cmdExplore(const Options& o)
{
    CooMatrix m = loadMatrix(o);
    auto pts = exploreIsoScale(m, o.total, makeKernel(o));
    Table t({"Design", "Predicted cycles", "Simulated cycles"});
    for (const auto& pt : pts)
        t.addRow({pt.label(), Table::num(pt.predicted_cycles, 0),
                  Table::num(pt.actual_cycles, 0)});
    t.print(std::cout);
    std::cout << "predicted best: " << pts[bestPredicted(pts)].label()
              << ", simulated best: " << pts[bestActual(pts)].label()
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    try {
        o = parseArgs(argc, argv);
    } catch (const FatalError& e) {
        // Argument-parsing failures are usage errors: exit 2, distinct
        // from runtime failures (exit 1).
        std::cerr << "error: " << e.what() << "\n";
        return kExitUsage;
    }
    try {
        if (o.threads > 0)
            ThreadPool::setGlobalThreads(o.threads);
        if (o.command == "suite")
            return cmdSuite();
        if (o.command == "analyze")
            return cmdAnalyze(o);
        if (o.command == "partition")
            return cmdPartition(o);
        if (o.command == "simulate")
            return cmdSimulate(o);
        if (o.command == "explore")
            return cmdExplore(o);
        if (o.command == "run")
            return cmdRun(o);
        if (o.command == "serve")
            return cmdServe(o);
        if (o.command == "update")
            return cmdUpdate(o);
        if (o.command == "convert")
            return cmdConvert(o);
        usage(argv[0]);
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return kExitError;
    } catch (const std::exception& e) {
        // Anything else that slipped through still exits with a clean
        // one-line message instead of an abort/backtrace.
        std::cerr << "error: " << e.what() << "\n";
        return kExitError;
    }
}
