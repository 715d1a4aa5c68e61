/**
 * @file
 * Ablation (§X future work): HotTiles applied to SpMV and SDDMM, which
 * share SpMM's access pattern.  For a subset of the Table V matrices we
 * compare HotTiles against the baselines under all three kernels on
 * SPADE-Sextans scale 4.  Expected shape: the same hot/cold structure
 * drives all three; SpMV is even more memory-bound (speedups vs HotOnly
 * grow), SDDMM removes the output write-backs and the Merger.  What the
 * host kernel library achieves on the same kernels is measured by
 * bench_kernel_throughput (docs/KERNELS.md).
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

using namespace hottiles;
using namespace hottiles::bench;

int
main(int argc, char** argv)
{
    init(&argc, argv);
    banner("Ablation: kernels", "HPCA'24 HotTiles, §X",
           "HotTiles on SpMM / SpMV / SDDMM (SPADE-Sextans scale 4)");

    Architecture arch = calibrated(makeSpadeSextans(4));
    struct KernelRow
    {
        const char* name;
        KernelConfig kc;
    };
    std::vector<KernelRow> kernels = {
        {"SpMM (K=32)", KernelConfig{}},
        {"SpMV", spmvKernel()},
        {"SDDMM (K=32)", sddmmKernel(32)},
    };
    std::vector<std::string> names = {"ski", "pap", "kro", "myc", "pok"};

    Table t({"Kernel", "vs HotOnly", "vs ColdOnly", "vs IUnaware",
             "vs BestHom"});
    t.setAlign(0, Table::Align::Left);
    for (const auto& kr : kernels) {
        HotTilesOptions opts;
        opts.kernel = kr.kc;
        opts.build_formats = false;
        GeoMean vs_hot;
        GeoMean vs_cold;
        GeoMean vs_iu;
        GeoMean vs_best;
        for (const auto& name : names) {
            MatrixEvaluation ev =
                evaluateMatrix(arch, suiteMatrix(name), name, opts);
            double ht = ev.hottiles.cycles();
            vs_hot.add(ev.hot_only.cycles() / ht);
            vs_cold.add(ev.cold_only.cycles() / ht);
            vs_iu.add(ev.iunaware.cycles() / ht);
            vs_best.add(ev.bestHomogeneousCycles() / ht);
        }
        t.addRow({kr.name, Table::num(vs_hot.value(), 2),
                  Table::num(vs_cold.value(), 2),
                  Table::num(vs_iu.value(), 2),
                  Table::num(vs_best.value(), 2)});
    }
    t.print(std::cout);
    std::cout << "\nGeomean HotTiles speedups over "
              << names.size() << " matrices; the partitioning structure "
                 "transfers across kernels (§X).\n";
    return 0;
}
