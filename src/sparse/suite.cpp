#include "sparse/suite.hpp"

#include "common/error.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"

namespace hottiles {

namespace {

/** Stable per-name seed so proxies never change across runs. */
uint64_t
nameSeed(std::string_view name)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::vector<SuiteEntry>
buildTableV()
{
    using MC = MatrixClass;
    return {
        {"ski", "as-Skitter", "Internet topology", MC::PowerLaw, 53248, 687000},
        {"pap", "coPapersCiteseer", "Citation network", MC::Community, 12288, 983000},
        {"del", "delaunay_n22", "Geometry problem", MC::Mesh, 131072, 780000},
        {"dgr", "dgreen", "VLSI", MC::Community, 36864, 829000},
        {"kro", "kron_g500-logn19", "Synthetic graph", MC::PowerLaw, 16384, 1380000},
        {"myc", "mycielskian17", "Math.", MC::DenseUniform, 1536, 768000},
        {"pac", "packing-500x100x100-b050", "Numerical simulation", MC::Mesh, 65536, 1094000},
        {"ser", "Serena", "Environ. science", MC::Fem, 32768, 1500000},
        {"pok", "soc-Pokec", "Social network", MC::PowerLaw, 32768, 636000},
        {"wik", "wiki-topcats", "Web graph", MC::PowerLaw, 65536, 1055000},
    };
}

std::vector<SuiteEntry>
buildTableVIII()
{
    using MC = MatrixClass;
    return {
        {"gea", "gearbox", "Aerospace engineering", MC::Fem, 4608, 276000},
        {"mou", "mouse_gene", "Molecular biology", MC::DenseUniform, 1024, 470000},
        {"nd2", "nd24k", "2D/3D problem", MC::DenseUniform, 1152, 230000},
        {"rm0", "RM07R", "Comput. dynamics", MC::Fem, 8192, 532000},
        {"si4", "Si41Ge41H72", "Quantum chemistry", MC::Fem, 6144, 485000},
    };
}

} // namespace

const std::vector<SuiteEntry>&
tableV()
{
    static const std::vector<SuiteEntry> v = buildTableV();
    return v;
}

const std::vector<SuiteEntry>&
tableVIII()
{
    static const std::vector<SuiteEntry> v = buildTableVIII();
    return v;
}

const SuiteEntry*
findSuiteEntry(std::string_view name)
{
    for (const auto& e : tableV())
        if (e.name == name)
            return &e;
    for (const auto& e : tableVIII())
        if (e.name == name)
            return &e;
    return nullptr;
}

CooMatrix
makeSuiteMatrix(const SuiteEntry& e)
{
    const uint64_t seed = nameSeed(e.name);
    switch (e.cls) {
      case MatrixClass::PowerLaw: {
        // Social/web graphs are less skewed than the kron generator.
        if (e.name == "pok")
            return genRmat(e.rows, e.nnz_target, 0.45, 0.22, 0.22, 0.11, seed);
        if (e.name == "wik")
            return genRmat(e.rows, e.nnz_target, 0.52, 0.23, 0.19, 0.06, seed);
        return genRmat(e.rows, e.nnz_target, 0.57, 0.19, 0.19, 0.05, seed);
      }
      case MatrixClass::Community: {
        double degree = double(e.nnz_target) / e.rows;
        if (e.name == "dgr")  // VLSI: small cells, more global routing
            return genCommunity(e.rows, degree, 8, 64, 0.6, seed);
        return genCommunity(e.rows, degree, 32, 256, 0.75, seed);
      }
      case MatrixClass::Mesh: {
        double degree = double(e.nnz_target) / e.rows;
        double band = e.name == "pac" ? 2048.0 : 4096.0;
        return genMesh(e.rows, degree, band, seed);
      }
      case MatrixClass::DenseUniform:
        return genUniform(e.rows, e.rows, e.nnz_target, seed);
      case MatrixClass::Fem: {
        if (e.name == "ser")
            // Serena: dense 6-dof nodal blocks with couplings scattered by
            // the SuiteSparse ordering -> near-global reach.
            return genFemBlocks(e.rows, 6, 10, 4000, seed);
        if (e.name == "gea")
            return genFemBlocks(e.rows, 4, 14, 28, seed);
        if (e.name == "rm0")
            return genFemBlocks(e.rows, 5, 12, 16, seed);
        return genFemBlocks(e.rows, 4, 19, 40, seed);  // si4
      }
    }
    HT_PANIC("unreachable matrix class");
}

CooMatrix
makeSuiteMatrix(std::string_view name)
{
    const SuiteEntry* e = findSuiteEntry(name);
    if (!e)
        HT_FATAL("unknown suite matrix '", std::string(name), "'");
    return makeSuiteMatrix(*e);
}

CooMatrix
matrixFromHandle(const std::string& handle)
{
    if (!handle.empty() && handle[0] == '@')
        return makeSuiteMatrix(std::string_view(handle).substr(1));
    return readMatrixMarketFile(handle);
}

} // namespace hottiles
