#pragma once

/**
 * @file
 * The benchmark matrix suite: deterministic synthetic proxies for the
 * SuiteSparse matrices of Table V (ten sparser matrices) and Table VIII
 * (five higher-density matrices).
 *
 * Scaling rule (see DESIGN.md): rows are reduced ~32x and the tile size
 * 8192 -> 256, so the quantity that drives hot/cold classification —
 * H = density x tile_height, the expected nonzeros per tile column — is
 * preserved per matrix.  Average degree is preserved wherever that keeps
 * the proxy tractable; for the densest matrices (myc, mou, nd2, ser) rows
 * are reduced further with density adjusted to hold H.
 */

#include <string>
#include <string_view>
#include <vector>

#include "sparse/coo.hpp"

namespace hottiles {

/** Structure class of a suite proxy (selects the generator). */
enum class MatrixClass { PowerLaw, Community, Mesh, DenseUniform, Fem };

/** One named benchmark matrix. */
struct SuiteEntry
{
    std::string name;        //!< paper short name (e.g. "pap")
    std::string full_name;   //!< SuiteSparse name it stands in for
    std::string domain;      //!< application domain from Table V/VIII
    MatrixClass cls;         //!< generator family
    Index rows;              //!< proxy row (= column) count
    size_t nnz_target;       //!< approximate proxy nonzero count
};

/** The ten Table V matrices (ski pap del dgr kro myc pac ser pok wik). */
const std::vector<SuiteEntry>& tableV();

/** The five higher-density Table VIII matrices (gea mou nd2 rm0 si4). */
const std::vector<SuiteEntry>& tableVIII();

/** Look up a suite entry by short name; nullptr if unknown. */
const SuiteEntry* findSuiteEntry(std::string_view name);

/** Generate the proxy matrix for @p entry (deterministic). */
CooMatrix makeSuiteMatrix(const SuiteEntry& entry);

/** Generate by short name. @throws FatalError for unknown names. */
CooMatrix makeSuiteMatrix(std::string_view name);

/**
 * The matrix a CLI argument or a wire `matrix=` handle names: `@name`
 * is a suite proxy, anything else a MatrixMarket path.
 * @throws FatalError for an unknown proxy or an unreadable file.
 */
CooMatrix matrixFromHandle(const std::string& handle);

} // namespace hottiles
