#include "core/calibrate.hpp"

#include <map>
#include <mutex>

#include "common/log.hpp"
#include "model/calibration.hpp"
#include "partition/partition.hpp"
#include "partition/predicted_runtime.hpp"
#include "sim/simulator.hpp"
#include "sparse/generators.hpp"

namespace hottiles {

namespace {

/** Small, structurally diverse profiling matrices (§VI-B). */
std::vector<CooMatrix>
profilingMatrices()
{
    std::vector<CooMatrix> ms;
    ms.push_back(genUniform(4096, 4096, 40000, 0xCA11B001));
    ms.push_back(genRmat(4096, 60000, 0.57, 0.19, 0.19, 0.05, 0xCA11B002));
    ms.push_back(genMesh(8192, 8.0, 30.0, 0xCA11B003));
    return ms;
}

/** Samples for one worker type: prediction closure + simulated cycles. */
std::vector<CalibrationSample>
makeSamples(const Architecture& arch, bool hot_type,
            const std::vector<CooMatrix>& matrices,
            const std::vector<TileGrid>& grids)
{
    KernelConfig kernel;  // K = 32, plain SpMM
    std::vector<CalibrationSample> samples;
    for (size_t i = 0; i < matrices.size(); ++i) {
        const TileGrid& grid = grids[i];
        SimOutput sim = simulateHomogeneous(arch, grid, hot_type, kernel);

        CalibrationSample s;
        s.actual_cycles = double(sim.stats.cycles);
        s.predict = [&arch, &grid, hot_type, kernel](double vis_lat) {
            Architecture probe = arch;
            (hot_type ? probe.hot : probe.cold).vis_lat = vis_lat;
            double hot_bw = probe.pcie_gbps > 0
                                ? probe.pcie_gbps / probe.freq_ghz
                                : probe.bwBytesPerCycle();
            PartitionContext ctx = makePartitionContext(
                grid, probe.hot, probe.cold, kernel,
                probe.bwBytesPerCycle(), 0.0, probe.atomic_rmw, hot_bw);
            return predictedHomogeneousCycles(ctx, hot_type);
        };
        samples.push_back(std::move(s));
    }
    return samples;
}

} // namespace

ArchCalibration
calibrateArchitecture(Architecture& arch)
{
    // The memo's lock is held across a calibration, so concurrent first
    // users share one build.  The simulations' parallelFor calls run
    // their chunks on this thread too, so the lock cannot starve the pool.
    static std::mutex mu;
    static std::map<std::string, ArchCalibration> memo;
    std::lock_guard<std::mutex> lock(mu);
    if (auto it = memo.find(arch.name); it != memo.end()) {
        arch.hot.vis_lat = it->second.hot_vis_lat;
        arch.cold.vis_lat = it->second.cold_vis_lat;
        return it->second;
    }

    std::vector<CooMatrix> matrices = profilingMatrices();
    std::vector<TileGrid> grids;
    grids.reserve(matrices.size());
    for (const auto& m : matrices)
        grids.emplace_back(m, arch.tile_height, arch.tile_width);

    ArchCalibration result;
    {
        auto samples = makeSamples(arch, /*hot=*/true, matrices, grids);
        CalibrationResult r = calibrateVisLat(samples);
        result.hot_vis_lat = r.vis_lat;
        result.hot_error = r.mean_rel_error;
    }
    {
        auto samples = makeSamples(arch, /*hot=*/false, matrices, grids);
        CalibrationResult r = calibrateVisLat(samples);
        result.cold_vis_lat = r.vis_lat;
        result.cold_error = r.mean_rel_error;
    }
    arch.hot.vis_lat = result.hot_vis_lat;
    arch.cold.vis_lat = result.cold_vis_lat;
    memo[arch.name] = result;
    logInfo("calibrated ", arch.name, ": hot vis_lat=", result.hot_vis_lat,
            " (err ", result.hot_error, "), cold vis_lat=",
            result.cold_vis_lat, " (err ", result.cold_error, ")");
    return result;
}

Architecture
calibrated(Architecture arch)
{
    calibrateArchitecture(arch);
    return arch;
}

} // namespace hottiles
