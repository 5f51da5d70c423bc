// The perfbench workloads. Each builds its inputs from the run's seed,
// measures with tracing off (end-to-end metrics) or walks its layers with
// spans on (per-layer metrics), and counts every factor+solve job it
// attempts and every one that fails.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

/// table2_paper (amd_window = false) and table2_amd_window.
Outcome run_table2(const RunConfig& cfg, bool amd_window, SpanRecorder& rec);
/// fleet_replay: closed-loop tenant traffic on one FactorService.
Outcome run_fleet(const RunConfig& cfg, SpanRecorder& rec);
/// mesh_outofcore: sharded mesh plus windowed Table-4 stand-ins.
Outcome run_mesh(const RunConfig& cfg, SpanRecorder& rec);

/// Digests of the generated inputs (the seed test compares them).
std::uint64_t table2_digest(std::uint64_t seed, bool amd_window);
std::uint64_t fleet_digest(std::uint64_t seed);
std::uint64_t mesh_digest(std::uint64_t seed);

}  // namespace perfbench
