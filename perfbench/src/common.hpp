// Shared pieces of the perfbench workloads: run configuration, seeded
// input helpers, the correctness check, set-up and pass timing, and the
// per-layer counter totals every workload reports.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sparse_lu.hpp"
#include "gpusim/device.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Residual limit of every factor+solve job.
constexpr double kMaxResidual = 1e-10;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

/// Mixes a seed with a stream id into an independent 64-bit seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Longest chain append_chain() adds.
constexpr std::uint64_t kMaxChain = 8;

/// `a` with a seeded chain of 1..kMaxChain extra nodes appended as a
/// separate, diagonally dominant component (a small isolated sub-network).
/// It varies a stand-in's order and modeled time slightly while leaving its
/// own structure as the suite built it; a random relabelling instead would
/// move serial RCM's fill on PR by ±10%.
e2elu::Csr append_chain(const e2elu::Csr& a, std::uint64_t seed);

/// Seeded right-hand side with entries in [-1, 1].
std::vector<e2elu::value_t> make_rhs(e2elu::index_t n, std::uint64_t seed);

/// FNV-1a digest of a matrix's structure and values (and a vector).
std::uint64_t digest(const e2elu::Csr& a, std::uint64_t h = 1469598103934665603ull);
std::uint64_t digest(const std::vector<e2elu::value_t>& v, std::uint64_t h);

/// True iff x solves A x = b to the benchmark's residual limit.
bool solves(const e2elu::Csr& a, const std::vector<e2elu::value_t>& x,
            const std::vector<e2elu::value_t>& b);

/// Runs `setup` kSetupRepeats times and returns the median wall seconds;
/// the caller keeps what the last repetition built.
double timed_setup(const std::function<void()>& setup);

/// Runs `pass` back to back while another pass of the last one's length
/// still fits in `seconds`, and at least `min_passes` times; returns each
/// pass's wall seconds.
std::vector<double> timed_passes(double seconds,
                                 const std::function<void()>& pass,
                                 std::size_t min_passes = 1);

/// Simulated-device counters summed over calls (gpusim layer).
struct GpuTotals {
  std::uint64_t launches = 0, h2d_bytes = 0, d2h_bytes = 0, page_faults = 0;
  double launch_us = 0, transfer_us = 0;

  void add(const e2elu::gpusim::DeviceStats& d);
  void emit(MetricSet& m) const;
};

/// FactorResult phase reports summed over factorizations.
struct PhaseTotals {
  double pre_sim = 0, pre_wall = 0, match_sim = 0, order_sim = 0,
         scale_sim = 0, sym_sim = 0, sym_wall = 0, lvl_sim = 0, lvl_wall = 0,
         num_sim = 0, num_wall = 0;
  std::uint64_t pre_launches = 0, fill_nnz = 0, sym_chunks = 0, sym_ops = 0,
                levels = 0, fused_levels = 0, num_launches = 0, num_ops = 0;
  double num_kernel_us = 0, num_occupancy_us = 0;

  double sim_total() const { return pre_sim + sym_sim + lvl_sim + num_sim; }
  void add(const e2elu::FactorResult& f);
  /// preprocess.*, symbolic.*, levelize.*, fusion.* and numeric.* metrics.
  void emit(MetricSet& m) const;
};

/// Scrolling-window counters (numeric layer).
struct WindowTotals {
  std::uint64_t refetches = 0, fetch_bytes = 0;
  double stall_us = 0;

  void emit(MetricSet& m) const;
};

/// Adds the composition shares every traced run prints and the matching
/// report lines: numeric share of wall time (batch workloads) and the
/// per-phase shares of modeled time.
void add_composition(Outcome& out, const std::string& workload,
                     const PhaseTotals& p, double wall_ms);

}  // namespace perfbench
