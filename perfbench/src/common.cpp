#include "common.hpp"

#include <cmath>
#include <cstdio>

#include "support/rng.hpp"
#include "support/timer.hpp"

namespace perfbench {

using namespace e2elu;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // One splitmix64 step over the pair keeps nearby seeds and streams
  // statistically independent.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + stream);
  return rng.next_u64();
}

Csr append_chain(const Csr& a, std::uint64_t seed) {
  Rng rng(seed);
  const auto k = static_cast<index_t>(1 + rng.next_below(kMaxChain));
  Csr out = a;
  out.n = a.n + k;
  for (index_t i = a.n; i < out.n; ++i) {
    const value_t left = i > a.n ? -rng.next_double(0.5, 1.5) : 0;
    const value_t right = i + 1 < out.n ? -rng.next_double(0.5, 1.5) : 0;
    if (left != 0) {
      out.col_idx.push_back(i - 1);
      out.values.push_back(left);
    }
    out.col_idx.push_back(i);
    out.values.push_back(1 + std::abs(left) + std::abs(right));
    if (right != 0) {
      out.col_idx.push_back(i + 1);
      out.values.push_back(right);
    }
    out.row_ptr.push_back(static_cast<offset_t>(out.col_idx.size()));
  }
  return out;
}

std::vector<value_t> make_rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (value_t& v : b) v = static_cast<value_t>(rng.next_double(-1.0, 1.0));
  return b;
}

namespace {

std::uint64_t fnv(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::uint64_t digest(const Csr& a, std::uint64_t h) {
  h = fnv(a.row_ptr.data(), a.row_ptr.size() * sizeof(offset_t), h);
  h = fnv(a.col_idx.data(), a.col_idx.size() * sizeof(index_t), h);
  return fnv(a.values.data(), a.values.size() * sizeof(value_t), h);
}

std::uint64_t digest(const std::vector<value_t>& v, std::uint64_t h) {
  return fnv(v.data(), v.size() * sizeof(value_t), h);
}

bool solves(const Csr& a, const std::vector<value_t>& x,
            const std::vector<value_t>& b) {
  if (x.size() != b.size()) return false;
  const double r = SparseLU::residual(a, x, b);
  return r <= kMaxResidual;  // NaN fails too
}

double timed_setup(const std::function<void()>& setup) {
  std::vector<double> secs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    WallTimer t;
    setup();
    secs.push_back(t.seconds());
    std::fprintf(stderr, "[perfbench] setup %d: %.3f s\n", i + 1, secs.back());
  }
  return median(secs);
}

std::vector<double> timed_passes(double seconds,
                                 const std::function<void()>& pass,
                                 std::size_t min_passes) {
  std::vector<double> walls;
  WallTimer total;
  do {
    WallTimer t;
    pass();
    walls.push_back(t.seconds());
    std::fprintf(stderr, "[perfbench] pass %zu: %.3f s\n", walls.size(),
                 walls.back());
  } while (walls.size() < min_passes ||
           total.seconds() + walls.back() <= seconds);
  return walls;
}

void GpuTotals::add(const gpusim::DeviceStats& d) {
  launches += d.host_launches + d.device_launches;
  h2d_bytes += d.h2d_bytes;
  d2h_bytes += d.d2h_bytes;
  page_faults += d.page_faults;
  launch_us += d.sim_launch_us;
  transfer_us += d.sim_transfer_us;
}

void GpuTotals::emit(MetricSet& m) const {
  constexpr double kMiB = 1024.0 * 1024.0;
  m.add("gpusim.launches", static_cast<double>(launches), "count");
  m.add("gpusim.launch_ms", launch_us / 1000.0, "ms");
  m.add("gpusim.transfer_ms", transfer_us / 1000.0, "ms");
  m.add("gpusim.h2d_mb", static_cast<double>(h2d_bytes) / kMiB, "MiB");
  m.add("gpusim.d2h_mb", static_cast<double>(d2h_bytes) / kMiB, "MiB");
  m.add("gpusim.page_faults", static_cast<double>(page_faults), "count");
}

void PhaseTotals::add(const FactorResult& f) {
  pre_sim += f.preprocess.sim_us;
  pre_wall += f.preprocess.wall_ms;
  match_sim += f.preprocess_match.sim_us;
  order_sim += f.preprocess_order.sim_us;
  scale_sim += f.preprocess_scale.sim_us;
  pre_launches += f.preprocess.launches;
  fill_nnz += static_cast<std::uint64_t>(f.fill_nnz);
  sym_sim += f.symbolic.sim_us;
  sym_wall += f.symbolic.wall_ms;
  sym_chunks += static_cast<std::uint64_t>(f.symbolic_chunks);
  sym_ops += f.symbolic.ops;
  lvl_sim += f.levelize.sim_us;
  lvl_wall += f.levelize.wall_ms;
  levels += static_cast<std::uint64_t>(f.num_levels);
  fused_levels += static_cast<std::uint64_t>(f.fused_levels);
  num_sim += f.numeric.sim_us;
  num_wall += f.numeric.wall_ms;
  num_launches += f.numeric.launches;
  num_ops += f.numeric.ops;
}

void PhaseTotals::emit(MetricSet& m) const {
  m.add("preprocess.sim_ms", pre_sim / 1000.0, "ms");
  m.add("preprocess.wall_ms", pre_wall, "ms");
  m.add("preprocess.match.sim_ms", match_sim / 1000.0, "ms");
  m.add("preprocess.order.sim_ms", order_sim / 1000.0, "ms");
  m.add("preprocess.scale.sim_ms", scale_sim / 1000.0, "ms");
  m.add("preprocess.launches", static_cast<double>(pre_launches), "count");
  m.add("preprocess.fill_nnz", static_cast<double>(fill_nnz), "count");
  m.add("symbolic.sim_ms", sym_sim / 1000.0, "ms");
  m.add("symbolic.wall_ms", sym_wall, "ms");
  m.add("symbolic.chunks", static_cast<double>(sym_chunks), "count");
  m.add("symbolic.ops", static_cast<double>(sym_ops), "count");
  m.add("levelize.sim_ms", lvl_sim / 1000.0, "ms");
  m.add("levelize.wall_ms", lvl_wall, "ms");
  m.add("levelize.levels", static_cast<double>(levels), "count");
  m.add("fusion.fused_levels", static_cast<double>(fused_levels), "count");
  m.add("numeric.sim_ms", num_sim / 1000.0, "ms");
  m.add("numeric.wall_ms", num_wall, "ms");
  m.add("numeric.launches", static_cast<double>(num_launches), "count");
  m.add("numeric.ops", static_cast<double>(num_ops), "count");
  if (num_kernel_us > 0) {
    m.add("numeric.occupancy", num_occupancy_us / num_kernel_us, "ratio");
  }
}

void WindowTotals::emit(MetricSet& m) const {
  m.add("window.refetches", static_cast<double>(refetches), "count");
  m.add("window.fetch_mb",
        static_cast<double>(fetch_bytes) / (1024.0 * 1024.0), "MiB");
  m.add("window.stall_ms", stall_us / 1000.0, "ms");
}

void add_composition(Outcome& out, const std::string& workload,
                     const PhaseTotals& p, double wall_ms) {
  const double sim = p.sim_total();
  const auto pct = [](double part, double whole) {
    return whole > 0 ? 100.0 * part / whole : 0.0;
  };
  if (wall_ms > 0) {
    out.metrics.add("share.numeric_wall_pct", pct(p.num_wall, wall_ms), "%");
  }
  out.metrics.add("share.preprocess_sim_pct", pct(p.pre_sim, sim), "%");
  out.metrics.add("share.symbolic_sim_pct", pct(p.sym_sim, sim), "%");
  out.metrics.add("share.numeric_sim_pct", pct(p.num_sim, sim), "%");
  char line[256];
  std::snprintf(line, sizeof line,
                "composition %s: modeled time preprocess %.1f%% symbolic "
                "%.1f%% levelize %.1f%% numeric %.1f%%",
                workload.c_str(), pct(p.pre_sim, sim), pct(p.sym_sim, sim),
                pct(p.lvl_sim, sim), pct(p.num_sim, sim));
  out.report_lines.emplace_back(line);
  if (wall_ms > 0) {
    std::snprintf(line, sizeof line,
                  "composition %s: wall time preprocess %.1f%% symbolic "
                  "%.1f%% levelize %.1f%% numeric %.1f%% of %.0f ms",
                  workload.c_str(), pct(p.pre_wall, wall_ms),
                  pct(p.sym_wall, wall_ms), pct(p.lvl_wall, wall_ms),
                  pct(p.num_wall, wall_ms), wall_ms);
    out.report_lines.emplace_back(line);
  }
}

}  // namespace perfbench
