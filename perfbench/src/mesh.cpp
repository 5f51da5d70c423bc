// mesh_outofcore: the large-matrix regime.
//
// One seeded blocked-planar mesh (120k rows, launch scale 256, as in
// ext_shard) is factored by a ShardedFactorizer on a 4-member DeviceGroup
// and solved with the sharded solves. Two Table-4 stand-ins (HT20, D24,
// values drifted by the seed) are factored on one device sized to half
// their factor footprint, with CpuBaseline symbolic and the windowed
// sparse numeric executor, as in ext_window — the window is forced by
// memory here, not by a budget. Symbolic dominates modeled time.

#include <cstdio>
#include <exception>

#include "bench_common.hpp"
#include "matrix/generators.hpp"
#include "sharding/sharded_factorizer.hpp"
#include "support/timer.hpp"
#include "trace/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace e2elu;

namespace {

constexpr index_t kMeshN = 120000;
constexpr index_t kMeshBlock = 150;
constexpr index_t kMeshWindow = 16;
constexpr double kMeshDensity = 6.0;
constexpr index_t kMeshScale = 256;
constexpr std::size_t kMemberMemory = 512u << 20;
constexpr index_t kTable4Scale = 64;
constexpr double kDriftMagnitude = 0.05;
/// The Table-4 stand-ins factored out of core (the two smallest).
const char* const kTable4[] = {"HT20", "D24"};

struct MeshInputs {
  Csr mesh;
  std::vector<value_t> mesh_b;
  std::vector<Csr> huge;
  std::vector<std::vector<value_t>> huge_b;
  std::vector<std::string> huge_abbr;
  std::vector<Options> huge_opt;
};

Options mesh_options() {
  Options opt;
  opt.device = bench::scaled_spec(kMemberMemory, kMeshScale);
  opt.mode = Mode::OutOfCoreGpuDynamic;
  opt.numeric_format = NumericFormat::SparseBinarySearch;
  opt.ordering = Ordering::None;
  opt.match_diagonal = false;
  return opt;
}

sharding::ShardingOptions group_of(int devices) {
  sharding::ShardingOptions s;
  s.num_devices = devices;
  return s;
}

MeshInputs make_inputs(std::uint64_t seed) {
  MeshInputs in;
  in.mesh = gen_blocked_planar(kMeshN, kMeshBlock, kMeshDensity, kMeshWindow,
                               mix_seed(seed, 1));
  in.mesh_b = make_rhs(in.mesh.n, mix_seed(seed, 2));
  std::uint64_t stream = 10;
  for (const SuiteEntry& e : table4_suite(kTable4Scale)) {
    if (e.abbr != kTable4[0] && e.abbr != kTable4[1]) continue;
    Csr a = gen_value_drift(e.matrix, kDriftMagnitude, seed);
    const bench::PreparedMatrix p = bench::prepare(a);
    const std::size_t footprint =
        static_cast<std::size_t>(p.fill_nnz) *
        (sizeof(value_t) + sizeof(index_t));
    Options opt;
    opt.mode = Mode::CpuBaseline;
    opt.device = bench::scaled_spec(footprint / 2, kTable4Scale);
    opt.numeric_format = NumericFormat::SparseBinarySearch;
    opt.numeric.window.enabled = true;
    opt.numeric.window.budget_bytes = 0;  // whatever is free at entry
    opt.numeric.window.prefetch_ahead = 2;
    in.huge_b.push_back(make_rhs(a.n, mix_seed(seed, ++stream)));
    in.huge.push_back(std::move(a));
    in.huge_abbr.push_back(e.abbr);
    in.huge_opt.push_back(opt);
  }
  return in;
}

/// Window counters accumulate in the global metrics registry; a run's
/// numbers are deltas between snapshots.
WindowTotals window_counters() {
  auto& reg = trace::MetricsRegistry::global();
  WindowTotals w;
  w.refetches = reg.counter("numeric.window.refetches").value();
  w.fetch_bytes = reg.counter("numeric.window.fetch_bytes").value();
  w.stall_us = static_cast<double>(reg.counter("numeric.window.stall_us").value());
  return w;
}

/// Everything one pass measured.
struct PassResult {
  double sim_us = 0;
  PhaseTotals phases;
  GpuTotals gpu;
  WindowTotals window;
  sharding::ShardReport shard;
  double solve_ms = 0;
};

PassResult run_pass(const MeshInputs& in, Outcome& out, SpanRecorder& rec) {
  PassResult r;
  std::uint64_t job_id = 0;
  {
    ++out.attempted;
    ScopedSpan span(rec, "sharded.factorize", ++job_id);
    try {
      sharding::ShardedFactorizer sharded(mesh_options(), group_of(4));
      const FactorResult f = sharded.factorize(in.mesh, r.shard);
      span.attr("sim_us", f.total_sim_us());
      span.attr("devices_used", r.shard.devices_used);
      r.sim_us += f.total_sim_us();
      r.phases.add(f);
      for (const gpusim::DeviceStats& d : r.shard.device_deltas) {
        r.phases.num_kernel_us += d.sim_kernel_us;
        r.phases.num_occupancy_us += d.sim_occupancy_us;
      }
      r.gpu.add(f.device_stats);
      WallTimer t;
      ScopedSpan solve(rec, "solve", job_id);
      const std::vector<value_t> x = sharded.solve(f, in.mesh_b);
      r.solve_ms += t.millis();
      if (!solves(in.mesh, x, in.mesh_b)) ++out.failed;
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "[perfbench] sharded mesh failed: %s\n", e.what());
    }
  }
  for (std::size_t i = 0; i < in.huge.size(); ++i) {
    ++out.attempted;
    ScopedSpan span(rec, "factorize", ++job_id);
    try {
      const WindowTotals before = window_counters();
      const FactorResult f = SparseLU(in.huge_opt[i]).factorize(in.huge[i]);
      const WindowTotals after = window_counters();
      r.window.refetches += after.refetches - before.refetches;
      r.window.fetch_bytes += after.fetch_bytes - before.fetch_bytes;
      r.window.stall_us += after.stall_us - before.stall_us;
      span.attr("sim_us", f.total_sim_us());
      r.sim_us += f.total_sim_us();
      r.phases.add(f);
      r.gpu.add(f.device_stats);
      WallTimer t;
      ScopedSpan solve(rec, "solve", job_id);
      const std::vector<value_t> x = SparseLU::solve(f, in.huge_b[i]);
      r.solve_ms += t.millis();
      if (!solves(in.huge[i], x, in.huge_b[i])) ++out.failed;
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "[perfbench] %s failed: %s\n",
                   in.huge_abbr[i].c_str(), e.what());
    }
  }
  return r;
}

}  // namespace

std::uint64_t mesh_digest(std::uint64_t seed) {
  const MeshInputs in = make_inputs(seed);
  std::uint64_t h = digest(in.mesh_b, digest(in.mesh));
  for (std::size_t i = 0; i < in.huge.size(); ++i) {
    h = digest(in.huge_b[i], digest(in.huge[i], h));
  }
  return h;
}

Outcome run_mesh(const RunConfig& cfg, SpanRecorder& rec) {
  Outcome out;
  MeshInputs in;
  const double setup_s = timed_setup([&] { in = make_inputs(cfg.seed); });

  SpanRecorder off(false);
  PassResult last;
  const std::vector<double> walls = timed_passes(
      cfg.trace ? 0 : cfg.seconds, [&] { last = run_pass(in, out, off); });
  if (!cfg.trace) {
    out.metrics.add("setup_s", setup_s, "s");
    out.metrics.add("sim_ms", last.sim_us / 1000.0, "ms");
    out.metrics.add("wall_s", median(walls), "s");
    out.metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  WallTimer traced_timer;
  const PassResult p = run_pass(in, out, rec);
  const double traced_s = traced_timer.seconds();

  // Measured speedup: the same mesh on a one-member group.
  double one_device_us = 0;
  {
    ScopedSpan span(rec, "sharded.factorize.1dev", 0);
    sharding::ShardedFactorizer one(mesh_options(), group_of(1));
    sharding::ShardReport rep;
    one.factorize(in.mesh, rep);
    one_device_us = rep.numeric_elapsed_us;
  }

  auto& m = out.metrics;
  p.phases.emit(m);
  p.window.emit(m);
  m.add("solve.wall_ms", p.solve_ms, "ms");
  m.add("sharding.devices_used", p.shard.devices_used, "count");
  m.add("sharding.balance", p.shard.balance, "ratio");
  m.add("sharding.cross_edges", static_cast<double>(p.shard.cross_edges),
        "count");
  m.add("sharding.peer_mb",
        static_cast<double>(p.shard.peer.bytes) / (1024.0 * 1024.0), "MiB");
  m.add("sharding.numeric_elapsed_ms", p.shard.numeric_elapsed_us / 1000.0,
        "ms");
  m.add("sharding.predicted_speedup", p.shard.predicted_speedup, "x");
  m.add("sharding.measured_speedup",
        p.shard.numeric_elapsed_us > 0
            ? one_device_us / p.shard.numeric_elapsed_us
            : 0.0,
        "x");
  p.gpu.emit(m);
  m.add("trace.overhead_pct", 100.0 * (traced_s - walls.front()) / walls.front(),
        "%");
  add_composition(out, cfg.workload, p.phases, traced_s * 1000.0);
  return out;
}

}  // namespace perfbench
