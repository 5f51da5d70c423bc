// table2_paper and table2_amd_window: the 18 Table-2 stand-ins, each
// factored and solved once per pass.
//
// table2_paper is the paper's Figure-4 GPU configuration (out-of-core
// symbolic, serial RCM + matching, NumericFormat::Auto, factors fully
// resident, fusion off). table2_amd_window is the recommended one
// (GPU-parallel minimum degree, fusion on, sparse numeric format with the
// scrolling window at a quarter of the factor footprint). Both size each matrix's device as
// fig4_end_to_end does.
//
// The untraced run times passes of SparseLU::factorize + solve. The traced
// run walks each matrix through the layers' public functions, one span per
// call with that call's DeviceStats delta, and checks the walk against the
// FactorResult of the untraced pass: same fill, same level count, same
// modeled time per phase.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

#include "bench_common.hpp"
#include "matrix/generators.hpp"
#include "numeric/numeric.hpp"
#include "preprocess/parallel/parallel_preprocess.hpp"
#include "scheduling/levelize.hpp"
#include "support/timer.hpp"
#include "symbolic/symbolic.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace e2elu;

namespace {

constexpr index_t kSuiteScale = 64;
/// Value drift of the seeded stand-ins (relative off-diagonal change).
constexpr double kDriftMagnitude = 0.05;

struct Table2Job {
  std::string abbr;
  Csr a;
  std::vector<value_t> b;
  Options opt;
};

std::vector<Table2Job> make_jobs(std::uint64_t seed, bool amd_window) {
  std::vector<Table2Job> jobs;
  std::uint64_t stream = 0;
  for (const SuiteEntry& e : table2_suite(kSuiteScale)) {
    ++stream;
    Table2Job job;
    job.abbr = e.abbr;
    job.a = append_chain(gen_value_drift(e.matrix, kDriftMagnitude, seed),
                         mix_seed(seed, stream));
    job.b = make_rhs(job.a.n, mix_seed(seed, 1000 + stream));
    const bench::PreparedMatrix p = bench::prepare(job.a);
    job.opt = bench::options_for(p, Mode::OutOfCoreGpu, kSuiteScale);
    if (amd_window) {
      job.opt.ordering = Ordering::MinDegree;
      job.opt.preprocess.mode = PreprocessMode::GpuParallel;
      job.opt.numeric.fusion.enabled = true;
      // The window streams the sparse executor's CSC storage (as in
      // ext_window); the dense format has its own resident window.
      job.opt.numeric_format = NumericFormat::SparseBinarySearch;
      job.opt.numeric.window.enabled = true;
      job.opt.numeric.window.budget_bytes =
          static_cast<std::size_t>(p.fill_nnz) *
          (sizeof(value_t) + sizeof(index_t)) / 4;
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// What the untraced pass keeps per matrix for the walk's agreement check.
struct PhaseSummary {
  bool ok = false;
  offset_t fill_nnz = 0;
  index_t num_levels = 0;
  double pre = 0, sym = 0, lvl = 0, num = 0;
};

/// One span + DeviceStats delta + wall time around a single layer call.
class LayerCall {
 public:
  LayerCall(SpanRecorder& rec, const char* name, std::uint64_t job,
            const gpusim::Device& dev)
      : dev_(dev), before_(dev.snapshot()), span_(rec, name, job) {}

  /// Ends the measurement: attaches the delta to the span and returns it.
  gpusim::DeviceStats finish() {
    wall_ms_ = timer_.millis();
    const gpusim::DeviceStats d = dev_.stats().since(before_);
    span_.attr("sim_us", d.sim_total_us());
    span_.attr("launches",
               static_cast<double>(d.host_launches + d.device_launches));
    span_.attr("kernel_ops", static_cast<double>(d.kernel_ops));
    span_.attr("h2d_bytes", static_cast<double>(d.h2d_bytes));
    span_.attr("d2h_bytes", static_cast<double>(d.d2h_bytes));
    return d;
  }
  double wall_ms() const { return wall_ms_; }
  void attr(const char* key, double v) { span_.attr(key, v); }

 private:
  const gpusim::Device& dev_;
  gpusim::DeviceStats before_;
  WallTimer timer_;
  double wall_ms_ = 0;
  ScopedSpan span_;
};

/// Per-matrix result of the traced walk: a FactorResult whose phase
/// reports the walk measured itself, plus what FactorResult has no field
/// for.
struct WalkResult {
  FactorResult f;
  numeric::NumericStats nstats;
  gpusim::DeviceStats numeric_delta;
  double solve_wall_ms = 0;
  bool solved = false;
};

/// SparseLU's pipeline for Mode::OutOfCoreGpu, one public layer call at a
/// time (no recovery loops: a fault fails the job). Host-side preprocess
/// work is modeled as SparseLU models it: counted ops at one host
/// thread's rate, plus one op per nonzero for each permutation applied
/// and for the diagonal patch.
WalkResult walk(const Table2Job& job, std::uint64_t job_id,
                SpanRecorder& rec) {
  const Options& opt = job.opt;
  gpusim::Device dev(opt.device);
  WalkResult w;
  FactorResult& f = w.f;
  const index_t n = job.a.n;
  f.n = n;
  ScopedSpan root(rec, "job", job_id);
  root.attr("n", n);

  // ---- preprocess
  const bool par = opt.preprocess.mode == PreprocessMode::GpuParallel;
  const double host_rate = opt.host.ops_per_us_per_thread;
  Csr a = job.a;
  f.row_perm.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) f.row_perm[i] = i;
  f.col_perm = f.row_perm;
  std::uint64_t other_ops = 0;
  {
    LayerCall pre(rec, "preprocess", job_id, dev);
    const auto sub = [&](PhaseReport& r, const char* name, auto&& body) {
      LayerCall call(rec, name, job_id, dev);
      std::uint64_t serial_ops = 0;
      body(serial_ops);
      const gpusim::DeviceStats d = call.finish();
      r.ops = serial_ops + d.kernel_ops;
      r.launches = d.host_launches + d.device_launches;
      r.sim_us = d.sim_total_us() + static_cast<double>(serial_ops) / host_rate;
      r.wall_ms = call.wall_ms();
    };
    const auto apply = [&](const Permutation& rp, const Permutation& cp) {
      LayerCall call(rec, "preprocess.permute", job_id, dev);
      a = permute(a, rp, cp);
      other_ops += static_cast<std::uint64_t>(a.nnz());
      call.finish();
    };
    if (opt.match_diagonal && !has_full_diagonal(a)) {
      Permutation q;
      sub(f.preprocess_match, "preprocess.match", [&](std::uint64_t& ops) {
        q = par ? preprocess::parallel_diagonal_matching(dev, a,
                                                         opt.preprocess)
                : diagonal_matching(a, &ops);
      });
      apply(f.row_perm, q);
      f.col_perm = q;
    }
    if (opt.ordering != Ordering::None) {
      Permutation p;
      sub(f.preprocess_order, "preprocess.order", [&](std::uint64_t& ops) {
        if (opt.ordering == Ordering::Rcm) {
          p = rcm_ordering(a, &ops);
        } else if (par) {
          p = preprocess::parallel_min_degree_ordering(dev, a,
                                                       opt.preprocess);
        } else {
          MinDegreeStats st;
          p = min_degree_ordering(a, opt.preprocess, &st);
          ops = st.ops;
        }
      });
      apply(p, p);
      Permutation composed(static_cast<std::size_t>(n));
      for (index_t k = 0; k < n; ++k) composed[k] = f.col_perm[p[k]];
      f.row_perm = p;
      f.col_perm = std::move(composed);
    }
    if (opt.diag_patch.has_value()) {
      LayerCall call(rec, "preprocess.patch", job_id, dev);
      patch_zero_diagonal(a, *opt.diag_patch);
      other_ops += static_cast<std::uint64_t>(a.nnz());
      call.finish();
    }
    const gpusim::DeviceStats d = pre.finish();
    f.preprocess.wall_ms = pre.wall_ms();
    f.preprocess.launches = d.host_launches + d.device_launches;
    f.preprocess.sim_us =
        f.preprocess_match.sim_us + f.preprocess_order.sim_us +
        f.preprocess_scale.sim_us + static_cast<double>(other_ops) / host_rate;
    f.preprocess.ops = f.preprocess_match.ops + f.preprocess_order.ops +
                       f.preprocess_scale.ops + other_ops;
  }

  // ---- symbolic
  symbolic::SymbolicResult sym;
  {
    LayerCall call(rec, "symbolic", job_id, dev);
    sym = symbolic::symbolic_out_of_core(dev, a, opt.symbolic);
    const gpusim::DeviceStats d = call.finish();
    call.attr("chunks", sym.num_chunks);
    f.symbolic = {d.sim_total_us(), call.wall_ms(), sym.ops,
                  d.host_launches + d.device_launches};
    f.fill_nnz = sym.filled.nnz();
    f.symbolic_chunks = sym.num_chunks;
  }

  // ---- levelize (scheduling)
  scheduling::LevelSchedule schedule;
  {
    LayerCall call(rec, "levelize", job_id, dev);
    scheduling::DependencyGraph graph;
    {
      // The graph is built on-device from the filled pattern (Algorithm
      // 5, line 14); SparseLU charges it as one cons_graph launch.
      LayerCall g(rec, "levelize.graph", job_id, dev);
      graph = scheduling::build_dependency_graph(sym.filled,
                                                 opt.dependency_rule);
      dev.launch({.name = "cons_graph",
                  .blocks = std::max<index_t>(1, (n + 255) / 256),
                  .threads_per_block = 256},
                 [&](std::int64_t blk, gpusim::KernelContext& ctx) {
                   const index_t lo = static_cast<index_t>(blk) * 256;
                   const index_t hi = std::min(n, lo + 256);
                   ctx.add_ops(static_cast<std::uint64_t>(
                       graph.adj_ptr[hi] - graph.adj_ptr[lo]));
                 });
      g.finish();
    }
    std::uint64_t ops = 0;
    {
      LayerCall lv(rec, "levelize.gpu_dynamic", job_id, dev);
      schedule = scheduling::levelize_gpu_dynamic(dev, graph);
      ops = lv.finish().kernel_ops;
    }
    const gpusim::DeviceStats d = call.finish();
    call.attr("levels", schedule.num_levels());
    f.levelize = {d.sim_total_us(), call.wall_ms(), ops,
                  d.host_launches + d.device_launches};
    f.num_levels = schedule.num_levels();
  }

  // ---- numeric
  {
    LayerCall call(rec, "numeric", job_id, dev);
    const bool use_sparse =
        opt.numeric_format == NumericFormat::SparseBinarySearch ||
        (opt.numeric_format == NumericFormat::Auto &&
         numeric::should_use_sparse_format(opt.device, n));
    numeric::FactorMatrix fm;
    {
      LayerCall b(rec, "numeric.build", job_id, dev);
      fm = numeric::FactorMatrix::build(sym.filled, a);
      b.finish();
    }
    {
      LayerCall x(rec, use_sparse ? "numeric.sparse_bsearch"
                                  : "numeric.dense_window",
                  job_id, dev);
      w.nstats = use_sparse
                     ? numeric::factorize_sparse_bsearch(dev, fm, schedule,
                                                         opt.numeric)
                     : numeric::factorize_dense_window(dev, fm, schedule,
                                                       opt.numeric);
      w.numeric_delta = x.finish();
    }
    {
      LayerCall x(rec, "numeric.extract_lu", job_id, dev);
      numeric::extract_lu(fm, f.l, f.u);
      x.finish();
    }
    const gpusim::DeviceStats d = call.finish();
    f.numeric = {d.sim_total_us(), call.wall_ms(), w.nstats.ops,
                 d.host_launches + d.device_launches};
    f.used_sparse_numeric = use_sparse;
    f.fused_levels = w.nstats.fused_levels;
  }
  f.device_stats = dev.stats();

  // ---- solve
  {
    LayerCall call(rec, "solve", job_id, dev);
    const std::vector<value_t> x = SparseLU::solve(f, job.b);
    w.solved = solves(job.a, x, job.b);
    call.finish();
    w.solve_wall_ms = call.wall_ms();
  }
  return w;
}

bool nearly_equal(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Empty when the walk matches SparseLU's FactorResult for the matrix.
std::string disagreement(const FactorResult& w, const PhaseSummary& s) {
  if (w.fill_nnz != s.fill_nnz) return "fill_nnz";
  if (w.num_levels != s.num_levels) return "num_levels";
  if (!nearly_equal(w.preprocess.sim_us, s.pre)) return "preprocess sim";
  if (!nearly_equal(w.symbolic.sim_us, s.sym)) return "symbolic sim";
  if (!nearly_equal(w.levelize.sim_us, s.lvl)) return "levelize sim";
  if (!nearly_equal(w.numeric.sim_us, s.num)) return "numeric sim";
  return "";
}

}  // namespace

std::uint64_t table2_digest(std::uint64_t seed, bool amd_window) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Table2Job& job : make_jobs(seed, amd_window)) {
    h = digest(job.b, digest(job.a, h));
  }
  return h;
}

Outcome run_table2(const RunConfig& cfg, bool amd_window, SpanRecorder& rec) {
  Outcome out;
  std::vector<Table2Job> jobs;
  const double setup_s =
      timed_setup([&] { jobs = make_jobs(cfg.seed, amd_window); });

  // ---- untraced passes: SparseLU end to end.
  std::vector<PhaseSummary> summary(jobs.size());
  double pass_sim_us = 0;
  const auto pass = [&] {
    pass_sim_us = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ++out.attempted;
      PhaseSummary s;
      try {
        const FactorResult f = SparseLU(jobs[i].opt).factorize(jobs[i].a);
        const std::vector<value_t> x = SparseLU::solve(f, jobs[i].b);
        s = {solves(jobs[i].a, x, jobs[i].b), f.fill_nnz, f.num_levels,
             f.preprocess.sim_us, f.symbolic.sim_us, f.levelize.sim_us,
             f.numeric.sim_us};
        pass_sim_us += f.total_sim_us();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[perfbench] %s failed: %s\n",
                     jobs[i].abbr.c_str(), e.what());
      }
      if (!s.ok) ++out.failed;
      summary[i] = s;
    }
  };
  // table2_amd_window's pass (8-10 s) fits twice in a 20 s run only on a
  // fast host; two passes always keep its wall_s from switching between a
  // lone first pass and a two-pass median. table2_paper's pass (16-18 s)
  // fills a run by itself.
  const std::size_t min_passes = !cfg.trace && amd_window ? 2 : 1;
  const std::vector<double> walls =
      timed_passes(cfg.trace ? 0 : cfg.seconds, pass, min_passes);

  if (!cfg.trace) {
    out.metrics.add("setup_s", setup_s, "s");
    out.metrics.add("sim_ms", pass_sim_us / 1000.0, "ms");
    out.metrics.add("wall_s", median(walls), "s");
    out.metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  // ---- traced walk through the layers' public functions.
  PhaseTotals phases;
  WindowTotals window;
  GpuTotals gpu;
  double solve_ms = 0;
  WallTimer walk_timer;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ++out.attempted;
    try {
      WalkResult w = walk(jobs[i], i + 1, rec);
      if (!w.solved) ++out.failed;
      phases.add(w.f);
      phases.num_kernel_us += w.numeric_delta.sim_kernel_us;
      phases.num_occupancy_us += w.numeric_delta.sim_occupancy_us;
      window.refetches += w.nstats.window_refetches;
      window.fetch_bytes += w.nstats.window_fetch_bytes;
      window.stall_us += w.nstats.window_stall_us;
      gpu.add(w.f.device_stats);
      solve_ms += w.solve_wall_ms;
      if (summary[i].ok) {
        const std::string what = disagreement(w.f, summary[i]);
        if (!what.empty()) {
          out.check_failures.push_back(jobs[i].abbr +
                                       ": layer walk disagrees with "
                                       "FactorResult on " + what);
        }
      }
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "[perfbench] walk of %s failed: %s\n",
                   jobs[i].abbr.c_str(), e.what());
    }
  }
  const double walk_ms = walk_timer.millis();

  phases.emit(out.metrics);
  window.emit(out.metrics);
  out.metrics.add("solve.wall_ms", solve_ms, "ms");
  gpu.emit(out.metrics);
  out.metrics.add("trace.overhead_pct",
                  100.0 * (walk_ms / 1000.0 - walls.front()) / walls.front(),
                  "%");
  add_composition(out, cfg.workload, phases, walk_ms);
  return out;
}

}  // namespace perfbench
