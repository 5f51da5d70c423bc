#include "core/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/pipeline_stages.hpp"
#include "matrix/convert.hpp"
#include "preprocess/parallel/parallel_preprocess.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu {

SparseLU::SparseLU(Options options) : options_(std::move(options)) {}

namespace {

Permutation identity_permutation(index_t n) {
  Permutation p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  return p;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::OutOfCoreGpu: return "out_of_core";
    case Mode::OutOfCoreGpuDynamic: return "out_of_core_dynamic";
    case Mode::UnifiedMemoryGpu: return "unified_memory";
    case Mode::UnifiedMemoryGpuNoPrefetch: return "unified_memory_no_prefetch";
    case Mode::CpuBaseline: return "cpu_baseline";
  }
  return "?";
}

std::uint64_t launch_count(const gpusim::Device& dev) {
  return dev.stats().host_launches + dev.stats().device_launches;
}

}  // namespace

FactorResult SparseLU::factorize(const Csr& a_in) {
  return factorize_impl(a_in, nullptr);
}

FactorResult SparseLU::factorize(const Csr& a_in,
                                 FactorizationArtifacts& artifacts) {
  return factorize_impl(a_in, &artifacts);
}

FactorResult SparseLU::factorize_impl(const Csr& a_in,
                                      FactorizationArtifacts* artifacts) {
  gpusim::Device dev(options_.device);
  if (options_.pool != nullptr) dev.use_pool(*options_.pool);
  FactorResult res;
  trace::Span span_root("factorize", dev,
                        {{"n", a_in.n},
                         {"nnz", a_in.nnz()},
                         {"mode", mode_name(options_.mode)}});
  detail::FrontEnd fe = detail::run_front_end(dev, options_, a_in, res);
  // Only a shard planner reads the dependency graph: free it before the
  // numeric phase builds the factor storage.
  fe.graph = {};

  // ---- Numeric factorization (§3.4).
  WallTimer t_num;
  const double sim_before = dev.stats().sim_total_us();
  const std::uint64_t launches_before = launch_count(dev);
  bool use_sparse;
  switch (options_.numeric_format) {
    case NumericFormat::DenseWindow:
      use_sparse = false;
      break;
    case NumericFormat::SparseBinarySearch:
      use_sparse = true;
      break;
    case NumericFormat::Auto:
    default:
      use_sparse = numeric::should_use_sparse_format(options_.device, a_in.n);
      break;
  }
  numeric::FactorMatrix fm = detail::run_numeric_attempts(
      dev, options_, fe, res,
      [&](numeric::FactorMatrix& m) {
        trace::Span span_num("numeric", dev,
                             {{"format", use_sparse ? "sparse" : "dense"},
                              {"levels", fe.schedule.num_levels()}});
        const numeric::NumericStats nstats =
            use_sparse ? numeric::factorize_sparse_bsearch(
                             dev, m, fe.schedule, options_.numeric)
                       : numeric::factorize_dense_window(
                             dev, m, fe.schedule, options_.numeric);
        span_num.attr("fused_levels", nstats.fused_levels);
        return nstats;
      },
      [&](FaultKind kind, const std::exception&, bool budget_left) {
        if (!budget_left) return false;
        const char* counter = kind == FaultKind::DeviceOutOfMemory
                                  ? "recovery.numeric.retry"
                                  : "recovery.launch_retry";
        if (kind == FaultKind::DeviceOutOfMemory && !use_sparse) {
          // The dense window is the memory-hungry format; the sparse
          // binary-search path (§3.4) has no resident-window allocation,
          // so falling back to it is the structural answer to numeric OOM.
          use_sparse = true;
          counter = "recovery.numeric.format_fallback";
        }
        trace::MetricsRegistry::global().counter(counter).add(1);
        return true;
      });
  res.used_sparse_numeric = use_sparse;
  res.numeric.sim_us = dev.stats().sim_total_us() - sim_before;
  res.numeric.launches = launch_count(dev) - launches_before;
  res.numeric.wall_ms = t_num.millis();

  {
    TRACE_SPAN("extract_lu", dev);
    numeric::extract_lu(fm, res.l, res.u);
  }
  res.device_stats = dev.stats();
  if (artifacts != nullptr) {
    artifacts->filled = std::move(fe.filled);
    artifacts->schedule = std::move(fe.schedule);
    artifacts->use_sparse_numeric = use_sparse;
  }
  return res;
}

namespace detail {

FrontEnd run_front_end(gpusim::Device& dev, const Options& options,
                       const Csr& a_in, FactorResult& res) {
  validate(a_in);
  E2ELU_CHECK_MSG(a_in.n > 0, "empty matrix");
  E2ELU_CHECK_MSG(!a_in.values.empty(), "matrix has no values");
  res.n = a_in.n;
  const index_t n = a_in.n;
  FrontEnd fe;

  // ---- Pre-processing (Figure 2, first box). Serial mode is the
  // paper's host-serial stage, modeled at a single host thread's
  // throughput; GpuParallel routes matching / minimum-degree / scaling
  // through the device (preprocess/parallel/). The permutation
  // application and diagonal patch stay host-side in both modes and are
  // accounted as the preprocess remainder.
  const bool par_pre =
      options.preprocess.mode == PreprocessMode::GpuParallel;
  const double host_thread_rate = options.host.ops_per_us_per_thread;
  WallTimer t_pre;
  Csr& a = fe.a;
  a = a_in;
  res.row_perm = identity_permutation(n);
  res.col_perm = identity_permutation(n);
  std::uint64_t pre_other_ops = 0;
  {
    TRACE_SPAN("preprocess", dev);
    // Sub-phase accounting: serial steps report counted ops at the
    // single-thread host rate; parallel steps report device deltas.
    const auto run_subphase = [&](PhaseReport& report, auto&& body) {
      WallTimer t;
      const double sim0 = dev.stats().sim_total_us();
      const std::uint64_t ops0 = dev.stats().kernel_ops;
      const std::uint64_t launches0 = launch_count(dev);
      std::uint64_t serial_ops = 0;
      body(serial_ops);
      report.ops =
          serial_ops + (dev.stats().kernel_ops - ops0);
      report.launches = launch_count(dev) - launches0;
      report.sim_us = (dev.stats().sim_total_us() - sim0) +
                      static_cast<double>(serial_ops) / host_thread_rate;
      report.wall_ms = t.millis();
    };

    if (options.preprocess.equilibrate && !a.values.empty()) {
      run_subphase(res.preprocess_scale, [&](std::uint64_t& ops) {
        res.scaling = par_pre ? preprocess::parallel_equilibrate(dev, a)
                              : equilibrate(a, &ops);
      });
    }
    if (options.match_diagonal && !has_full_diagonal(a)) {
      run_subphase(res.preprocess_match, [&](std::uint64_t& ops) {
        const Permutation q =
            par_pre ? preprocess::parallel_diagonal_matching(
                          dev, a, options.preprocess)
                    : diagonal_matching(a, &ops);
        a = permute(a, res.row_perm, q);
        res.col_perm = q;
        pre_other_ops += static_cast<std::uint64_t>(a.nnz());  // permute
      });
    }
    if (options.ordering != Ordering::None) {
      run_subphase(res.preprocess_order, [&](std::uint64_t& ops) {
        Permutation p;
        if (options.ordering == Ordering::Rcm) {
          p = rcm_ordering(a, &ops);
        } else if (par_pre) {
          p = preprocess::parallel_min_degree_ordering(dev, a,
                                                       options.preprocess);
        } else {
          MinDegreeStats st;
          p = min_degree_ordering(a, options.preprocess, &st);
          ops = st.ops;
        }
        a = permute(a, p, p);
        pre_other_ops += static_cast<std::uint64_t>(a.nnz());  // permute
        // a(i,j) = a_in(p[i], col_perm[p[j]]).
        Permutation composed(static_cast<std::size_t>(n));
        for (index_t k = 0; k < n; ++k) composed[k] = res.col_perm[p[k]];
        res.row_perm = p;
        res.col_perm = std::move(composed);
      });
    }
    if (options.diag_patch.has_value()) {
      patch_zero_diagonal(a, *options.diag_patch);
      pre_other_ops += static_cast<std::uint64_t>(a.nnz());
    }
  }
  res.preprocess.wall_ms = t_pre.millis();
  res.preprocess.ops = res.preprocess_match.ops + res.preprocess_order.ops +
                       res.preprocess_scale.ops + pre_other_ops;
  res.preprocess.launches = res.preprocess_match.launches +
                            res.preprocess_order.launches +
                            res.preprocess_scale.launches;
  res.preprocess.sim_us =
      res.preprocess_match.sim_us + res.preprocess_order.sim_us +
      res.preprocess_scale.sim_us +
      static_cast<double>(pre_other_ops) / host_thread_rate;

  // ---- Symbolic factorization (§3.2).
  WallTimer t_sym;
  double sim_before = dev.stats().sim_total_us();
  std::uint64_t launches_before = launch_count(dev);
  symbolic::SymbolicResult sym;
  bool symbolic_on_device = options.mode != Mode::CpuBaseline;
  {
    trace::Span span_sym("symbolic", dev, {{"mode", mode_name(options.mode)}});
    const int max_attempts =
        options.recovery.enabled ? options.recovery.max_symbolic_attempts : 1;
    for (int attempt = 0;; ++attempt) {
      try {
        if (attempt == 0) {
          switch (options.mode) {
            case Mode::OutOfCoreGpu:
              sym = symbolic::symbolic_out_of_core(dev, a, options.symbolic);
              break;
            case Mode::OutOfCoreGpuDynamic:
              sym = symbolic::symbolic_out_of_core_dynamic(dev, a,
                                                           options.symbolic);
              break;
            case Mode::UnifiedMemoryGpu:
              sym = symbolic::symbolic_unified_memory(dev, a, /*prefetch=*/true,
                                                      options.symbolic);
              break;
            case Mode::UnifiedMemoryGpuNoPrefetch:
              sym = symbolic::symbolic_unified_memory(
                  dev, a, /*prefetch=*/false, options.symbolic);
              break;
            case Mode::CpuBaseline:
              sym = symbolic::symbolic_cpu(a);
              break;
          }
        } else {
          // Recovery: re-plan through the Algorithm 4 multipart planner
          // with an escalating part count. Every doubling bounds more
          // rows' queues, shrinking the per-row scratch the failed
          // attempt could not fit; the result pattern is identical.
          sym = symbolic::symbolic_out_of_core_multipart(
              dev, a, static_cast<index_t>(1) << attempt, options.symbolic);
          symbolic_on_device = true;
        }
        break;
      } catch (const gpusim::OutOfDeviceMemory& e) {
        if (attempt + 1 >= max_attempts) {
          throw FactorError(FaultKind::DeviceOutOfMemory, "symbolic",
                            e.what());
        }
        ++res.symbolic_replans;
        ++res.recovery_retries;
        trace::MetricsRegistry::global()
            .counter("recovery.symbolic.replan")
            .add(1);
      } catch (const gpusim::LaunchFailure& e) {
        if (attempt + 1 >= max_attempts) {
          throw FactorError(FaultKind::LaunchFailed, "symbolic", e.what());
        }
        ++res.recovery_retries;
        trace::MetricsRegistry::global().counter("recovery.launch_retry").add(1);
      }
    }
    res.symbolic.sim_us = symbolic_on_device
                              ? dev.stats().sim_total_us() - sim_before
                              : options.host.time_us(sym.ops);
    span_sym.attr("chunks", sym.num_chunks);
    span_sym.attr("fill_nnz", sym.filled.nnz());
  }
  res.symbolic.wall_ms = t_sym.millis();
  res.symbolic.ops = sym.ops;
  res.symbolic.launches = launch_count(dev) - launches_before;
  res.fill_nnz = sym.filled.nnz();
  res.symbolic_chunks = sym.num_chunks;
  fe.filled = std::move(sym.filled);

  // ---- Levelization (§3.3).
  WallTimer t_lvl;
  sim_before = dev.stats().sim_total_us();
  launches_before = launch_count(dev);
  {
    trace::Span span_lvl("levelize", dev);
    // Levelization allocates nothing persistent, so one straight retry
    // covers transient (injected) faults before giving up.
    const int max_attempts = options.recovery.enabled ? 2 : 1;
    for (int attempt = 0;; ++attempt) {
      try {
        fe.graph = scheduling::build_dependency_graph(fe.filled,
                                                      options.dependency_rule);
        const scheduling::DependencyGraph& graph = fe.graph;
        if (options.mode == Mode::CpuBaseline) {
          fe.schedule = scheduling::levelize_sequential(graph);
          res.levelize.ops =
              static_cast<std::uint64_t>(graph.n) +
              static_cast<std::uint64_t>(graph.num_edges());
          // Previous work runs levelization single-threaded on the host.
          res.levelize.sim_us = static_cast<double>(res.levelize.ops) /
                                options.host.ops_per_us_per_thread;
        } else {
          // cons_graph (Algorithm 5 line 14): the dependency graph is built
          // on-device from the filled pattern.
          dev.launch({.name = "cons_graph",
                      .blocks = std::max<index_t>(1, (n + 255) / 256),
                      .threads_per_block = 256},
                     [&](std::int64_t b, gpusim::KernelContext& ctx) {
                       const index_t lo = static_cast<index_t>(b) * 256;
                       const index_t hi = std::min(n, lo + 256);
                       ctx.add_ops(static_cast<std::uint64_t>(
                           graph.adj_ptr[hi] - graph.adj_ptr[lo]));
                     });
          const std::uint64_t ops_before_lvl = dev.stats().kernel_ops;
          fe.schedule = scheduling::levelize_gpu_dynamic(dev, graph);
          res.levelize.ops = dev.stats().kernel_ops - ops_before_lvl;
          res.levelize.sim_us = dev.stats().sim_total_us() - sim_before;
        }
        break;
      } catch (const gpusim::OutOfDeviceMemory& e) {
        if (attempt + 1 >= max_attempts) {
          throw FactorError(FaultKind::DeviceOutOfMemory, "levelize",
                            e.what());
        }
        ++res.recovery_retries;
        trace::MetricsRegistry::global()
            .counter("recovery.levelize.retry")
            .add(1);
      } catch (const gpusim::LaunchFailure& e) {
        if (attempt + 1 >= max_attempts) {
          throw FactorError(FaultKind::LaunchFailed, "levelize", e.what());
        }
        ++res.recovery_retries;
        trace::MetricsRegistry::global().counter("recovery.launch_retry").add(1);
      }
    }
    span_lvl.attr("levels", fe.schedule.num_levels());
  }
  res.levelize.wall_ms = t_lvl.millis();
  res.levelize.launches = launch_count(dev) - launches_before;
  res.num_levels = fe.schedule.num_levels();
  return fe;
}

numeric::FactorMatrix run_numeric_attempts(gpusim::Device& dev,
                                           const Options& options,
                                           const FrontEnd& fe,
                                           FactorResult& res,
                                           const NumericExecutor& execute,
                                           const DeviceFaultResponse& on_fault) {
  const int max_numeric =
      options.recovery.enabled ? options.recovery.max_numeric_attempts : 1;
  numeric::FactorMatrix fm;
  std::vector<index_t> perturbed_cols;
  index_t last_zero_col = -1;
  for (int attempt = 0;; ++attempt) {
    // A failed elimination leaves As partially updated, so every attempt
    // rebuilds the values from A; perturbed diagonals are re-applied on
    // top of the fresh scatter.
    {
      TRACE_SPAN("numeric.build", dev);
      fm = numeric::FactorMatrix::build(fe.filled, fe.a);
    }
    const value_t bump = options.diag_patch.value_or(value_t{1});
    for (const index_t c : perturbed_cols) {
      fm.csc.values[static_cast<std::size_t>(fm.diag_pos[c])] += bump;
    }
    const bool budget_left = attempt + 1 < max_numeric;
    const auto device_fault = [&](FaultKind kind, const std::exception& e) {
      if (!on_fault(kind, e, budget_left)) {
        throw FactorError(kind, "numeric", e.what());
      }
      ++res.recovery_retries;
    };
    try {
      const numeric::NumericStats nstats = execute(fm);
      res.numeric.ops = nstats.ops;
      res.fused_levels = nstats.fused_levels;
      return fm;
    } catch (const numeric::ZeroPivotError& e) {
      if (!budget_left) {
        throw FactorError(FaultKind::ZeroPivot, "numeric", e.what(),
                          e.column());
      }
      ++res.recovery_retries;
      if (e.column() == last_zero_col) {
        // The same column failed twice, so this is no transient fault:
        // bump its starting diagonal (the §4.4 patch value) and re-run —
        // the refactor engine's instability fallback, extended to
        // first-time factorization.
        perturbed_cols.push_back(e.column());
        ++res.pivot_perturbations;
        trace::MetricsRegistry::global()
            .counter("recovery.numeric.pivot_perturb")
            .add(1);
      } else {
        last_zero_col = e.column();
        trace::MetricsRegistry::global()
            .counter("recovery.numeric.retry")
            .add(1);
      }
    } catch (const gpusim::OutOfDeviceMemory& e) {
      device_fault(FaultKind::DeviceOutOfMemory, e);
    } catch (const gpusim::LaunchFailure& e) {
      device_fault(FaultKind::LaunchFailed, e);
    }
  }
}

}  // namespace detail

void lower_solve_unit(const Csr& l, std::vector<value_t>& x) {
  for (index_t i = 0; i < l.n; ++i) {
    value_t acc = x[i];
    for (offset_t k = l.row_ptr[i]; k < l.row_ptr[i + 1]; ++k) {
      const index_t j = l.col_idx[k];
      if (j < i) acc -= l.values[k] * x[j];
    }
    x[i] = acc;  // unit diagonal
  }
}

void upper_solve(const Csr& u, std::vector<value_t>& x) {
  for (index_t i = u.n; i-- > 0;) {
    value_t acc = x[i];
    value_t diag = 0;
    for (offset_t k = u.row_ptr[i]; k < u.row_ptr[i + 1]; ++k) {
      const index_t j = u.col_idx[k];
      if (j == i) {
        diag = u.values[k];
      } else if (j > i) {
        acc -= u.values[k] * x[j];
      }
    }
    E2ELU_CHECK_MSG(diag != value_t{0}, "singular U at row " << i);
    x[i] = acc / diag;
  }
}

std::vector<value_t> SparseLU::solve(const FactorResult& f,
                                     std::span<const value_t> b) {
  E2ELU_CHECK(b.size() == static_cast<std::size_t>(f.n));
  // Factorized B(i,j) = As(row_perm[i], col_perm[j]) = (LU)(i,j), where
  // As = Dr A Dc when equilibration ran (Dr, Dc diagonal) and As = A
  // otherwise. A x = b <=> As z = Dr b with x = Dc z, so:
  //   c[i] = row_scale[row_perm[i]] * b[row_perm[i]],
  //   x[col_perm[j]] = col_scale[col_perm[j]] * y[j].
  const bool scaled = f.scaling.enabled();
  std::vector<value_t> y(static_cast<std::size_t>(f.n));
  for (index_t i = 0; i < f.n; ++i) {
    const index_t i0 = f.row_perm[i];
    y[i] = scaled ? f.scaling.row_scale[i0] * b[i0] : b[i0];
  }
  lower_solve_unit(f.l, y);
  upper_solve(f.u, y);
  std::vector<value_t> x(static_cast<std::size_t>(f.n));
  for (index_t j = 0; j < f.n; ++j) {
    const index_t j0 = f.col_perm[j];
    x[j0] = scaled ? f.scaling.col_scale[j0] * y[j] : y[j];
  }
  return x;
}

double SparseLU::residual(const Csr& a, std::span<const value_t> x,
                          std::span<const value_t> b) {
  E2ELU_CHECK(x.size() == static_cast<std::size_t>(a.n));
  E2ELU_CHECK(b.size() == static_cast<std::size_t>(a.n));
  double err2 = 0, b2 = 0;
  for (index_t i = 0; i < a.n; ++i) {
    value_t acc = 0;
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) acc += vals[k] * x[cols[k]];
    err2 += static_cast<double>((acc - b[i]) * (acc - b[i]));
    b2 += static_cast<double>(b[i] * b[i]);
  }
  return b2 == 0 ? std::sqrt(err2) : std::sqrt(err2 / b2);
}

}  // namespace e2elu
