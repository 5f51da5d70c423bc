#include "sharding/sharded_factorizer.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "numeric/column_kernel.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::sharding {

namespace {

Permutation identity_permutation(index_t n) {
  Permutation p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  return p;
}

constexpr std::uint64_t kPerUpdateBytes = sizeof(value_t) + sizeof(index_t);

}  // namespace

ShardedFactorizer::ShardedFactorizer(Options base, ShardingOptions sharding)
    : base_(std::move(base)),
      sharding_(sharding),
      group_(base_.device, sharding.num_devices, sharding.peer) {
  if (base_.pool != nullptr) group_.use_pool(*base_.pool);
}

FactorResult ShardedFactorizer::factorize(const Csr& a) {
  return factorize_impl(a, report_);
}

FactorResult ShardedFactorizer::factorize(const Csr& a, ShardReport& report) {
  FactorResult res = factorize_impl(a, report);
  report_ = report;
  return res;
}

numeric::NumericStats ShardedFactorizer::run_numeric(
    numeric::FactorMatrix& m, const scheduling::LevelSchedule& s,
    const numeric::LevelPlan& lp, const ShardPlan& plan,
    const std::vector<int>& active, int* failed_device, ShardReport& report) {
  *failed_device = -1;
  numeric::NumericStats stats;
  const int nd = static_cast<int>(active.size());
  E2ELU_CHECK_MSG(plan.num_devices == nd, "shard plan does not match devices");

  // Shard residency: each member allocates and receives its columns'
  // footprint. The allocation and upload are the member's fault surface —
  // *failed_device names whom the recovery loop must drop if this throws.
  std::vector<gpusim::RawDeviceAllocation> shard_mem;
  shard_mem.reserve(static_cast<std::size_t>(nd));
  for (int p = 0; p < nd; ++p) {
    gpusim::Device& dev = group_.device(active[static_cast<std::size_t>(p)]);
    *failed_device = active[static_cast<std::size_t>(p)];
    const std::size_t bytes =
        static_cast<std::size_t>(plan.device_bytes[static_cast<std::size_t>(p)]);
    shard_mem.emplace_back(dev, bytes);
    dev.copy_h2d(bytes);
  }
  *failed_device = -1;

  // One stream per member: each device's level kernels queue on its own
  // timeline; cross-shard dependencies order them via the peer copies.
  std::vector<std::unique_ptr<gpusim::Stream>> streams;
  std::vector<std::string> names;  // stable storage for LaunchConfig::name
  for (int p = 0; p < nd; ++p) {
    streams.push_back(std::make_unique<gpusim::Stream>(
        group_.device(active[static_cast<std::size_t>(p)])));
    names.push_back("shard_numeric_dev" +
                    std::to_string(active[static_cast<std::size_t>(p)]));
  }

  std::vector<std::uint64_t> dev_ops(static_cast<std::size_t>(nd));
  std::vector<index_t> dev_width(static_cast<std::size_t>(nd));
  std::vector<std::uint64_t> peer_bytes(static_cast<std::size_t>(nd) *
                                        static_cast<std::size_t>(nd));

  for (index_t l = 0; l < s.num_levels(); ++l) {
    std::fill(dev_ops.begin(), dev_ops.end(), 0);
    std::fill(dev_width.begin(), dev_width.end(), 0);
    std::fill(peer_bytes.begin(), peer_bytes.end(), 0);

    // Column bodies execute inline in global level_cols order — the exact
    // arithmetic and order of a single device with a serial pool, which is
    // what makes the factors bit-identical (the devices below model time
    // only). The hook tallies contributions whose target column lives on
    // another member: that L column must cross the peer link.
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      const index_t j = s.level_cols[k];
      const int pj = plan.owner[static_cast<std::size_t>(j)];
      const std::uint64_t ops = numeric::detail::process_column_sparse(
          m, j, [&](index_t target, offset_t l_len) {
            const int pk = plan.owner[static_cast<std::size_t>(target)];
            if (pk != pj) {
              peer_bytes[static_cast<std::size_t>(pj) *
                             static_cast<std::size_t>(nd) +
                         static_cast<std::size_t>(pk)] +=
                  static_cast<std::uint64_t>(l_len) * kPerUpdateBytes;
            }
          });
      dev_ops[static_cast<std::size_t>(pj)] += ops;
      ++dev_width[static_cast<std::size_t>(pj)];
      stats.ops += ops;
    }

    // Charge each member's share of the level as one kernel on its stream.
    for (int p = 0; p < nd; ++p) {
      if (dev_width[static_cast<std::size_t>(p)] == 0) continue;
      gpusim::Device& dev = group_.device(active[static_cast<std::size_t>(p)]);
      const std::uint64_t ops = dev_ops[static_cast<std::size_t>(p)];
      *failed_device = active[static_cast<std::size_t>(p)];
      dev.charge(
          {.name = names[static_cast<std::size_t>(p)].c_str(),
           .blocks = dev_width[static_cast<std::size_t>(p)],
           .threads_per_block = 256,
           .warp_efficiency = lp.warp_eff[static_cast<std::size_t>(l)],
           .stream = streams[static_cast<std::size_t>(p)].get()},
          ops);
      *failed_device = -1;
    }

    // Ship the level's cross-shard contributions. peer_copy_async orders
    // the consumer's stream after the producer's (the event wait), so the
    // consumer's next-level kernel cannot start before the data lands.
    for (int src = 0; src < nd; ++src) {
      for (int dst = 0; dst < nd; ++dst) {
        const std::uint64_t bytes =
            peer_bytes[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(nd) +
                       static_cast<std::size_t>(dst)];
        if (bytes == 0) continue;
        group_.peer_copy_async(active[static_cast<std::size_t>(src)],
                               active[static_cast<std::size_t>(dst)],
                               static_cast<std::size_t>(bytes),
                               *streams[static_cast<std::size_t>(src)],
                               *streams[static_cast<std::size_t>(dst)]);
      }
    }
  }
  (void)report;
  // Streams destruct here, folding their timelines into each member's
  // default timeline; the caller's synchronize() then reads the group
  // completion clock.
  return stats;
}

FactorResult ShardedFactorizer::factorize_impl(const Csr& a_in,
                                               ShardReport& report) {
  validate(a_in);
  E2ELU_CHECK_MSG(a_in.n > 0, "empty matrix");
  E2ELU_CHECK_MSG(!a_in.values.empty(), "matrix has no values");
  report = ShardReport{};

  gpusim::Device& dev0 = group_.device(0);
  FactorResult res;
  res.n = a_in.n;
  const index_t n = a_in.n;
  trace::Span span_root("sharded_factorize", dev0,
                        {{"n", n},
                         {"nnz", a_in.nnz()},
                         {"devices", group_.size()}});

  // ---- Pre-processing: host-side, identical to SparseLU.
  WallTimer t_pre;
  Csr a = a_in;
  res.row_perm = identity_permutation(n);
  res.col_perm = identity_permutation(n);
  {
    TRACE_SPAN("preprocess", dev0);
    if (base_.match_diagonal && !has_full_diagonal(a)) {
      const Permutation q = diagonal_matching(a);
      a = permute(a, res.row_perm, q);
      res.col_perm = q;
    }
    if (base_.ordering != Ordering::None) {
      const Permutation p = base_.ordering == Ordering::Rcm
                                ? rcm_ordering(a)
                                : min_degree_ordering(a);
      a = permute(a, p, p);
      Permutation composed(static_cast<std::size_t>(n));
      for (index_t k = 0; k < n; ++k) composed[k] = res.col_perm[p[k]];
      res.row_perm = p;
      res.col_perm = std::move(composed);
    }
    if (base_.diag_patch.has_value()) {
      patch_zero_diagonal(a, *base_.diag_patch);
    }
  }
  res.preprocess.wall_ms = t_pre.millis();
  res.preprocess.ops = static_cast<std::uint64_t>(a.nnz());
  res.preprocess.sim_us = base_.host.time_us(res.preprocess.ops);

  // ---- Symbolic factorization on member 0 (same code, same spec as a
  // lone device, so the filled pattern is the single-device one).
  const auto group_launches = [this] {
    const gpusim::GroupStats g = group_.stats();
    return g.devices.host_launches + g.devices.device_launches;
  };
  WallTimer t_sym;
  double sim_before = dev0.stats().sim_total_us();
  std::uint64_t launches_before = group_launches();
  symbolic::SymbolicResult sym;
  {
    trace::Span span_sym("symbolic", dev0, {{"sharded", 1}});
    const int max_attempts =
        base_.recovery.enabled ? base_.recovery.max_symbolic_attempts : 1;
    for (int attempt = 0;; ++attempt) {
      try {
        if (attempt == 0) {
          sym = symbolic::symbolic_out_of_core_dynamic(dev0, a, base_.symbolic);
        } else {
          sym = symbolic::symbolic_out_of_core_multipart(
              dev0, a, static_cast<index_t>(1) << attempt, base_.symbolic);
        }
        break;
      } catch (const gpusim::OutOfDeviceMemory& e) {
        if (attempt + 1 >= max_attempts) {
          throw FactorError(FaultKind::DeviceOutOfMemory, "symbolic", e.what());
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
    res.symbolic.sim_us = dev0.stats().sim_total_us() - sim_before;
    span_sym.attr("fill_nnz", sym.filled.nnz());
  }
  res.symbolic.wall_ms = t_sym.millis();
  res.symbolic.ops = sym.ops;
  res.symbolic.launches = group_launches() - launches_before;
  res.fill_nnz = sym.filled.nnz();
  res.symbolic_chunks = sym.num_chunks;

  // ---- Levelization on member 0 (the graph feeds the shard planner too).
  WallTimer t_lvl;
  sim_before = dev0.stats().sim_total_us();
  launches_before = group_launches();
  scheduling::LevelSchedule schedule;
  scheduling::DependencyGraph graph;
  {
    trace::Span span_lvl("levelize", dev0);
    const int max_attempts = base_.recovery.enabled ? 2 : 1;
    for (int attempt = 0;; ++attempt) {
      try {
        graph = scheduling::build_dependency_graph(sym.filled,
                                                   base_.dependency_rule);
        dev0.launch({.name = "cons_graph",
                     .blocks = std::max<index_t>(1, (n + 255) / 256),
                     .threads_per_block = 256},
                    [&](std::int64_t b, gpusim::KernelContext& ctx) {
                      const index_t lo = static_cast<index_t>(b) * 256;
                      const index_t hi = std::min(n, lo + 256);
                      ctx.add_ops(static_cast<std::uint64_t>(
                          graph.adj_ptr[hi] - graph.adj_ptr[lo]));
                    });
        const std::uint64_t ops_before_lvl = dev0.stats().kernel_ops;
        schedule = scheduling::levelize_gpu_dynamic(dev0, graph);
        res.levelize.ops = dev0.stats().kernel_ops - ops_before_lvl;
        res.levelize.sim_us = dev0.stats().sim_total_us() - sim_before;
        break;
      } catch (const gpusim::OutOfDeviceMemory& e) {
        if (attempt + 1 >= max_attempts) {
          throw FactorError(FaultKind::DeviceOutOfMemory, "levelize", e.what());
        }
        ++res.recovery_retries;
        trace::MetricsRegistry::global().counter("recovery.levelize.retry").add(1);
      } catch (const gpusim::LaunchFailure& e) {
        if (attempt + 1 >= max_attempts) {
          throw FactorError(FaultKind::LaunchFailed, "levelize", e.what());
        }
        ++res.recovery_retries;
        trace::MetricsRegistry::global().counter("recovery.launch_retry").add(1);
      }
    }
    span_lvl.attr("levels", schedule.num_levels());
  }
  res.levelize.wall_ms = t_lvl.millis();
  res.levelize.launches = group_launches() - launches_before;
  res.num_levels = schedule.num_levels();

  // ---- Shard planning + sharded numeric with device-drop recovery.
  WallTimer t_num;
  launches_before = group_launches();
  const double num_clock_before = group_.synchronize();
  std::vector<gpusim::DeviceStats> member_before;
  member_before.reserve(static_cast<std::size_t>(group_.size()));
  for (int d = 0; d < group_.size(); ++d) {
    member_before.push_back(group_.device(d).snapshot());
  }
  const gpusim::PeerStats peer_before = group_.peer_total();

  std::vector<int> active(static_cast<std::size_t>(group_.size()));
  std::iota(active.begin(), active.end(), 0);

  ShardPlan plan;
  auto replan = [&] {
    ShardPlanOptions popt = sharding_.plan;
    popt.num_devices = static_cast<int>(active.size());
    plan = build_shard_plan(graph, sym.filled, popt);
    const ShardEstimate est = estimate_sharded_numeric(
        plan, graph, sym.filled, schedule, base_.device,
        sharding_.peer.bandwidth_gbps, sharding_.peer.latency_us);
    report.predicted_speedup = est.predicted_speedup();
    report.num_components = plan.num_components;
    report.cross_edges = plan.cross_edges;
    report.irregular_fallback = plan.irregular_fallback;
    report.degraded = false;
    if (active.size() > 1 && sharding_.allow_degrade &&
        est.sharded_us >= sharding_.degrade_margin * est.single_us) {
      // Sharding is not predicted to pay (hub-coupled cut traffic, narrow
      // levels): run every column on one member — by construction no worse
      // than a lone device, since the cost model is then identical.
      active.resize(1);
      plan = single_shard_plan(sym.filled, 1, 0);
      report.degraded = true;
      trace::MetricsRegistry::global().counter("sharding.degrade").add(1);
    }
    report.balance = plan.balance();
    report.devices_used = static_cast<int>(active.size());
  };
  replan();

  numeric::FactorMatrix fm;
  std::optional<numeric::LevelPlan> level_plan;
  std::vector<index_t> perturbed_cols;
  index_t last_zero_col = -1;
  int pivot_attempts = 0;
  const int max_numeric =
      base_.recovery.enabled ? base_.recovery.max_numeric_attempts : 1;
  for (;;) {
    // A failed elimination leaves As partially updated: rebuild the values
    // from A and re-apply any perturbed diagonals (same policy as
    // SparseLU).
    {
      TRACE_SPAN("numeric.build", dev0);
      fm = numeric::FactorMatrix::build(sym.filled, a);
    }
    if (!level_plan) {
      // Pattern-only: survives value rebuilds and re-partitions. Fusion
      // stays off — the per-level path is the bit-exactness reference.
      level_plan.emplace(
          numeric::build_level_plan(fm, schedule, base_.device));
    }
    const value_t bump = base_.diag_patch.value_or(value_t{1});
    for (const index_t c : perturbed_cols) {
      fm.csc.values[static_cast<std::size_t>(fm.diag_pos[c])] += bump;
    }
    int failed_device = -1;
    try {
      trace::Span span_num("numeric.sharded", dev0,
                           {{"devices", static_cast<index_t>(active.size())},
                            {"levels", schedule.num_levels()},
                            {"components", plan.num_components},
                            {"cross_edges", plan.cross_edges}});
      const numeric::NumericStats nstats = run_numeric(
          fm, schedule, *level_plan, plan, active, &failed_device, report);
      res.numeric.ops = nstats.ops;
      break;
    } catch (const numeric::ZeroPivotError& e) {
      if (++pivot_attempts >= max_numeric) {
        throw FactorError(FaultKind::ZeroPivot, "numeric", e.what(),
                          e.column());
      }
      ++res.recovery_retries;
      if (e.column() == last_zero_col) {
        perturbed_cols.push_back(e.column());
        ++res.pivot_perturbations;
        trace::MetricsRegistry::global()
            .counter("recovery.numeric.pivot_perturb")
            .add(1);
      } else {
        last_zero_col = e.column();
        trace::MetricsRegistry::global().counter("recovery.numeric.retry").add(
            1);
      }
    } catch (const gpusim::OutOfDeviceMemory& e) {
      if (!base_.recovery.enabled || failed_device < 0) {
        throw FactorError(FaultKind::DeviceOutOfMemory, "numeric", e.what());
      }
      ++res.recovery_retries;
      report.failed_devices.push_back(failed_device);
      active.erase(std::find(active.begin(), active.end(), failed_device));
      if (active.empty()) {
        throw FactorError(FaultKind::DeviceOutOfMemory, "numeric",
                          "all group members failed: " + std::string(e.what()));
      }
      ++report.repacks;
      trace::MetricsRegistry::global().counter("sharding.repack").add(1);
      replan();
    } catch (const gpusim::LaunchFailure& e) {
      if (!base_.recovery.enabled || failed_device < 0) {
        throw FactorError(FaultKind::LaunchFailed, "numeric", e.what());
      }
      ++res.recovery_retries;
      report.failed_devices.push_back(failed_device);
      active.erase(std::find(active.begin(), active.end(), failed_device));
      if (active.empty()) {
        throw FactorError(FaultKind::LaunchFailed, "numeric",
                          "all group members failed: " + std::string(e.what()));
      }
      ++report.repacks;
      trace::MetricsRegistry::global().counter("sharding.repack").add(1);
      replan();
    }
  }
  res.used_sparse_numeric = true;
  res.numeric.sim_us = group_.synchronize() - num_clock_before;
  res.numeric.launches = group_launches() - launches_before;
  res.numeric.wall_ms = t_num.millis();
  report.numeric_elapsed_us = res.numeric.sim_us;
  report.device_deltas.clear();
  for (int d = 0; d < group_.size(); ++d) {
    report.device_deltas.push_back(group_.device(d).stats().since(
        member_before[static_cast<std::size_t>(d)]));
  }
  report.peer = group_.peer_total().since(peer_before);

  {
    TRACE_SPAN("extract_lu", dev0);
    numeric::extract_lu(fm, res.l, res.u);
  }
  res.device_stats = group_.stats().devices;

  auto& metrics = trace::MetricsRegistry::global();
  metrics.gauge("sharding.devices_used").set(report.devices_used);
  metrics.gauge("sharding.components").set(report.num_components);
  metrics.gauge("sharding.cross_edges").set(report.cross_edges);
  metrics.gauge("sharding.balance").set(report.balance);
  metrics.gauge("sharding.predicted_speedup").set(report.predicted_speedup);
  metrics.counter("sharding.peer_bytes").add(report.peer.bytes);
  metrics.counter("sharding.peer_transfers").add(report.peer.transfers);

  last_plan_ = plan;
  last_schedule_ = schedule;
  last_active_ = active;
  return res;
}

std::vector<value_t> ShardedFactorizer::solve(const FactorResult& f,
                                              std::span<const value_t> b,
                                              ShardSolveStats* stats) {
  E2ELU_CHECK(b.size() == static_cast<std::size_t>(f.n));
  E2ELU_CHECK_MSG(!last_plan_.owner.empty() &&
                      static_cast<index_t>(last_plan_.owner.size()) == f.n,
                  "solve() needs a preceding factorize() of the same matrix");
  const scheduling::LevelSchedule& s = last_schedule_;
  const ShardPlan& plan = last_plan_;
  const std::vector<int>& active = last_active_;
  const int nd = static_cast<int>(active.size());

  const double clock_before = group_.synchronize();
  const gpusim::PeerStats peer_before = group_.peer_total();
  const auto launches_now = [this] {
    const gpusim::GroupStats g = group_.stats();
    return g.devices.host_launches + g.devices.device_launches;
  };
  const std::uint64_t launches_before = launches_now();

  // Values: identical substitution code to SparseLU::solve — sharding
  // never changes an answer.
  std::vector<value_t> y(static_cast<std::size_t>(f.n));
  for (index_t i = 0; i < f.n; ++i) y[i] = b[f.row_perm[i]];
  lower_solve_unit(f.l, y);
  upper_solve(f.u, y);

  // Time model: the factorization level schedule is valid for both
  // triangular solves under the Symmetrized dependency rule — L(i,j) != 0
  // implies level(j) < level(i), so ascending levels order the forward
  // substitution; U(i,j) != 0 implies level(i) < level(j), so descending
  // levels order the backward one. Each level charges one kernel per
  // owning member; x entries read across a shard boundary ship as peer
  // transfers before the consuming level's kernels.
  std::vector<std::unique_ptr<gpusim::Stream>> streams;
  std::vector<std::string> names;
  for (int p = 0; p < nd; ++p) {
    streams.push_back(std::make_unique<gpusim::Stream>(
        group_.device(active[static_cast<std::size_t>(p)])));
    names.push_back("shard_solve_dev" +
                    std::to_string(active[static_cast<std::size_t>(p)]));
  }
  std::vector<std::uint64_t> dev_ops(static_cast<std::size_t>(nd));
  std::vector<index_t> dev_width(static_cast<std::size_t>(nd));
  std::vector<std::uint64_t> peer_bytes(static_cast<std::size_t>(nd) *
                                        static_cast<std::size_t>(nd));

  auto charge_level = [&](const Csr& mat, index_t l, bool lower) {
    std::fill(dev_ops.begin(), dev_ops.end(), 0);
    std::fill(dev_width.begin(), dev_width.end(), 0);
    std::fill(peer_bytes.begin(), peer_bytes.end(), 0);
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      const index_t i = s.level_cols[k];
      const int pi = plan.owner[static_cast<std::size_t>(i)];
      std::uint64_t ops = 0;
      for (offset_t e = mat.row_ptr[i]; e < mat.row_ptr[i + 1]; ++e) {
        const index_t j = mat.col_idx[e];
        if (lower ? j >= i : j <= i) continue;
        ++ops;
        const int pjv = plan.owner[static_cast<std::size_t>(j)];
        if (pjv != pi) {
          peer_bytes[static_cast<std::size_t>(pjv) *
                         static_cast<std::size_t>(nd) +
                     static_cast<std::size_t>(pi)] += sizeof(value_t);
        }
      }
      dev_ops[static_cast<std::size_t>(pi)] += ops + 1;  // + the diagonal op
      ++dev_width[static_cast<std::size_t>(pi)];
    }
    // Remote x entries land before the level's kernels queue.
    for (int src = 0; src < nd; ++src) {
      for (int dst = 0; dst < nd; ++dst) {
        const std::uint64_t bytes =
            peer_bytes[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(nd) +
                       static_cast<std::size_t>(dst)];
        if (bytes == 0) continue;
        group_.peer_copy_async(active[static_cast<std::size_t>(src)],
                               active[static_cast<std::size_t>(dst)],
                               static_cast<std::size_t>(bytes),
                               *streams[static_cast<std::size_t>(src)],
                               *streams[static_cast<std::size_t>(dst)]);
      }
    }
    for (int p = 0; p < nd; ++p) {
      if (dev_width[static_cast<std::size_t>(p)] == 0) continue;
      gpusim::Device& dev = group_.device(active[static_cast<std::size_t>(p)]);
      const std::uint64_t ops = dev_ops[static_cast<std::size_t>(p)];
      dev.charge({.name = names[static_cast<std::size_t>(p)].c_str(),
                  .blocks = dev_width[static_cast<std::size_t>(p)],
                  .threads_per_block = 256,
                  .stream = streams[static_cast<std::size_t>(p)].get()},
                 ops);
    }
  };
  for (index_t l = 0; l < s.num_levels(); ++l) charge_level(f.l, l, true);
  for (index_t l = s.num_levels(); l-- > 0;) charge_level(f.u, l, false);
  streams.clear();

  if (stats != nullptr) {
    stats->launches = launches_now() - launches_before;
    stats->peer = group_.peer_total().since(peer_before);
    stats->elapsed_us = group_.synchronize() - clock_before;
  }

  std::vector<value_t> x(static_cast<std::size_t>(f.n));
  for (index_t j = 0; j < f.n; ++j) x[f.col_perm[j]] = y[j];
  return x;
}

}  // namespace e2elu::sharding
