#include "sharding/sharded_factorizer.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "core/pipeline_stages.hpp"
#include "numeric/column_kernel.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::sharding {

namespace {

constexpr std::uint64_t kPerUpdateBytes = sizeof(value_t) + sizeof(index_t);

/// One level's work split over the active members: ops and columns per
/// member, and bytes per ordered (src, dst) member pair. charge() turns
/// the tallies into one kernel per busy member, on that member's stream,
/// plus one async peer copy per pair with traffic, and clears them.
class LevelShares {
 public:
  LevelShares(gpusim::DeviceGroup& group, const std::vector<int>& active,
              const std::string& kernel_prefix)
      : group_(group),
        active_(active),
        ops_(active.size()),
        width_(active.size()),
        peer_bytes_(active.size() * active.size()) {
    for (const int d : active_) {
      streams_.push_back(std::make_unique<gpusim::Stream>(group_.device(d)));
      names_.push_back(kernel_prefix + std::to_string(d));
    }
  }

  void add_column(int p, std::uint64_t ops) {
    ops_[static_cast<std::size_t>(p)] += ops;
    ++width_[static_cast<std::size_t>(p)];
  }

  void add_peer(int src, int dst, std::uint64_t bytes) {
    peer_bytes_[static_cast<std::size_t>(src) * active_.size() +
                static_cast<std::size_t>(dst)] += bytes;
  }

  /// `inputs_first`: the peer bytes are data the level reads, so they ship
  /// before its kernels, which then wait for them. Otherwise they are the
  /// level's results and ship after its kernels; peer_copy_async orders
  /// the consumer's stream after the producer's, so no later kernel on the
  /// consumer starts before the data lands. While a member's kernel is
  /// charged, *failed_device (when given) names that member.
  void charge(bool inputs_first, double warp_efficiency, int* failed_device) {
    if (inputs_first) ship();
    for (std::size_t p = 0; p < active_.size(); ++p) {
      if (width_[p] == 0) continue;
      if (failed_device != nullptr) *failed_device = active_[p];
      group_.device(active_[p])
          .charge({.name = names_[p].c_str(),
                   .blocks = width_[p],
                   .threads_per_block = 256,
                   .warp_efficiency = warp_efficiency,
                   .stream = streams_[p].get()},
                  ops_[p]);
      if (failed_device != nullptr) *failed_device = -1;
    }
    if (!inputs_first) ship();
    std::fill(ops_.begin(), ops_.end(), 0);
    std::fill(width_.begin(), width_.end(), 0);
    std::fill(peer_bytes_.begin(), peer_bytes_.end(), 0);
  }

 private:
  void ship() {
    const std::size_t nd = active_.size();
    for (std::size_t src = 0; src < nd; ++src) {
      for (std::size_t dst = 0; dst < nd; ++dst) {
        const std::uint64_t bytes = peer_bytes_[src * nd + dst];
        if (bytes == 0) continue;
        group_.peer_copy_async(active_[src], active_[dst],
                               static_cast<std::size_t>(bytes),
                               *streams_[src], *streams_[dst]);
      }
    }
  }

  gpusim::DeviceGroup& group_;
  const std::vector<int>& active_;
  std::vector<std::uint64_t> ops_;
  std::vector<index_t> width_;
  std::vector<std::uint64_t> peer_bytes_;
  /// One stream per member, so each device's level kernels queue on its
  /// own timeline. They fold back into the members' default timelines
  /// when this object is destroyed.
  std::vector<std::unique_ptr<gpusim::Stream>> streams_;
  std::vector<std::string> names_;  // stable storage for LaunchConfig::name
};

}  // namespace

ShardedFactorizer::ShardedFactorizer(Options base, ShardingOptions sharding)
    : base_(std::move(base)),
      sharding_(sharding),
      group_(base_.device, sharding.num_devices, sharding.peer) {
  // The sharded level loop has neither fused launches nor the scrolling
  // window; accepting either option would run without it.
  E2ELU_CHECK_MSG(!base_.numeric.fusion.enabled,
                  "ShardedFactorizer does not support numeric.fusion");
  E2ELU_CHECK_MSG(!base_.numeric.window.enabled,
                  "ShardedFactorizer does not support numeric.window");
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

std::uint64_t ShardedFactorizer::group_launches() const {
  const gpusim::GroupStats g = group_.stats();
  return g.devices.host_launches + g.devices.device_launches;
}

numeric::NumericStats ShardedFactorizer::run_numeric(
    numeric::FactorMatrix& m, const scheduling::LevelSchedule& s,
    const numeric::LevelPlan& lp, const ShardPlan& plan,
    const std::vector<int>& active, int* failed_device) {
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

  LevelShares shares(group_, active, "shard_numeric_dev");
  for (index_t l = 0; l < s.num_levels(); ++l) {
    // Column bodies execute inline in global level_cols order — the exact
    // arithmetic and order of a single device with a serial pool, which is
    // what makes the factors bit-identical (the devices model time only).
    // The hook tallies contributions whose target column lives on another
    // member: that L column must cross the peer link.
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      const index_t j = s.level_cols[k];
      const int pj = plan.owner[static_cast<std::size_t>(j)];
      const std::uint64_t ops = numeric::detail::process_column_sparse(
          m, j, [&](index_t target, offset_t l_len) {
            const int pk = plan.owner[static_cast<std::size_t>(target)];
            if (pk != pj) {
              shares.add_peer(pj, pk,
                              static_cast<std::uint64_t>(l_len) *
                                  kPerUpdateBytes);
            }
          });
      shares.add_column(pj, ops);
      stats.ops += ops;
    }
    shares.charge(/*inputs_first=*/false,
                  lp.warp_eff[static_cast<std::size_t>(l)], failed_device);
  }
  return stats;
}

FactorResult ShardedFactorizer::factorize_impl(const Csr& a_in,
                                               ShardReport& report) {
  report = ShardReport{};
  gpusim::Device& dev0 = group_.device(0);
  FactorResult res;
  trace::Span span_root("sharded_factorize", dev0,
                        {{"n", a_in.n},
                         {"nnz", a_in.nnz()},
                         {"devices", group_.size()}});

  // ---- Preprocess, symbolic and levelize: SparseLU's own stages, on
  // member 0 (the other members are idle until the numeric phase).
  const e2elu::detail::FrontEnd fe =
      e2elu::detail::run_front_end(dev0, base_, a_in, res);

  // ---- Shard planning + sharded numeric with device-drop recovery.
  WallTimer t_num;
  const std::uint64_t launches_before = group_launches();
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
    plan = build_shard_plan(fe.graph, fe.filled, popt);
    const ShardEstimate est = estimate_sharded_numeric(
        plan, fe.graph, fe.filled, fe.schedule, base_.device,
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
      plan = single_shard_plan(fe.filled, 1, 0);
      report.degraded = true;
      trace::MetricsRegistry::global().counter("sharding.degrade").add(1);
    }
    report.balance = plan.balance();
    report.devices_used = static_cast<int>(active.size());
  };
  replan();

  std::optional<numeric::LevelPlan> level_plan;
  int failed_device = -1;
  numeric::FactorMatrix fm = e2elu::detail::run_numeric_attempts(
      dev0, base_, fe, res,
      [&](numeric::FactorMatrix& m) {
        if (!level_plan) {
          // Pattern-only: survives value rebuilds and re-partitions.
          // Fusion stays off — the per-level path is the bit-exactness
          // reference.
          level_plan.emplace(
              numeric::build_level_plan(m, fe.schedule, base_.device));
        }
        trace::Span span_num("numeric.sharded", dev0,
                             {{"devices", static_cast<index_t>(active.size())},
                              {"levels", fe.schedule.num_levels()},
                              {"components", plan.num_components},
                              {"cross_edges", plan.cross_edges}});
        return run_numeric(m, fe.schedule, *level_plan, plan, active,
                           &failed_device);
      },
      // A member's fault drops that member and re-packs its shards onto
      // the survivors; the attempt budget does not apply, the group size
      // bounds the retries.
      [&](FaultKind kind, const std::exception& e, bool) {
        if (!base_.recovery.enabled || failed_device < 0) return false;
        report.failed_devices.push_back(failed_device);
        active.erase(std::find(active.begin(), active.end(), failed_device));
        if (active.empty()) {
          throw FactorError(kind, "numeric",
                            "all group members failed: " +
                                std::string(e.what()));
        }
        ++report.repacks;
        trace::MetricsRegistry::global().counter("sharding.repack").add(1);
        replan();
        return true;
      });
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
  last_schedule_ = fe.schedule;
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

  const double clock_before = group_.synchronize();
  const gpusim::PeerStats peer_before = group_.peer_total();
  const std::uint64_t launches_before = group_launches();

  // Time model: the factorization level schedule is valid for both
  // triangular solves under the Symmetrized dependency rule — L(i,j) != 0
  // implies level(j) < level(i), so ascending levels order the forward
  // substitution; U(i,j) != 0 implies level(i) < level(j), so descending
  // levels order the backward one. Each level charges one kernel per
  // owning member; x entries read across a shard boundary ship as peer
  // transfers before the consuming level's kernels.
  {
    LevelShares shares(group_, last_active_, "shard_solve_dev");
    const auto charge_level = [&](const Csr& mat, index_t l, bool lower) {
      for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
        const index_t i = s.level_cols[k];
        const int pi = plan.owner[static_cast<std::size_t>(i)];
        std::uint64_t ops = 0;
        for (offset_t e = mat.row_ptr[i]; e < mat.row_ptr[i + 1]; ++e) {
          const index_t j = mat.col_idx[e];
          if (lower ? j >= i : j <= i) continue;
          ++ops;
          const int pj = plan.owner[static_cast<std::size_t>(j)];
          if (pj != pi) shares.add_peer(pj, pi, sizeof(value_t));
        }
        shares.add_column(pi, ops + 1);  // + the diagonal op
      }
      shares.charge(/*inputs_first=*/true, /*warp_efficiency=*/1.0, nullptr);
    };
    for (index_t l = 0; l < s.num_levels(); ++l) charge_level(f.l, l, true);
    for (index_t l = s.num_levels(); l-- > 0;) charge_level(f.u, l, false);
  }

  if (stats != nullptr) {
    stats->launches = group_launches() - launches_before;
    stats->peer = group_.peer_total().since(peer_before);
    stats->elapsed_us = group_.synchronize() - clock_before;
  }
  // Values: SparseLU::solve itself (permutations, scaling, substitution)
  // — sharding never changes an answer.
  return SparseLU::solve(f, b);
}

}  // namespace e2elu::sharding
