// ShardedFactorizer: one factorization spread across the members of a
// gpusim::DeviceGroup.
//
// Pipeline shape (per factorize):
//   preprocess, symbolic,   — SparseLU's own stages (detail::run_front_end)
//   levelization              on member 0 with the same Options, so the
//                             permutations, scaling, filled pattern,
//                             schedule and phase charges are the ones a
//                             single device produces
//   shard planning          — elimination-forest components packed per
//                             device (sharding/shard_plan.hpp), with the
//                             irregular-blocking hub fallback and a
//                             model-based degrade decision
//   sharded numeric         — SparseLU's attempt loop
//                             (detail::run_numeric_attempts) around a
//                             per-device executor: each level executes as
//                             one kernel per (level, device) over that
//                             device's columns on its own stream;
//                             cross-shard update contributions ship as
//                             explicit peer transfers at the producing
//                             level's boundary, ordered by events
//   extract + solves        — host extract; solve() returns
//                             SparseLU::solve's values and charges
//                             level-parallel triangular solves over the
//                             same partition
//
// Bit-exactness invariant (test- and bench-gated): sharded factors are
// memcmp-identical to single-device factors. The numeric phase applies
// the exact same column kernels (numeric::detail::process_column_sparse)
// in the exact global level-order a single device with a serial pool
// uses; devices model *time*, not arithmetic — the same separation the
// PR5 streams and the PR8 factor window rely on. Sharding therefore can
// never change an answer, only the simulated clock.
//
// Fault recovery: a member that fails (injected OOM on its shard upload,
// launch failure on its kernels) is dropped and the shards re-pack onto
// the survivors; with one survivor the run degrades to single-device.
// Exhausting every member throws a structured FactorError — never a hang.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/sparse_lu.hpp"
#include "gpusim/device_group.hpp"
#include "sharding/shard_plan.hpp"

namespace e2elu::sharding {

struct ShardingOptions {
  /// Group size (simulated devices).
  int num_devices = 4;
  ShardPlanOptions plan;
  gpusim::PeerSpec peer;
  /// Degrade to one device unless the model predicts
  /// sharded_us < degrade_margin * single_us. Hub-coupled matrices whose
  /// cut traffic would eat the parallel win take this path — "no worse
  /// than one device" by construction, since a one-member run charges
  /// exactly the single-device cost model.
  bool allow_degrade = true;
  double degrade_margin = 0.9;
};

/// Per-factorize sharding report.
struct ShardReport {
  int devices_used = 0;          ///< members that executed numeric work
  index_t num_components = 0;    ///< elimination-forest components found
  offset_t cross_edges = 0;      ///< dependency edges crossing shards
  double balance = 1.0;          ///< heaviest device / mean footprint
  bool irregular_fallback = false;  ///< hub component was block-carved
  bool degraded = false;            ///< ran on one member
  int repacks = 0;                  ///< fault-recovery re-partitions
  std::vector<int> failed_devices;  ///< members dropped by recovery
  double predicted_speedup = 1.0;   ///< model estimate behind the decision

  /// Numeric-phase DeviceStats delta per member (index = member id).
  /// Summed with `peer`, these tile the group's numeric-phase delta
  /// exactly (test-enforced).
  std::vector<gpusim::DeviceStats> device_deltas;
  gpusim::PeerStats peer;          ///< numeric+solve peer-transfer totals
  double numeric_elapsed_us = 0;   ///< group clock spent in numeric
};

/// Accounting for one sharded triangular solve pair (L then U).
struct ShardSolveStats {
  std::uint64_t launches = 0;
  gpusim::PeerStats peer;
  double elapsed_us = 0;
};

class ShardedFactorizer {
 public:
  /// Throws e2elu::Error when base.numeric.fusion or base.numeric.window
  /// is enabled: the sharded numeric phase supports neither.
  ShardedFactorizer(Options base, ShardingOptions sharding = {});

  /// Full pipeline; factors are bit-identical to SparseLU::factorize with
  /// the same base options on one device.
  FactorResult factorize(const Csr& a);
  FactorResult factorize(const Csr& a, ShardReport& report);

  /// Sharded level-parallel triangular solves of A x = b against the last
  /// factorize()'s partition. The values are SparseLU::solve(f, b); the
  /// level kernels are charged per owning device with per-level peer
  /// shipping of boundary x entries.
  std::vector<value_t> solve(const FactorResult& f, std::span<const value_t> b,
                             ShardSolveStats* stats = nullptr);

  gpusim::DeviceGroup& group() { return group_; }
  const gpusim::DeviceGroup& group() const { return group_; }
  const ShardReport& last_report() const { return report_; }

 private:
  FactorResult factorize_impl(const Csr& a, ShardReport& report);

  /// Executes the numeric phase across `active` members. Throws the raw
  /// device fault with *failed_device set when a member faults.
  numeric::NumericStats run_numeric(numeric::FactorMatrix& m,
                                    const scheduling::LevelSchedule& s,
                                    const numeric::LevelPlan& lp,
                                    const ShardPlan& plan,
                                    const std::vector<int>& active,
                                    int* failed_device);
  /// Host + device launches over every member.
  std::uint64_t group_launches() const;

  Options base_;
  ShardingOptions sharding_;
  gpusim::DeviceGroup group_;
  ShardReport report_;
  /// Partition + schedule of the last factorize (solve() charges against
  /// them).
  ShardPlan last_plan_;
  scheduling::LevelSchedule last_schedule_;
  std::vector<int> last_active_;
};

}  // namespace e2elu::sharding
