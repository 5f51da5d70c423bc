// The two stages every factorization entry point shares: SparseLU and
// sharding::ShardedFactorizer both run exactly this front end and this
// numeric attempt loop, and differ only in the numeric executor they pass
// and in how they answer a device fault. Internal to the library.
#pragma once

#include <exception>
#include <functional>

#include "core/sparse_lu.hpp"

namespace e2elu::detail {

/// What the pipeline's front end hands to the numeric phase (and to a
/// shard planner).
struct FrontEnd {
  Csr a;  ///< A after permutation, scaling and diagonal patching
  Csr filled;                          ///< pattern of L+U, rows sorted
  scheduling::DependencyGraph graph;   ///< column dependencies of `filled`
  scheduling::LevelSchedule schedule;  ///< levels of `graph`
};

/// Preprocess (with its sub-phase reports), symbolic (with its multipart
/// re-plan loop) and levelize (with its retry loop) on `dev`. Fills `res`'s
/// permutations, scaling, phase reports, fill/level counts and recovery
/// counters. Every factorization entry point runs exactly this.
FrontEnd run_front_end(gpusim::Device& dev, const Options& options,
                       const Csr& a_in, FactorResult& res);

/// Runs the numeric executor over a FactorMatrix rebuilt from `fe` each
/// attempt.
using NumericExecutor =
    std::function<numeric::NumericStats(numeric::FactorMatrix&)>;
/// The caller's answer to a device fault (OOM, lost launch) in the
/// executor: prepare the next attempt and return true, or return false to
/// give up with FactorError{kind, "numeric"}. `budget_left` says whether
/// the numeric attempt budget allows another attempt.
using DeviceFaultResponse =
    std::function<bool(FaultKind kind, const std::exception& e,
                       bool budget_left)>;

/// The numeric attempt loop: rebuilds the FactorMatrix from `fe` every
/// attempt, re-applies perturbed diagonals, and on a zero pivot retries
/// once, then bumps the diagonal of a column that fails twice in a row.
/// Sets res.numeric.ops, res.fused_levels and the recovery counters;
/// numeric timing stays with the caller, which owns the clock.
numeric::FactorMatrix run_numeric_attempts(gpusim::Device& dev,
                                           const Options& options,
                                           const FrontEnd& fe,
                                           FactorResult& res,
                                           const NumericExecutor& execute,
                                           const DeviceFaultResponse& on_fault);

}  // namespace e2elu::detail
