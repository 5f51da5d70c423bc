// GLU3.0-style dense-window numeric executor.
//
// GLU3.0 scatters active columns into dense length-n arrays so element
// access is direct indexing. The window holds M = free_bytes /
// (n * sizeof(value_t)) columns; a batch must fit every column it
// factorizes *and* every sub-column those updates write, so wide levels
// are processed in multiple scatter/factor/gather rounds and the block
// count per factor kernel never exceeds M — the concurrency ceiling
// Table 4 reports and Figure 8 shows the sparse format removing.
//
// Here the window is a residency and cost model: slots, batches and the
// scatter/gather copies decide which kernels launch, with what grids and
// op counts, and the window's bytes are reserved on the device. The host
// does the arithmetic in place on the CSC factor storage (a merge walk
// stands in for the dense O(1) access and is not charged), and the
// scatter/gather kernels are charged without copying anything. Every
// subtraction lands in the same order as with real dense staging, so the
// factors are those of the staged format.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "numeric/column_kernel.hpp"
#include "numeric/factor_window.hpp"
#include "numeric/numeric.hpp"
#include "support/timer.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::numeric {

namespace {

/// One scatter/factor/gather round: the columns it factorizes plus the
/// dense slots it has claimed (factor columns and their sub-columns).
struct Batch {
  std::vector<index_t> factor_cols;
  std::vector<index_t> slot_cols;  ///< column resident in each slot
};

}  // namespace

NumericStats factorize_dense_window(gpusim::Device& dev, FactorMatrix& m,
                                    const scheduling::LevelSchedule& s,
                                    const NumericOptions& opt,
                                    const LevelPlan* plan) {
  WallTimer timer;
  NumericStats stats;
  const std::uint64_t ops_before = dev.stats().kernel_ops;
  const index_t n = m.n();
  // A caller with no cached plan gets a local one: classification (and
  // clustering) happen once per factorize instead of once per level.
  std::optional<LevelPlan> local_plan;
  if (plan == nullptr) {
    local_plan.emplace(build_level_plan(m, s, dev.spec(), opt.fusion));
    plan = &*local_plan;
  }
  E2ELU_CHECK_MSG(plan->type.size() ==
                      static_cast<std::size_t>(s.num_levels()),
                  "level plan does not match the schedule");

  std::optional<DeviceFactorMatrix> mirrors;
  if (!opt.device_resident && !opt.window.enabled) mirrors.emplace(dev, m);

  const index_t window = max_parallel_dense_columns(dev.free_bytes(), n);
  E2ELU_CHECK_MSG(window >= 2,
                  "device cannot hold two dense columns of length "
                      << n << "; use the sparse binary-search format");
  stats.window_columns = window;
  // The dense slots are only reserved: nothing is staged in them.
  const gpusim::RawDeviceAllocation dense(
      dev, static_cast<std::size_t>(window) * static_cast<std::size_t>(n) *
               sizeof(value_t));

  // slot_of[col] = dense slot while resident in the current batch.
  std::vector<index_t> slot_of(static_cast<std::size_t>(n), -1);

  // Scatter and gather move every entry of each slot column between CSC
  // and its dense slot, one op per element and one block per slot.
  auto charge_copy = [&](const char* name, std::span<const index_t> cols,
                         double warp_eff) {
    std::uint64_t elements = 0;
    for (index_t c : cols) {
      elements +=
          static_cast<std::uint64_t>(m.csc.col_ptr[c + 1] - m.csc.col_ptr[c]);
    }
    dev.charge({.name = name,
                .blocks = static_cast<std::int64_t>(cols.size()),
                .threads_per_block = 256,
                .warp_efficiency = warp_eff},
               elements);
  };
  auto scatter = [&](std::span<const index_t> cols, double warp_eff) {
    charge_copy("dense_scatter", cols, warp_eff);
  };
  auto gather = [&](std::span<const index_t> cols, double warp_eff) {
    charge_copy("dense_gather", cols, warp_eff);
  };

  /// Divides L(:,j) by its pivot; returns the ops charged.
  auto divide_column = [&](index_t j) -> std::uint64_t {
    const offset_t dp = m.diag_pos[j];
    const value_t diag = detail::load_pivot(m.csc.values[dp], j);
    const offset_t col_end = m.csc.col_ptr[j + 1];
    for (offset_t p = dp + 1; p < col_end; ++p) m.csc.values[p] /= diag;
    return static_cast<std::uint64_t>(col_end - dp - 1);
  };

  /// Applies L(:,j) to the sub-column at pattern position `rp` of row j;
  /// returns the ops charged — one for reading U(j,k), one per update.
  auto update_sub_column = [&](index_t j, offset_t rp,
                               bool exclusive) -> std::uint64_t {
    const offset_t upos = m.csr_pos_to_csc[rp];
    const value_t ujk = m.csc.values[upos];
    if (ujk == value_t{0}) return 1;
    detail::merge_update_sub_column(m, j, m.pattern.col_idx[rp], upos, ujk,
                                    exclusive);
    return 1 + static_cast<std::uint64_t>(m.csc.col_ptr[j + 1] -
                                          m.diag_pos[j] - 1);
  };

  /// CSR positions of the strictly-upper entries of pattern row j: one
  /// per sub-column column j updates.
  auto sub_positions = [&](index_t j) {
    std::vector<offset_t> subs;
    for (offset_t rp = m.pattern.row_ptr[j]; rp < m.pattern.row_ptr[j + 1];
         ++rp) {
      if (m.pattern.col_idx[rp] > j) subs.push_back(rp);
    }
    return subs;
  };

  /// Factorizes one column with block-per-column parallelism: other
  /// blocks of the launch may update the same sub-columns, so the
  /// subtractions stay atomic.
  auto process_column_dense = [&](index_t j, gpusim::KernelContext& ctx) {
    std::uint64_t ops = divide_column(j);
    for (offset_t rp = m.pattern.row_ptr[j]; rp < m.pattern.row_ptr[j + 1];
         ++rp) {
      if (m.pattern.col_idx[rp] > j) {
        ops += update_sub_column(j, rp, /*exclusive=*/false);
      }
    }
    ctx.add_ops(ops);
  };

  /// GLU3.0 type-C mode for one column: a one-block division kernel, then
  /// an update kernel with a block per sub-column — the batch is too
  /// narrow for block-per-column to occupy the device. Each update block
  /// owns its sub-column, so it writes without atomics.
  auto factor_column_subparallel = [&](index_t j, double warp_eff,
                                       gpusim::Stream* stream) {
    dev.launch({.name = "dense_div_C",
                .blocks = 1,
                .threads_per_block = 256,
                .warp_efficiency = warp_eff,
                .stream = stream},
               [&](std::int64_t, gpusim::KernelContext& ctx) {
                 ctx.add_ops(divide_column(j));
               });
    const std::vector<offset_t> subs = sub_positions(j);
    if (subs.empty()) return;
    dev.launch({.name = "dense_update_C",
                .blocks = static_cast<std::int64_t>(subs.size()),
                .threads_per_block = 256,
                .warp_efficiency = warp_eff,
                .stream = stream},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 ctx.add_ops(update_sub_column(
                     j, subs[static_cast<std::size_t>(b)], /*exclusive=*/true));
               });
  };

  // The kernel mode follows the GLU3.0 level taxonomy (set per level in
  // the loop below): narrow type-C levels parallelize over sub-columns;
  // wide levels use block-per-column even when the window forces small
  // batches — the batches of one level pipeline through the same grid.
  scheduling::LevelType level_type = scheduling::LevelType::A;

  // Streams the per-column type-C launches rotate over. The serial
  // scatter/gather kernels are full barriers, so batches stay ordered.
  std::vector<std::unique_ptr<gpusim::Stream>> streams;
  for (int i = 1; i < opt.async_streams; ++i) {
    streams.push_back(std::make_unique<gpusim::Stream>(dev));
  }

  auto run_batch = [&](Batch& b, double warp_eff) {
    if (b.factor_cols.empty()) return;
    scatter(b.slot_cols, warp_eff);
    if (level_type != scheduling::LevelType::C) {
      // Type A/B: block per column.
      dev.launch({.name = "dense_factor",
                  .blocks = static_cast<std::int64_t>(b.factor_cols.size()),
                  .threads_per_block = 256,
                  .warp_efficiency = warp_eff},
                 [&](std::int64_t i, gpusim::KernelContext& ctx) {
                   process_column_dense(
                       b.factor_cols[static_cast<std::size_t>(i)], ctx);
                 });
    } else {
      for (std::size_t i = 0; i < b.factor_cols.size(); ++i) {
        factor_column_subparallel(
            b.factor_cols[i], warp_eff,
            streams.empty() ? nullptr : streams[i % streams.size()].get());
      }
    }
    gather(b.slot_cols, warp_eff);
    for (index_t c : b.slot_cols) slot_of[c] = -1;
    b.factor_cols.clear();
    b.slot_cols.clear();
    ++stats.num_batches;
  };

  auto claim_slot = [&](Batch& b, index_t col) {
    if (slot_of[col] >= 0) return;
    slot_of[col] = static_cast<index_t>(b.slot_cols.size());
    b.slot_cols.push_back(col);
  };

  auto run_level = [&](index_t l) {
    const double warp_eff = plan->warp_eff[l];
    level_type = plan->type[l];
    TRACE_SPAN("numeric.level", dev,
               {{"level", l},
                {"width", s.level_width(l)},
                {"type", scheduling::level_type_name(level_type)},
                {"format", "dense"},
                {"window", window}});
    Batch batch;
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      const index_t j = s.level_cols[k];
      // Slots this column needs that the batch does not already hold.
      std::vector<index_t> wanted{j};
      for (offset_t rp = m.pattern.row_ptr[j]; rp < m.pattern.row_ptr[j + 1];
           ++rp) {
        if (m.pattern.col_idx[rp] > j) wanted.push_back(m.pattern.col_idx[rp]);
      }
      index_t new_slots = 0;
      for (index_t c : wanted) {
        if (slot_of[c] < 0) ++new_slots;
      }

      if (static_cast<index_t>(batch.slot_cols.size()) + new_slots > window) {
        run_batch(batch, warp_eff);
        // The flush released every resident column, so this column now
        // needs its full footprint.
        new_slots = static_cast<index_t>(wanted.size());
        // A single column whose footprint exceeds the window: factor it
        // alone, streaming its sub-columns through the window in groups.
        if (new_slots > window) {
          claim_slot(batch, j);
          scatter(batch.slot_cols, warp_eff);
          dev.launch({.name = "dense_div_huge",
                      .blocks = 1,
                      .threads_per_block = 256,
                      .warp_efficiency = warp_eff},
                     [&](std::int64_t, gpusim::KernelContext& ctx) {
                       ctx.add_ops(divide_column(j));
                     });
          // The staged format writes L(:,j) back before streaming.
          gather(batch.slot_cols, warp_eff);
          // Stream sub-columns in groups of window-1 (slot 0 pins j);
          // each group is scattered with j, updated, and gathered
          // without j, which this phase leaves unchanged.
          const std::vector<offset_t> subs = sub_positions(j);
          std::vector<index_t> group{j};
          for (std::size_t g = 0; g < subs.size();
               g += static_cast<std::size_t>(window - 1)) {
            const std::size_t end = std::min(
                subs.size(), g + static_cast<std::size_t>(window - 1));
            group.resize(1);
            for (std::size_t t = g; t < end; ++t) {
              group.push_back(m.pattern.col_idx[subs[t]]);
            }
            scatter(group, warp_eff);
            dev.launch({.name = "dense_update_huge",
                        .blocks = static_cast<std::int64_t>(end - g),
                        .threads_per_block = 256,
                        .warp_efficiency = warp_eff},
                       [&](std::int64_t b, gpusim::KernelContext& ctx) {
                         ctx.add_ops(update_sub_column(
                             j, subs[g + static_cast<std::size_t>(b)],
                             /*exclusive=*/true));
                       });
            gather(std::span<const index_t>(group).subspan(1), warp_eff);
            ++stats.num_batches;
          }
          slot_of[j] = -1;
          batch = Batch{};  // the pinned slot for j is released
          continue;
        }
      }
      for (index_t c : wanted) claim_slot(batch, c);
      batch.factor_cols.push_back(j);
    }
    run_batch(batch, warp_eff);
  };

  detail::ReadyFlags flags;  // fused clusters only; allocated on demand
  const scheduling::ClusterSchedule& cs = plan->clusters;
  auto execute_cluster = [&](index_t cl) {
    const index_t lo = cs.first_level(cl);
    const index_t hi = cs.end_level(cl);

    if (cs.is_fused(cl)) {
      // A fused cluster needs its whole footprint — every factor column
      // plus every sub-column they update — resident at once: there is no
      // level boundary left to gather/re-scatter at. If the window cannot
      // hold it, this cluster falls back to the per-level path.
      Batch batch;
      bool fits = true;
      for (index_t p = s.level_ptr[lo]; p < s.level_ptr[hi] && fits; ++p) {
        const index_t j = s.level_cols[p];
        claim_slot(batch, j);
        for (offset_t rp = m.pattern.row_ptr[j];
             rp < m.pattern.row_ptr[j + 1]; ++rp) {
          if (m.pattern.col_idx[rp] > j) {
            claim_slot(batch, m.pattern.col_idx[rp]);
          }
        }
        fits = static_cast<index_t>(batch.slot_cols.size()) <= window;
      }
      if (!fits) {
        for (index_t c2 : batch.slot_cols) slot_of[c2] = -1;
        for (index_t l = lo; l < hi; ++l) run_level(l);
        return;
      }

      const index_t first_pos = s.level_ptr[lo];
      const index_t width = s.level_ptr[hi] - first_pos;
      const double warp_eff = detail::cluster_warp_eff(*plan, s, lo, hi);
      if (!flags) flags = detail::make_ready_flags(n);
      std::atomic<bool> failed{false};
      TRACE_SPAN("numeric.cluster", dev,
                 {{"first_level", lo},
                  {"levels", hi - lo},
                  {"columns", width},
                  {"format", "dense"}});
      scatter(batch.slot_cols, warp_eff);
      dev.launch(
          {.name = "dense_fused",
           .blocks = width,
           .threads_per_block = 256,
           .warp_efficiency = warp_eff,
           .fused_levels = static_cast<int>(hi - lo)},
          [&](std::int64_t b, gpusim::KernelContext& ctx) {
            const index_t j = s.level_cols[first_pos + static_cast<index_t>(b)];
            std::uint64_t ops = detail::wait_cluster_predecessors(
                m, s, lo, j, flags.get(), failed);
            ctx.add_ops(ops);
            if (failed.load(std::memory_order_relaxed)) {
              flags[j].store(1, std::memory_order_release);
              return;
            }
            try {
              process_column_dense(j, ctx);
            } catch (...) {
              failed.store(true, std::memory_order_relaxed);
              flags[j].store(1, std::memory_order_release);
              throw;
            }
            flags[j].store(1, std::memory_order_release);
          });
      gather(batch.slot_cols, warp_eff);
      for (index_t c2 : batch.slot_cols) slot_of[c2] = -1;
      ++stats.num_batches;
      stats.fused_levels += hi - lo;
      ++stats.fused_clusters;
      trace::MetricsRegistry::global()
          .counter("numeric.fused_levels")
          .add(static_cast<std::uint64_t>(hi - lo));
      return;
    }

    run_level(lo);
  };

  if (opt.window.enabled) {
    // Windowed dense mode models residency and transfer accounting only:
    // the scatter/factor/gather kernels launch on the default stream (a
    // full barrier in the sim), so the window's prefetches cannot overlap
    // them — the stall counters reflect that. The sparse and replay
    // executors are the paths where the overlap is real; this one exists
    // so the dense format stays usable out-of-core.
    detail::run_windowed(dev, m, s, *plan, opt.window, stats,
                         [&](index_t cl, gpusim::Stream&) {
                           execute_cluster(cl);
                         });
  } else {
    for (index_t cl = 0; cl < cs.num_clusters(); ++cl) {
      execute_cluster(cl);
    }
  }

  stats.ops = dev.stats().kernel_ops - ops_before;
  stats.wall_ms = timer.millis();
  return stats;
}

}  // namespace e2elu::numeric
