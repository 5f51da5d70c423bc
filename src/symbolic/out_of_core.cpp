// Out-of-core GPU symbolic factorization: Algorithm 3 (fixed chunks) and
// Algorithm 4 (dynamic parallelism assignment).
//
// Both drivers run the two-stage scheme: symbolic_1 counts each row's
// fill, a device prefix sum sizes the CSR arrays, symbolic_2 writes the
// positions. Rows are processed in chunks sized so that the per-row O(n)
// traversal scratch fits in device memory:
//     chunk_size = free_device_bytes / scratch_bytes_per_row(n).
// Algorithm 4 additionally partitions rows at the point n1 where the
// frontier first becomes "large" (>= 50% of the peak); rows below n1 use
// queues bounded by the observed frontier (a much smaller footprint), so
// their chunks — and with them the number of concurrently resident
// thread blocks — are larger.
//
// The model charges both stages in full, but the host traverses each row
// once: symbolic_1 records the row's columns and cost, and symbolic_2's
// kernels copy, sort and charge the record. The chunk scratch is a device
// reservation only; the host traverses on one workspace per pool worker.

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <numeric>

#include "gpusim/device_buffer.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"
#include "symbolic/fill2.hpp"
#include "symbolic/symbolic.hpp"
#include "symbolic/workspace.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::symbolic {

namespace {

double warp_eff_for(const gpusim::Device& dev, const Csr& a) {
  return dev.spec().simt_efficiency(a.nnz_per_row());
}

/// Sorting cost model for the symbolic_2 emit buffers: f * ceil(log2 f).
std::uint64_t sort_ops(std::size_t len) {
  if (len < 2) return len;
  return static_cast<std::uint64_t>(len) *
         static_cast<std::uint64_t>(std::bit_width(len - 1));
}

struct PassResult {
  index_t chunk_rows = 0;
  index_t num_chunks = 0;
};

/// Host scratch of one chunked pass: one traversal workspace per pool
/// worker, -1-filled on the worker's first row (-1 never equals a row id).
/// Visit stamps are row ids and a pass visits each row once, so the rows
/// of one worker can share a workspace.
class PassScratch {
 public:
  PassScratch(std::size_t workers, index_t n, std::size_t qcap)
      : n_(n), qcap_(qcap), slices_(workers) {
    // Allocated here, on the launching thread; see two_stage_symbolic's
    // staging for why pool workers do not allocate.
    for (auto& slice : slices_) slice.reserve(PlainWorkspace::slots(n, qcap));
  }

  /// True for a bounded-queue pass (Algorithm 4's low-frontier ranges).
  bool bounded() const { return qcap_ < static_cast<std::size_t>(n_); }

  PlainWorkspace workspace(const gpusim::KernelContext& ctx) {
    std::vector<index_t>& slice = slices_[ctx.worker()];
    if (slice.empty()) slice.assign(PlainWorkspace::slots(n_, qcap_), -1);
    return PlainWorkspace::from_slice_bounded(slice, n_, qcap_);
  }

 private:
  index_t n_;
  std::size_t qcap_;
  std::vector<std::vector<index_t>> slices_;
};

/// What a pass does: `row(row, scratch, ctx)` processes one row in a
/// kernel block and returns true if the row overflowed the pass's bounded
/// queues; `after_launch`, if set, runs on the launching thread after each
/// chunk's launch.
struct PassBody {
  std::function<bool(index_t, PassScratch&, gpusim::KernelContext&)> row;
  std::function<void()> after_launch;
};

/// Runs one chunked kernel pass over `rows` with queue capacity `qcap`.
/// Rows for which `body.row` returns true are appended to *overflow for
/// reprocessing (must be non-null whenever qcap < n).
PassResult chunked_pass(gpusim::Device& dev, const Csr& a,
                        std::span<const index_t> rows, std::size_t qcap,
                        double warp_eff, const char* name,
                        const PassBody& body, std::vector<index_t>* overflow) {
  PassResult pr;
  if (rows.empty()) return pr;
  const index_t n = a.n;
  const std::size_t bytes_per_row =
      PlainWorkspace::slots(n, qcap) * sizeof(index_t);
  const std::size_t free = dev.free_bytes();
  E2ELU_CHECK_MSG(free >= bytes_per_row,
                  "device cannot hold even one row's symbolic scratch ("
                      << bytes_per_row << " bytes needed, " << free
                      << " free)");
  std::size_t chunk =
      std::min<std::size_t>(rows.size(), free / bytes_per_row);
  // The computed chunk fits free_bytes by construction, but the free-space
  // probe races other consumers (and fault injection fails allocations
  // outright), so the scratch reservation keeps halving the chunk until it
  // lands. Smaller chunks only cost extra kernel iterations — the result
  // is identical.
  gpusim::RawDeviceAllocation reservation;
  for (;;) {
    try {
      reservation = gpusim::RawDeviceAllocation(dev, chunk * bytes_per_row);
      break;
    } catch (const gpusim::OutOfDeviceMemory&) {
      if (chunk <= 1) throw;
      chunk /= 2;
      trace::MetricsRegistry::global()
          .counter("recovery.symbolic.chunk_retry")
          .add(1);
    }
  }
  PassScratch scratch(dev.num_workers(), n, qcap);

  std::mutex overflow_mutex;
  pr.chunk_rows = static_cast<index_t>(chunk);
  pr.num_chunks = static_cast<index_t>((rows.size() + chunk - 1) / chunk);
  for (std::size_t begin = 0; begin < rows.size(); begin += chunk) {
    const std::size_t count = std::min(chunk, rows.size() - begin);
    TRACE_SPAN("symbolic.chunk", dev,
               {{"stage", name},
                {"chunk", begin / chunk},
                {"rows", count},
                {"queue_cap", qcap}});
    dev.launch(
        {.name = name,
         .blocks = static_cast<std::int64_t>(count),
         .threads_per_block = 256,
         .warp_efficiency = warp_eff},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          const index_t row = rows[begin + static_cast<std::size_t>(b)];
          if (body.row(row, scratch, ctx)) {
            E2ELU_CHECK_MSG(overflow != nullptr,
                            "row " << row << " overflowed a full-size queue");
            std::lock_guard<std::mutex> lock(overflow_mutex);
            overflow->push_back(row);
          }
        });
    if (body.after_launch) body.after_launch();
  }
  return pr;
}

/// Shared two-stage skeleton. `run_pass(name, body)` is invoked once per
/// stage and encapsulates the row partitioning strategy (fixed chunks vs
/// Algorithm 4's two-part split).
using PassRunner = std::function<PassResult(const char*, const PassBody&)>;

SymbolicResult two_stage_symbolic(gpusim::Device& dev, const Csr& a,
                                  const PassRunner& run_pass) {
  WallTimer timer;
  const index_t n = a.n;
  const std::uint64_t ops_before = dev.stats().kernel_ops;

  SymbolicResult res;
  res.fill_count.assign(n, 0);

  // What symbolic_1 learns of a row, so symbolic_2 need not traverse it
  // again: where its columns (in emission order) sit in `recorded`, the
  // traversal's ops, and whether it overflowed its bounded-queue pass
  // (then it spills again in stage 2).
  struct RowRecord {
    std::size_t begin = 0;
    std::size_t len = 0;
    std::uint64_t ops = 0;
    bool overflowed = false;
  };
  std::vector<RowRecord> records(static_cast<std::size_t>(n));
  std::vector<index_t> recorded;
  // A block stages its row (the row id, the column count, the columns) in
  // its worker's buffer; after each launch the launching thread moves the
  // staged rows to `recorded` and reserves every buffer twice what the
  // whole launch staged (before the first launch: twice nnz(A), as a row
  // holds at least its own nonzeros). So the launching thread allocates
  // the record and, unless a launch outgrows its reservation, the staging
  // too: memory a pool worker allocates stays in that worker's allocator
  // arena, where the rest of the pipeline cannot reuse it. Reserved
  // capacity a worker never touches costs no resident memory.
  std::vector<std::vector<index_t>> staging(dev.num_workers());
  for (std::vector<index_t>& stage : staging) {
    stage.reserve(2 * a.col_idx.size());
  }

  // Stage 1 (symbolic_1): count fill per row.
  gpusim::DeviceBuffer<index_t> d_fill_count(dev, static_cast<std::size_t>(n));
  {
    TRACE_SPAN("symbolic.stage1", dev, {{"rows", n}});
    const PassResult pr = run_pass(
        "symbolic_1",
        {.row =
             [&](index_t row, PassScratch& scratch,
                 gpusim::KernelContext& ctx) {
               std::vector<index_t>& stage = staging[ctx.worker()];
               stage.push_back(row);
               stage.push_back(0);
               const std::size_t begin = stage.size();
               PlainWorkspace ws = scratch.workspace(ctx);
               const RowStats st = fill2_row(a, row, ws, [&](index_t col) {
                 stage.push_back(col);
               });
               RowRecord& rec = records[static_cast<std::size_t>(row)];
               if (st.overflow) {
                 stage.resize(begin - 2);
                 rec.overflowed = true;
                 return true;
               }
               stage[begin - 1] = static_cast<index_t>(stage.size() - begin);
               rec.ops = st.ops;
               d_fill_count[static_cast<std::size_t>(row)] = st.fill_count;
               ctx.add_ops(st.ops);
               return false;
             },
         .after_launch =
             [&] {
               std::size_t staged = 0;
               for (std::vector<index_t>& stage : staging) {
                 staged += stage.size();
                 for (auto it = stage.begin(); it != stage.end();) {
                   RowRecord& rec = records[static_cast<std::size_t>(*it++)];
                   rec.len = static_cast<std::size_t>(*it++);
                   rec.begin = recorded.size();
                   recorded.insert(recorded.end(), it,
                                   it + static_cast<std::ptrdiff_t>(rec.len));
                   it += static_cast<std::ptrdiff_t>(rec.len);
                 }
                 stage.clear();
               }
               for (std::vector<index_t>& stage : staging) {
                 stage.reserve(2 * staged);
               }
             }});
    res.chunk_rows = pr.chunk_rows;
    res.num_chunks = pr.num_chunks;
  }
  std::vector<std::vector<index_t>>().swap(staging);

  // Device prefix sum over the counts -> row offsets (Algorithm 3 line 7).
  res.filled.n = n;
  res.filled.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  {
    TRACE_SPAN("symbolic.prefix_sum", dev);
    dev.launch({.name = "prefix_sum",
                .blocks = (n + 255) / 256,
                .threads_per_block = 256},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 const index_t lo = static_cast<index_t>(b) * 256;
                 const index_t hi = std::min(n, lo + 256);
                 ctx.add_ops(static_cast<std::uint64_t>(hi - lo));
               });
    for (index_t i = 0; i < n; ++i) {
      res.filled.row_ptr[i + 1] =
          res.filled.row_ptr[i] + d_fill_count[static_cast<std::size_t>(i)];
    }
    std::copy(d_fill_count.data(), d_fill_count.data() + n,
              res.fill_count.begin());
  }

  // Allocate the factorized pattern on the device (Algorithm 3 line 8).
  // The host writes the pattern straight into the result, so the device
  // copy is a reservation only.
  const offset_t total = res.filled.nnz();
  gpusim::RawDeviceAllocation d_as_cols(
      dev, static_cast<std::size_t>(total) * sizeof(index_t));
  res.filled.col_idx.resize(static_cast<std::size_t>(total));

  // Stage 2 (symbolic_2): record positions, then sort each row segment so
  // the CSC conversion and the numeric binary search see sorted indices.
  // Each block charges its row's traversal again but copies stage 1's
  // record instead of re-running it.
  {
    TRACE_SPAN("symbolic.stage2", dev, {{"rows", n}, {"fill_nnz", total}});
    run_pass("symbolic_2", {.row = [&](index_t row, PassScratch& scratch,
                                       gpusim::KernelContext& ctx) {
      const RowRecord& rec = records[static_cast<std::size_t>(row)];
      if (rec.overflowed && scratch.bounded()) return true;
      const offset_t seg_begin = res.filled.row_ptr[row];
      const auto len =
          static_cast<std::size_t>(res.filled.row_ptr[row + 1] - seg_begin);
      E2ELU_CHECK_MSG(rec.len == len, "stage-1 record of row "
                                          << row << " holds " << rec.len
                                          << " columns, its row_ptr span "
                                          << len);
      const index_t* cols = recorded.data() + rec.begin;
      index_t* out = res.filled.col_idx.data() + seg_begin;
      std::copy(cols, cols + len, out);
      std::sort(out, out + len);
      ctx.add_ops(rec.ops + sort_ops(len));
      return false;
    }});
  }
  std::vector<index_t>().swap(recorded);

  res.ops = dev.stats().kernel_ops - ops_before;
  res.wall_ms = timer.millis();
  return res;
}

}  // namespace

SymbolicResult symbolic_out_of_core(gpusim::Device& dev, const Csr& a,
                                    const SymbolicOptions& /*opt*/) {
  // Keep the input matrix resident for the whole run (it fits: nnz-sized;
  // it is the O(n)-per-row scratch that does not).
  gpusim::DeviceBuffer<offset_t> d_row_ptr(dev, std::span(a.row_ptr));
  gpusim::DeviceBuffer<index_t> d_col_idx(dev, std::span(a.col_idx));

  std::vector<index_t> all_rows(static_cast<std::size_t>(a.n));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  const double warp_eff = warp_eff_for(dev, a);

  return two_stage_symbolic(
      dev, a, [&](const char* name, const PassBody& body) {
        return chunked_pass(dev, a, all_rows, static_cast<std::size_t>(a.n),
                            warp_eff, name, body, nullptr);
      });
}

SymbolicResult symbolic_out_of_core_dynamic(gpusim::Device& dev, const Csr& a,
                                            const SymbolicOptions& opt) {
  return symbolic_out_of_core_multipart(dev, a, /*parts=*/2, opt);
}

SymbolicResult symbolic_out_of_core_multipart(gpusim::Device& dev,
                                              const Csr& a, index_t parts,
                                              const SymbolicOptions& opt) {
  E2ELU_CHECK_MSG(parts >= 1, "need at least one partition");
  if (parts == 1) return symbolic_out_of_core(dev, a, opt);

  const index_t n = a.n;
  gpusim::DeviceBuffer<offset_t> d_row_ptr(dev, std::span(a.row_ptr));
  gpusim::DeviceBuffer<index_t> d_col_idx(dev, std::span(a.col_idx));
  const double warp_eff = warp_eff_for(dev, a);

  // --- Planner: sample the frontier-growth curve (Figure 3) on device. ---
  trace::Span span_plan("symbolic.plan", dev, {{"parts", parts}});
  const index_t num_samples = std::min<index_t>(opt.planner_samples, n);
  std::vector<index_t> sample_rows(static_cast<std::size_t>(num_samples));
  for (index_t s = 0; s < num_samples; ++s) {
    sample_rows[s] =
        static_cast<index_t>((static_cast<std::int64_t>(s) + 1) * n /
                             (num_samples + 1));
  }
  std::vector<index_t> sample_peak(static_cast<std::size_t>(num_samples), 0);
  chunked_pass(dev, a, sample_rows, static_cast<std::size_t>(n), warp_eff,
               "frontier_sample",
               {.row = [&](index_t row, PassScratch& scratch,
                           gpusim::KernelContext& ctx) {
                 PlainWorkspace ws = scratch.workspace(ctx);
                 const RowStats st = fill2_row(a, row, ws, [](index_t) {});
                 ctx.add_ops(st.ops);
                 const auto it = std::find(sample_rows.begin(),
                                           sample_rows.end(), row);
                 sample_peak[it - sample_rows.begin()] = st.max_frontier;
                 return false;
               }},
               nullptr);

  // n1 = first row where the frontier reaches the "large" fraction of the
  // peak; rows before it form the low-footprint partitions.
  const index_t peak =
      num_samples == 0 ? 0
                       : *std::max_element(sample_peak.begin(), sample_peak.end());
  const double threshold = opt.large_frontier_fraction * peak;
  index_t n1 = n;
  for (index_t s = 0; s < num_samples; ++s) {
    if (static_cast<double>(sample_peak[s]) >= threshold && peak > 0) {
      n1 = sample_rows[s];
      break;
    }
  }

  // Subdivide [0, n1) into parts-1 ranges; each range's queue bound comes
  // from the frontier peak its samples saw (a margin covers sampling
  // error; the rare row that still overflows migrates to the full-size
  // tail partition).
  struct Range {
    index_t begin, end;
    std::size_t qbound;
  };
  std::vector<Range> ranges;
  const index_t bounded_parts = parts - 1;
  for (index_t pidx = 0; pidx < bounded_parts; ++pidx) {
    Range r;
    r.begin = static_cast<index_t>(static_cast<std::int64_t>(n1) * pidx /
                                   bounded_parts);
    r.end = static_cast<index_t>(static_cast<std::int64_t>(n1) * (pidx + 1) /
                                 bounded_parts);
    index_t range_peak = 0;
    for (index_t s = 0; s < num_samples; ++s) {
      if (sample_rows[s] >= r.begin && sample_rows[s] < r.end) {
        range_peak = std::max(range_peak, sample_peak[s]);
      }
    }
    r.qbound = std::min<std::size_t>(
        static_cast<std::size_t>(n),
        std::max<std::size_t>(
            64, static_cast<std::size_t>(opt.queue_bound_margin *
                                         (range_peak + 1))));
    if (r.begin < r.end) ranges.push_back(r);
  }

  span_plan.attr("n1", n1);
  span_plan.attr("peak_frontier", peak);
  span_plan.end();

  std::vector<index_t> tail(static_cast<std::size_t>(n - n1));
  std::iota(tail.begin(), tail.end(), n1);

  SymbolicResult res = two_stage_symbolic(
      dev, a, [&](const char* name, const PassBody& body) {
        PassResult total;
        std::vector<index_t> spill = tail;
        for (const Range& r : ranges) {
          std::vector<index_t> rows(static_cast<std::size_t>(r.end - r.begin));
          std::iota(rows.begin(), rows.end(), r.begin);
          std::vector<index_t> overflow;
          const PassResult pr = chunked_pass(dev, a, rows, r.qbound, warp_eff,
                                             name, body, &overflow);
          if (total.chunk_rows == 0) total.chunk_rows = pr.chunk_rows;
          total.num_chunks += pr.num_chunks;
          spill.insert(spill.end(), overflow.begin(), overflow.end());
        }
        std::sort(spill.begin(), spill.end());
        const PassResult pr_tail =
            chunked_pass(dev, a, spill, static_cast<std::size_t>(n), warp_eff,
                         name, body, nullptr);
        total.num_chunks += pr_tail.num_chunks;
        return total;
      });
  return res;
}

}  // namespace e2elu::symbolic
