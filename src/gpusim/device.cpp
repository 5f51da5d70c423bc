#include "gpusim/device.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fault/fault.hpp"
#include "support/thread_pool.hpp"

namespace e2elu::gpusim {

DeviceSpec DeviceSpec::v100() { return DeviceSpec{}; }

double DeviceSpec::simt_efficiency(double avg_row_len) const {
  const double lane = std::clamp(avg_row_len / warp_width, 1.0 / 32.0, 1.0);
  // lane occupancy * transaction efficiency; the latter improves with the
  // square root of the run length (partial coalescing).
  return lane * std::sqrt(lane);
}

DeviceSpec DeviceSpec::v100_with_memory(std::size_t memory_bytes) {
  DeviceSpec spec;
  spec.memory_bytes = memory_bytes;
  return spec;
}

void Device::begin_launch(const LaunchConfig& cfg) const {
  E2ELU_CHECK_MSG(cfg.blocks >= 0, "negative grid size");
  E2ELU_CHECK_MSG(cfg.threads_per_block >= 1 &&
                      cfg.threads_per_block <= spec_.max_threads_per_block,
                  "block size " << cfg.threads_per_block
                                << " exceeds device limit");
  E2ELU_CHECK(cfg.warp_efficiency > 0.0 && cfg.warp_efficiency <= 1.0);
  E2ELU_CHECK_MSG(cfg.fused_levels >= 1, "fused_levels must be >= 1");
  E2ELU_CHECK_MSG(cfg.stream == nullptr || &cfg.stream->device() == this,
                  "launch on a stream of a different device");

  if (fault::armed() &&
      fault::Injector::instance().should_fail_launch(cfg.name)) {
    throw LaunchFailure(std::string("injected launch failure: ") + cfg.name);
  }
}

void Device::launch(const LaunchConfig& cfg, const KernelBody& body) {
  begin_launch(cfg);
  std::uint64_t ops = 0;
  if (cfg.blocks == 1) {
    // A one-block grid runs on the calling thread: waking the pool costs
    // far more host time than the block itself, and the modeled cost
    // depends only on the op count.
    KernelContext ctx;
    body(0, ctx);
    ops = ctx.ops();
  } else if (cfg.blocks > 1) {
    // Execute every block on the pool, one work counter per worker.
    ThreadPool& pool = kernel_pool();
    std::vector<KernelContext> contexts(pool.num_threads());
    for (std::size_t w = 0; w < contexts.size(); ++w) contexts[w].worker_ = w;
    pool.parallel_for_ranges(
        static_cast<std::size_t>(cfg.blocks),
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
          KernelContext& ctx = contexts[worker];
          for (std::size_t b = begin; b < end; ++b) {
            body(static_cast<std::int64_t>(b), ctx);
          }
        });
    for (const KernelContext& ctx : contexts) ops += ctx.ops();
  }
  record_launch(cfg, ops);
}

ThreadPool& Device::kernel_pool() const {
  return pool_ != nullptr ? *pool_ : ThreadPool::global();
}

std::size_t Device::num_workers() const { return kernel_pool().num_threads(); }

void Device::charge(const LaunchConfig& cfg, std::uint64_t ops) {
  E2ELU_CHECK_MSG(cfg.blocks > 0 || ops == 0,
                  "charge of " << ops << " ops to an empty grid");
  begin_launch(cfg);
  record_launch(cfg, ops);
}

void Device::record_launch(const LaunchConfig& cfg, std::uint64_t ops) {
  // Launch overhead is charged even for empty grids (a real launch would
  // still round-trip the driver). A fused launch pays it exactly once —
  // that amortization is the point of level fusion.
  const double launch_us =
      cfg.from_device ? spec_.device_launch_us : spec_.host_launch_us;
  if (cfg.from_device) {
    ++stats_.device_launches;
  } else {
    ++stats_.host_launches;
  }
  stats_.sim_launch_us += launch_us;
  if (cfg.fused_levels > 1) {
    ++stats_.fused_launches;
    stats_.fused_levels += static_cast<std::uint64_t>(cfg.fused_levels);
  }

  double kernel_us = 0;
  if (cfg.blocks > 0) {
    stats_.kernel_ops += ops;
    const double throughput =
        spec_.gpu_ops_per_us * occupancy(cfg.blocks) * cfg.warp_efficiency;
    kernel_us = static_cast<double>(ops) / throughput;
    stats_.sim_kernel_us += kernel_us;
    stats_.sim_occupancy_us += kernel_us * occupancy(cfg.blocks);
  }

  if (cfg.stream != nullptr) {
    // Async launch: the host issue cost serializes on the host thread (a
    // single thread calls into the driver), but the kernel itself only
    // waits for its stream — that is where overlap comes from.
    host_issue_us_ = std::max(host_issue_us_, serial_done_us_) + launch_us;
    const double start = std::max(cfg.stream->ready_us_, host_issue_us_);
    cfg.stream->ready_us_ = start + kernel_us;
    stats_.sim_elapsed_us = std::max(
        {stats_.sim_elapsed_us, host_issue_us_, cfg.stream->ready_us_});
  } else {
    advance_serial(launch_us + kernel_us);
  }
}

void Device::advance_serial(double cost_us) {
  double t0 = std::max(serial_done_us_, host_issue_us_);
  for (const Stream* s : streams_) t0 = std::max(t0, s->ready_us_);
  const double t1 = t0 + cost_us;
  serial_done_us_ = host_issue_us_ = t1;
  for (Stream* s : streams_) s->ready_us_ = t1;
  stats_.sim_elapsed_us = std::max(stats_.sim_elapsed_us, t1);
}

double Device::synchronize() {
  advance_serial(0.0);
  return stats_.sim_elapsed_us;
}

void Device::copy_h2d(std::size_t bytes) {
  stats_.h2d_bytes += bytes;
  const double us = static_cast<double>(bytes) / (spec_.pcie_gbps * 1e3);
  stats_.sim_transfer_us += us;
  advance_serial(us);
}

void Device::copy_d2h(std::size_t bytes) {
  stats_.d2h_bytes += bytes;
  const double us = static_cast<double>(bytes) / (spec_.pcie_gbps * 1e3);
  stats_.sim_transfer_us += us;
  advance_serial(us);
}

void Device::copy_async(std::size_t bytes, Stream& stream, bool h2d) {
  E2ELU_CHECK_MSG(&stream.device() == this,
                  "async copy on a stream of a different device");
  (h2d ? stats_.h2d_bytes : stats_.d2h_bytes) += bytes;
  const double us = static_cast<double>(bytes) / (spec_.pcie_gbps * 1e3);
  stats_.sim_transfer_us += us + spec_.prefetch_call_us;
  // The enqueue serializes on the host thread; the transfer itself only
  // waits for prior work on its stream — mirrors the async launch path.
  host_issue_us_ =
      std::max(host_issue_us_, serial_done_us_) + spec_.prefetch_call_us;
  const double start = std::max(stream.ready_us_, host_issue_us_);
  stream.ready_us_ = start + us;
  stats_.sim_elapsed_us =
      std::max({stats_.sim_elapsed_us, host_issue_us_, stream.ready_us_});
}

void Device::copy_h2d_async(std::size_t bytes, Stream& stream) {
  copy_async(bytes, stream, /*h2d=*/true);
}

void Device::copy_d2h_async(std::size_t bytes, Stream& stream) {
  copy_async(bytes, stream, /*h2d=*/false);
}

void Device::record_page_fault(bool starts_new_group) {
  ++stats_.page_faults;
  if (starts_new_group) {
    ++stats_.page_fault_groups;
    double cost = spec_.fault_group_us;
    if (fault::armed()) {
      cost *= fault::Injector::instance().um_fault_cost();
    }
    stats_.sim_fault_us += cost;
    advance_serial(cost);
  }
}

void Device::record_prefetch(std::size_t bytes) {
  stats_.prefetch_bytes += bytes;
  // cudaMemPrefetchAsync on never-populated managed pages is an
  // allocation + mapping operation, not a PCIe copy — the cost is the
  // async enqueue.
  stats_.sim_transfer_us += spec_.prefetch_call_us;
  advance_serial(spec_.prefetch_call_us);
}

void Device::allocate(std::size_t bytes) {
  if (fault::armed() &&
      fault::Injector::instance().should_fail_alloc(bytes)) {
    std::ostringstream os;
    os << "injected device OOM: requested " << bytes << " bytes";
    throw OutOfDeviceMemory(os.str());
  }
  const std::size_t before = allocated_.fetch_add(bytes, std::memory_order_relaxed);
  if (before + bytes > spec_.memory_bytes) {
    allocated_.fetch_sub(bytes, std::memory_order_relaxed);
    std::ostringstream os;
    os << "device OOM: requested " << bytes << " bytes with " << before
       << " of " << spec_.memory_bytes << " already allocated";
    throw OutOfDeviceMemory(os.str());
  }
}

void Device::deallocate(std::size_t bytes) noexcept {
  allocated_.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace e2elu::gpusim
