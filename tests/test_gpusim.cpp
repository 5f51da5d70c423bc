// The simulated device: allocation accounting, kernel execution and the
// cost model, unified-memory paging, dynamic parallelism.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "fault/fault.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_buffer.hpp"
#include "gpusim/unified_buffer.hpp"
#include "numeric/numeric.hpp"
#include "support/thread_pool.hpp"

namespace e2elu::gpusim {
namespace {

DeviceSpec small_spec(std::size_t mem = 1u << 20) {
  return DeviceSpec::v100_with_memory(mem);
}

TEST(DeviceMemory, AllocationAccountingAndRaii) {
  Device dev(small_spec());
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  {
    DeviceBuffer<double> a(dev, 1000);
    EXPECT_EQ(dev.allocated_bytes(), 8000u);
    DeviceBuffer<int> b(dev, 10);
    EXPECT_EQ(dev.allocated_bytes(), 8040u);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(DeviceMemory, OutOfMemoryThrowsAndRollsBack) {
  Device dev(small_spec(1024));
  DeviceBuffer<char> half(dev, 600);
  EXPECT_THROW(DeviceBuffer<char>(dev, 600), OutOfDeviceMemory);
  EXPECT_EQ(dev.allocated_bytes(), 600u);  // failed alloc left no residue
  DeviceBuffer<char> rest(dev, 424);       // exactly fits
  EXPECT_EQ(dev.free_bytes(), 0u);
}

TEST(DeviceMemory, MoveTransfersOwnership) {
  Device dev(small_spec());
  DeviceBuffer<int> a(dev, 100);
  RawDeviceAllocation raw(dev, 64);
  RawDeviceAllocation moved(std::move(raw));
  EXPECT_EQ(moved.bytes(), 64u);
  EXPECT_EQ(dev.allocated_bytes(), 464u);
}

TEST(Kernel, ExecutesEveryBlockAndCountsOps) {
  Device dev(small_spec());
  std::vector<std::atomic<int>> hits(257);
  dev.launch({.name = "t", .blocks = 257, .threads_per_block = 128},
             [&](std::int64_t b, KernelContext& ctx) {
               hits[b].fetch_add(1, std::memory_order_relaxed);
               ctx.add_ops(3);
             });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(dev.stats().kernel_ops, 257u * 3);
  EXPECT_EQ(dev.stats().host_launches, 1u);
}

TEST(Kernel, LaunchOverheadChargedEvenForEmptyGrid) {
  Device dev(small_spec());
  dev.launch({.name = "empty", .blocks = 0}, [](std::int64_t, KernelContext&) {
    FAIL() << "body must not run for an empty grid";
  });
  EXPECT_EQ(dev.stats().host_launches, 1u);
  EXPECT_DOUBLE_EQ(dev.stats().sim_launch_us, dev.spec().host_launch_us);
}

TEST(Kernel, OccupancyScalesSimulatedTime) {
  // Same total ops at 160 blocks vs 16 blocks: the low-occupancy launch
  // must be ~10x slower in simulated time.
  Device dev_full(small_spec()), dev_tenth(small_spec());
  dev_full.launch({.name = "f", .blocks = 160},
                  [](std::int64_t, KernelContext& ctx) { ctx.add_ops(100); });
  dev_tenth.launch({.name = "t", .blocks = 16},
                   [](std::int64_t, KernelContext& ctx) { ctx.add_ops(1000); });
  EXPECT_NEAR(dev_tenth.stats().sim_kernel_us / dev_full.stats().sim_kernel_us,
              10.0, 1e-9);
}

TEST(Kernel, WarpEfficiencyScalesSimulatedTime) {
  Device a(small_spec()), b(small_spec());
  a.launch({.name = "x", .blocks = 160, .warp_efficiency = 1.0},
           [](std::int64_t, KernelContext& ctx) { ctx.add_ops(64); });
  b.launch({.name = "x", .blocks = 160, .warp_efficiency = 0.25},
           [](std::int64_t, KernelContext& ctx) { ctx.add_ops(64); });
  EXPECT_NEAR(b.stats().sim_kernel_us / a.stats().sim_kernel_us, 4.0, 1e-9);
}

TEST(Kernel, DynamicParallelismLaunchesAreCheaper) {
  Device dev(small_spec());
  dev.launch({.name = "host", .blocks = 1},
             [](std::int64_t, KernelContext&) {});
  const double host_cost = dev.stats().sim_launch_us;
  dev.launch({.name = "child", .blocks = 1, .from_device = true},
             [](std::int64_t, KernelContext&) {});
  const double child_cost = dev.stats().sim_launch_us - host_cost;
  EXPECT_LT(child_cost, host_cost / 4);
  EXPECT_EQ(dev.stats().device_launches, 1u);
}

TEST(Kernel, RejectsOversizedBlocks) {
  Device dev(small_spec());
  EXPECT_THROW(dev.launch({.name = "bad", .blocks = 1,
                           .threads_per_block = 2048},
                          [](std::int64_t, KernelContext&) {}),
               Error);
}

TEST(SimtEfficiency, MonotoneInDensityAndCapped) {
  const DeviceSpec spec = DeviceSpec::v100();
  EXPECT_DOUBLE_EQ(spec.simt_efficiency(32.0), 1.0);
  EXPECT_DOUBLE_EQ(spec.simt_efficiency(1000.0), 1.0);
  EXPECT_LT(spec.simt_efficiency(4.0), spec.simt_efficiency(16.0));
  EXPECT_GT(spec.simt_efficiency(0.0), 0.0);  // floor, never zero
}

TEST(Transfers, ChargedAtPcieRate) {
  Device dev(small_spec());
  dev.copy_h2d(12'000'000);  // 12 MB at 12 GB/s = 1000 us
  EXPECT_NEAR(dev.stats().sim_transfer_us, 1000.0, 1.0);
  EXPECT_EQ(dev.stats().h2d_bytes, 12'000'000u);
}

TEST(DeviceBuffer, CopiesChargeTransfers) {
  Device dev(small_spec());
  std::vector<int> host(1000, 7);
  DeviceBuffer<int> buf(dev, std::span<const int>(host));
  EXPECT_EQ(dev.stats().h2d_bytes, 4000u);
  std::vector<int> back(1000);
  buf.copy_to_host(back);
  EXPECT_EQ(back, host);
  EXPECT_EQ(dev.stats().d2h_bytes, 4000u);
}

// ---------------------------------------------------------------------------
// Unified memory
// ---------------------------------------------------------------------------

TEST(UnifiedMemory, ColdTouchFaultsOncePerPage) {
  Device dev(small_spec(1u << 22));
  UnifiedBuffer<int> buf(dev, 4096);  // 16 KiB = 4 pages at 4 KiB
  UnifiedBuffer<int>::Stream s;
  for (std::size_t i = 0; i < buf.size(); ++i) buf.gpu_at(s, i) = 1;
  EXPECT_EQ(dev.stats().page_faults, 4u);
  // Sequential pages in one stream coalesce into a single group.
  EXPECT_EQ(dev.stats().page_fault_groups, 1u);
  // Re-touch: resident, no further faults.
  for (std::size_t i = 0; i < buf.size(); ++i) buf.gpu_at(s, i) += 1;
  EXPECT_EQ(dev.stats().page_faults, 4u);
  EXPECT_EQ(buf.gpu_at(s, 100), 2);
}

TEST(UnifiedMemory, SeparateStreamsDoNotCoalesce) {
  Device dev(small_spec(1u << 22));
  UnifiedBuffer<int> buf(dev, 4096);
  UnifiedBuffer<int>::Stream s1, s2;
  buf.gpu_at(s1, 0);
  buf.gpu_at(s2, 1024);  // next page, but a different block's stream
  EXPECT_EQ(dev.stats().page_fault_groups, 2u);
}

TEST(UnifiedMemory, OversubscriptionEvictsAndRefaults) {
  // Device budget: 16 KiB = 4 pages; buffer: 8 pages.
  Device dev(small_spec(4 * 4096));
  UnifiedBuffer<int> buf(dev, 8 * 1024);
  UnifiedBuffer<int>::Stream s;
  for (std::size_t p = 0; p < 8; ++p) buf.gpu_at(s, p * 1024);
  EXPECT_EQ(dev.stats().page_faults, 8u);
  EXPECT_LE(buf.resident_pages(), buf.budget_pages());
  // Page 0 was evicted by FIFO; touching it faults again.
  buf.gpu_at(s, 0);
  EXPECT_EQ(dev.stats().page_faults, 9u);
}

TEST(UnifiedMemory, PrefetchPreventsFaults) {
  Device dev(small_spec(1u << 22));
  UnifiedBuffer<int> buf(dev, 8 * 1024);
  UnifiedBuffer<int>::Stream s;
  buf.prefetch(0, buf.size());
  for (std::size_t i = 0; i < buf.size(); i += 64) buf.gpu_at(s, i);
  EXPECT_EQ(dev.stats().page_faults, 0u);
  EXPECT_GT(dev.stats().prefetch_bytes, 0u);
}

TEST(UnifiedMemory, EvictAllResetsResidency) {
  Device dev(small_spec(1u << 22));
  UnifiedBuffer<int> buf(dev, 1024);
  UnifiedBuffer<int>::Stream s;
  buf.gpu_at(s, 0);
  const auto faults_before = dev.stats().page_faults;
  buf.evict_all();
  buf.gpu_at(s, 0);
  EXPECT_EQ(dev.stats().page_faults, faults_before + 1);
}

TEST(UnifiedMemory, HostSpanEvictsFromDevice) {
  Device dev(small_spec(1u << 22));
  UnifiedBuffer<int> buf(dev, 1024);
  UnifiedBuffer<int>::Stream s;
  buf.gpu_at(s, 0) = 5;
  auto host = buf.host_span();
  EXPECT_EQ(host[0], 5);
  EXPECT_EQ(buf.resident_pages(), 0u);
}

TEST(DeviceStats, PercentagesAreConsistent) {
  Device dev(small_spec());
  EXPECT_EQ(dev.stats().fault_time_pct(), 0.0);  // no time at all
  dev.launch({.name = "w", .blocks = 160},
             [](std::int64_t, KernelContext& ctx) { ctx.add_ops(32000); });
  UnifiedBuffer<int> buf(dev, 1024);
  UnifiedBuffer<int>::Stream s;
  buf.gpu_at(s, 0);
  const auto& st = dev.stats();
  EXPECT_GT(st.fault_time_pct(), 0.0);
  EXPECT_LE(st.fault_time_pct(), 100.0);
  EXPECT_NEAR(st.sim_total_us(), st.sim_kernel_us + st.sim_launch_us +
                                     st.sim_transfer_us + st.sim_fault_us,
              1e-9);
}

// ---------------------------------------------------------------------------
// Streams, events, and the overlap-aware time model
// ---------------------------------------------------------------------------

TEST(Streams, SerialWorkKeepsElapsedEqualToTotal) {
  Device dev(small_spec(1u << 22));
  dev.launch({.name = "a", .blocks = 160},
             [](std::int64_t, KernelContext& ctx) { ctx.add_ops(32000); });
  dev.copy_h2d(1 << 20);
  dev.launch({.name = "b", .blocks = 16},
             [](std::int64_t, KernelContext& ctx) { ctx.add_ops(1000); });
  // No streams: everything serializes, so the overlap-aware wall clock
  // must equal the summed component times.
  EXPECT_NEAR(dev.stats().sim_elapsed_us, dev.stats().sim_total_us(), 1e-9);
  EXPECT_NEAR(dev.synchronize(), dev.stats().sim_total_us(), 1e-9);
}

TEST(Streams, ConcurrentKernelsOverlapInTheSimClock) {
  Device dev(small_spec());
  const double L = dev.spec().host_launch_us;
  // One kernel's time at full occupancy: 160 blocks * 200k ops = 100 us.
  const auto body = [](std::int64_t, KernelContext& ctx) {
    ctx.add_ops(200'000);
  };
  const double K = 160.0 * 200'000 / dev.spec().gpu_ops_per_us;
  {
    Stream s1(dev), s2(dev);
    dev.launch({.name = "k1", .blocks = 160, .stream = &s1}, body);
    dev.launch({.name = "k2", .blocks = 160, .stream = &s2}, body);
    // Host issue serializes (2L); the kernels themselves overlap: the
    // second starts at 2L, so completion is 2L + K, not 2L + 2K.
    EXPECT_NEAR(s1.ready_us(), L + K, 1e-9);
    EXPECT_NEAR(s2.ready_us(), 2 * L + K, 1e-9);
    EXPECT_NEAR(dev.elapsed_us(), 2 * L + K, 1e-9);
  }
  EXPECT_LT(dev.elapsed_us(), dev.stats().sim_total_us() - K / 2);
  // Destroying the streams joined their timelines into the default one.
  EXPECT_NEAR(dev.synchronize(), 2 * L + K, 1e-9);
}

TEST(Streams, DefaultStreamLaunchIsAFullBarrier) {
  Device dev(small_spec());
  const double L = dev.spec().host_launch_us;
  const auto body = [](std::int64_t, KernelContext& ctx) {
    ctx.add_ops(200'000);
  };
  const double K = 160.0 * 200'000 / dev.spec().gpu_ops_per_us;
  Stream s(dev);
  dev.launch({.name = "async", .blocks = 160, .stream = &s}, body);
  // A null-stream launch starts only after the async work completes and
  // drags every timeline with it.
  dev.launch({.name = "sync", .blocks = 160}, body);
  EXPECT_NEAR(dev.elapsed_us(), (L + K) + (L + K), 1e-9);
  EXPECT_NEAR(s.ready_us(), dev.elapsed_us(), 1e-9);
}

TEST(Streams, EventOrdersWorkAcrossStreams) {
  Device dev(small_spec());
  const double L = dev.spec().host_launch_us;
  const auto body = [](std::int64_t, KernelContext& ctx) {
    ctx.add_ops(200'000);
  };
  const double K = 160.0 * 200'000 / dev.spec().gpu_ops_per_us;
  Stream s1(dev), s2(dev);
  dev.launch({.name = "produce", .blocks = 160, .stream = &s1}, body);
  Event done;
  done.record(s1);
  EXPECT_NEAR(done.timestamp_us(), L + K, 1e-9);
  s2.wait(done);  // consumer ordered after the producer, not after 0
  dev.launch({.name = "consume", .blocks = 160, .stream = &s2}, body);
  EXPECT_NEAR(s2.ready_us(), (L + K) + K, 1e-9);
}

TEST(Streams, LaunchOnForeignStreamIsRejected) {
  Device a(small_spec()), b(small_spec());
  Stream sb(b);
  EXPECT_THROW(a.launch({.name = "x", .blocks = 1, .stream = &sb},
                        [](std::int64_t, KernelContext&) {}),
               Error);
}

TEST(FusedLaunch, AmortizesOverheadAndCountsLevels) {
  Device dev(small_spec());
  dev.launch({.name = "fused", .blocks = 8, .fused_levels = 5},
             [](std::int64_t, KernelContext& ctx) { ctx.add_ops(10); });
  EXPECT_EQ(dev.stats().host_launches, 1u);
  EXPECT_EQ(dev.stats().fused_launches, 1u);
  EXPECT_EQ(dev.stats().fused_levels, 5u);
  // One launch overhead regardless of how many levels were folded in.
  EXPECT_DOUBLE_EQ(dev.stats().sim_launch_us, dev.spec().host_launch_us);
  // An unfused launch records nothing in the fused counters.
  dev.launch({.name = "plain", .blocks = 8},
             [](std::int64_t, KernelContext& ctx) { ctx.add_ops(10); });
  EXPECT_EQ(dev.stats().fused_launches, 1u);
  EXPECT_THROW(dev.launch({.name = "bad", .blocks = 1, .fused_levels = 0},
                          [](std::int64_t, KernelContext&) {}),
               Error);
}

TEST(Occupancy, WeightedKernelTimeTracksGridSize) {
  Device dev(small_spec());
  dev.launch({.name = "sixteenth", .blocks = 10},
             [](std::int64_t, KernelContext& ctx) { ctx.add_ops(1000); });
  const auto& st = dev.stats();
  // 10 of 160 blocks resident: weighted time is 1/16 of kernel time.
  EXPECT_NEAR(st.sim_occupancy_us, st.sim_kernel_us / 16.0, 1e-12);
  EXPECT_NEAR(st.avg_occupancy(), 1.0 / 16.0, 1e-12);
}

void expect_same_stats(const DeviceStats& a, const DeviceStats& b) {
  EXPECT_EQ(a.host_launches, b.host_launches);
  EXPECT_EQ(a.device_launches, b.device_launches);
  EXPECT_EQ(a.kernel_ops, b.kernel_ops);
  EXPECT_EQ(a.fused_launches, b.fused_launches);
  EXPECT_EQ(a.fused_levels, b.fused_levels);
  EXPECT_EQ(a.sim_kernel_us, b.sim_kernel_us);
  EXPECT_EQ(a.sim_launch_us, b.sim_launch_us);
  EXPECT_EQ(a.sim_occupancy_us, b.sim_occupancy_us);
  EXPECT_EQ(a.sim_elapsed_us, b.sim_elapsed_us);
}

// A charge is an executing launch minus the block bodies: the same config
// and op total must leave every counter and timeline where the launch
// leaves it, on the default stream and on an async one.
TEST(Charge, MatchesAnExecutingLaunch) {
  Device ran(small_spec());
  Device charged(small_spec());
  Stream ran_stream(ran);
  Stream charged_stream(charged);
  const KernelBody body = [](std::int64_t b, KernelContext& ctx) {
    ctx.add_ops(static_cast<std::uint64_t>(b) + 1);
  };
  const LaunchConfig configs[] = {
      {.name = "serial", .blocks = 7, .warp_efficiency = 0.5},
      {.name = "one_block", .blocks = 1},
      {.name = "fused", .blocks = 300, .fused_levels = 3},
  };
  for (const LaunchConfig& cfg : configs) {
    const std::uint64_t ops =
        static_cast<std::uint64_t>(cfg.blocks * (cfg.blocks + 1) / 2);
    ran.launch(cfg, body);
    charged.charge(cfg, ops);
    expect_same_stats(ran.stats(), charged.stats());

    LaunchConfig async = cfg;
    async.stream = &ran_stream;
    ran.launch(async, body);
    async.stream = &charged_stream;
    charged.charge(async, ops);
    expect_same_stats(ran.stats(), charged.stats());
    EXPECT_EQ(ran_stream.ready_us(), charged_stream.ready_us());
  }
  // An empty grid has no blocks to do the work.
  EXPECT_THROW(charged.charge({.name = "empty", .blocks = 0}, 1), Error);
  charged.charge({.name = "empty", .blocks = 0}, 0);
  EXPECT_EQ(charged.stats().host_launches, ran.stats().host_launches + 1);
}

TEST(Charge, HonoursAnArmedLaunchFault) {
  Device dev(small_spec());
  fault::ScopedPlan plan("launch=dense_gather@2");
  dev.charge({.name = "dense_gather", .blocks = 4}, 10);
  EXPECT_THROW(dev.charge({.name = "dense_gather", .blocks = 4}, 10),
               LaunchFailure);
  // The failed launch charged nothing.
  EXPECT_EQ(dev.stats().host_launches, 1u);
  EXPECT_EQ(dev.stats().kernel_ops, 10u);
}

// One-block grids skip the pool: the body runs on the launching thread,
// its ops are counted, and its exception reaches the caller unchanged.
TEST(Kernel, OneBlockGridRunsInlineOnTheCallingThread) {
  ThreadPool pool(4);
  Device dev(small_spec());
  dev.use_pool(pool);
  const std::thread::id caller = std::this_thread::get_id();
  for (int rep = 0; rep < 50; ++rep) {
    std::thread::id ran_on;
    dev.launch({.name = "single", .blocks = 1},
               [&](std::int64_t b, KernelContext& ctx) {
                 EXPECT_EQ(b, 0);
                 ran_on = std::this_thread::get_id();
                 ctx.add_ops(3);
               });
    EXPECT_EQ(ran_on, caller);
  }
  EXPECT_EQ(dev.stats().kernel_ops, 150u);
  EXPECT_EQ(dev.stats().host_launches, 50u);

  try {
    dev.launch({.name = "pivot", .blocks = 1},
               [](std::int64_t, KernelContext&) {
                 throw numeric::ZeroPivotError(7, 0.0);
               });
    ADD_FAILURE() << "the body's exception was swallowed";
  } catch (const numeric::ZeroPivotError& e) {
    EXPECT_EQ(e.column(), 7);
  }
}

// KernelContext::worker() names the pool worker running a block: each
// thread sees one id in [0, num_workers()), and an inline one-block grid
// sees 0.
TEST(Kernel, WorkerIdsAreStablePerThreadAndInRange) {
  ThreadPool pool(3);
  Device dev(small_spec());
  dev.use_pool(pool);
  EXPECT_EQ(dev.num_workers(), 3u);

  std::mutex mutex;
  std::map<std::thread::id, std::set<std::size_t>> ids;
  dev.launch({.name = "many", .blocks = 4096},
             [&](std::int64_t, KernelContext& ctx) {
               std::lock_guard<std::mutex> lock(mutex);
               ids[std::this_thread::get_id()].insert(ctx.worker());
             });
  std::set<std::size_t> seen;
  for (const auto& [thread, workers] : ids) {
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_LT(*workers.begin(), dev.num_workers());
    EXPECT_TRUE(seen.insert(*workers.begin()).second)
        << "two threads share worker " << *workers.begin();
  }

  std::size_t inline_worker = 99;
  dev.launch({.name = "single", .blocks = 1},
             [&](std::int64_t, KernelContext& ctx) {
               inline_worker = ctx.worker();
             });
  EXPECT_EQ(inline_worker, 0u);
}

}  // namespace
}  // namespace e2elu::gpusim
