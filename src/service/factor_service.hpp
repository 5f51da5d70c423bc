// FactorService: multi-tenant LU-as-a-service over the whole pipeline.
//
// The paper's pipeline factors one matrix at a time; the dominant real
// workload — circuit-simulation fleets, GLU3.0's motivating setting —
// resubmits the *same sparsity pattern* thousands of times from many
// concurrent clients. This service is the front end that turns most of
// those full factorizations into numeric-only replays:
//
//   submit(matrix, rhs?, tenant, priority)
//     -> admission (per-tenant quota, priority queue, bounded-queue
//        backpressure)
//     -> worker pool
//     -> pattern cache lookup by structure hash
//          hit  -> replay through the cached Refactorizer (numeric phase
//                  only; stability fallback demotes to the full pipeline
//                  and refreshes the cached plan)
//          miss -> full pipeline via a fresh Refactorizer, then cache the
//                  plan — evicting LRU plans under simulated
//                  device-memory pressure until it fits
//     -> optional triangular solve of the submitted right-hand side
//     -> future<JobResult> resolves (value, or a structured FactorError)
//
// Job lifecycle (see DESIGN.md for the full state machine):
//   queued -> admitted -> cache-hit replay | full factorize
//          -> solved | failed;   cached plans: resident -> evicted
//
// Tenant isolation: one job = one future. A fault injected into one
// tenant's pipeline (OOM, zero pivot) fails that tenant's future with a
// structured FactorError; the worker survives, the queue keeps draining,
// and other tenants' jobs — including ones sharing a cached plan — are
// untouched. Allocation failures during a cold build trigger LRU
// evictions and a bounded retry, so transient memory pressure recovers
// instead of failing the job.
//
// Determinism: with FactorServiceOptions::deterministic, every worker
// pins a single-thread pool, making kernel block order — and therefore
// the bits of atomically accumulated factors — reproducible. Warm replays
// are then bit-identical to what a cache-disabled service produces for
// the same submission (test-enforced), because the replay task list
// applies the same updates in the same order as the full pipeline's
// numeric phase.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sparse_lu.hpp"
#include "service/pattern_cache.hpp"
#include "sharding/sharded_factorizer.hpp"
#include "support/bounded_queue.hpp"
#include "support/thread_pool.hpp"
#include "telemetry/dashboard.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/job_report.hpp"
#include "telemetry/slo.hpp"

namespace e2elu::service {

struct FactorServiceOptions {
  /// Concurrent pipeline workers.
  std::size_t workers = 2;
  /// Bounded-queue backpressure: submit() blocks while this many jobs are
  /// already queued.
  std::size_t max_queue = 256;
  /// Default per-tenant cap on in-flight jobs (queued + executing);
  /// submissions past it throw FactorError{QuotaExceeded} immediately so
  /// one tenant cannot exhaust the queue for everyone else. Override per
  /// tenant with set_tenant_quota().
  std::size_t tenant_quota = 64;
  /// Pattern cache on/off (off: every job runs the full pipeline — the
  /// comparison baseline the warm-speedup gates measure against).
  bool cache_enabled = true;
  /// Cache sizing + structure-hash override (tests force collisions).
  PatternCacheOptions cache;
  /// Pipeline configuration cold builds run under.
  Options pipeline;
  /// Stability thresholds for replays (fallback -> demotion).
  refactor::RefactorOptions refactor;
  /// Multi-device routing: jobs with n >= sharding.min_n factorize on a
  /// ShardedFactorizer over a `sharding.devices`-member group instead of
  /// the pattern-cache path. Big first-time matrices are exactly the jobs
  /// the cache cannot help (no prior pattern) and one device serves
  /// slowest; the sharded path splits their elimination forest across the
  /// group. Factors are bit-identical either way (the sharding
  /// invariant), so routing is purely a latency decision. Enabled, it
  /// rejects pipeline.numeric.fusion and pipeline.numeric.window at
  /// construction, as ShardedFactorizer does.
  struct ShardingRoute {
    bool enabled = false;
    int devices = 4;
    index_t min_n = 4096;  ///< smaller jobs keep the cache path
    sharding::ShardingOptions options;  ///< options.num_devices is
                                        ///< overridden by `devices`
  } sharding;
  /// Compiles cache-bound plans with level fusion, so a warm replay
  /// drains whole clusters of narrow levels in single launches instead of
  /// re-paying the per-level launch storm on every resubmission — where
  /// the warm-path speedup actually comes from. Safe on by default: fused
  /// execution applies identical arithmetic in identical order
  /// (bit-identity is gated in tests/test_fusion.cpp and re-checked
  /// against the cache-disabled baseline in bench/ext_service). Ignored
  /// when the cache is disabled; pipeline.numeric.fusion then rules.
  bool fuse_replays = true;
  /// One single-thread pool per worker: deterministic kernel block order,
  /// bit-reproducible factors. Off: workers share ThreadPool::global().
  bool deterministic = false;
  /// Construct with execution paused (admission stays open). Tests build
  /// a known queue state, then resume(); production can use it for
  /// maintenance windows.
  bool start_paused = false;
  /// Per-tenant SLO accounting (latency objective + target fraction).
  telemetry::SloOptions slo;
  /// Outlier flight recorder (ring size, latency trigger, incident dir).
  telemetry::FlightRecorderOptions recorder;
  /// Periodic dashboard frames to stderr (0 disables). The
  /// E2ELU_DASHBOARD environment variable, when set, overrides both.
  double dashboard_interval_s = 0;
  bool dashboard_json = false;
};

struct JobResult {
  std::uint64_t job_id = 0;
  std::string tenant;
  int priority = 0;
  bool cache_hit = false;  ///< routed through a cached plan
  bool replayed = false;   ///< numeric-only replay completed and was kept
  bool demoted = false;    ///< stability fallback re-ran the full pipeline
  bool sharded = false;    ///< routed to the multi-device sharded path
  /// Device kernel launches attributed to this job — replay launch
  /// counts on the warm path, full-pipeline counts cold (the per-job
  /// signal that warm routing actually skipped the discovery phases).
  std::uint64_t launches = 0;
  /// Simulated device+host time this job consumed.
  double sim_us = 0;
  /// Service-wide completion order (1-based): priority tests assert on it.
  std::uint64_t completed_seq = 0;
  FactorResult factors;
  /// Solution of A x = rhs when a right-hand side was submitted.
  std::optional<std::vector<value_t>> x;
  /// Full telemetry record of this job: queue wait, phase wall timings,
  /// device-stat delta, recovery counters (see telemetry/job_report.hpp).
  telemetry::JobReport report;
};

struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t replays = 0;
  std::uint64_t quota_rejections = 0;
};

struct FactorServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t quota_rejections = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t replays = 0;
  std::uint64_t demotions = 0;
  std::uint64_t sharded_jobs = 0;     ///< jobs routed to the device group
  std::uint64_t build_retries = 0;    ///< cold builds retried after eviction
  std::size_t max_queue_depth = 0;
  PatternCacheStats cache;
};

class FactorService {
 public:
  explicit FactorService(FactorServiceOptions options = {});

  /// Closes admission, drains every queued job (their futures resolve),
  /// joins the workers. A paused service is resumed so the drain
  /// completes.
  ~FactorService();

  FactorService(const FactorService&) = delete;
  FactorService& operator=(const FactorService&) = delete;

  /// Admits one factor(+solve) job. Blocks while the queue is at
  /// capacity (backpressure); throws FactorError{QuotaExceeded} when the
  /// tenant is over quota and FactorError{Rejected} after shutdown began.
  /// Higher priority drains sooner; FIFO within a priority. Thread-safe.
  std::future<JobResult> submit(Csr a,
                                std::optional<std::vector<value_t>> rhs,
                                const std::string& tenant, int priority = 0);

  /// Overrides the in-flight quota for one tenant (0 blocks it entirely).
  void set_tenant_quota(const std::string& tenant, std::size_t max_in_flight);

  /// Pauses execution after in-flight jobs finish; admission stays open.
  void pause();
  /// Resumes a paused service.
  void resume();

  /// Blocks until every job submitted so far has resolved.
  void drain();

  FactorServiceStats stats() const;
  TenantStats tenant_stats(const std::string& tenant) const;
  const PatternCache& cache() const { return cache_; }
  const telemetry::SloTracker& slo() const { return slo_; }
  const telemetry::FlightRecorder& recorder() const { return recorder_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    std::string tenant;
    int priority = 0;
    Csr a;
    std::optional<std::vector<value_t>> rhs;
    std::promise<JobResult> promise;
    double submitted_us = 0;  ///< admission time (tracer-epoch clock)
  };
  struct TenantState {
    std::size_t quota = 0;
    std::size_t in_flight = 0;
    TenantStats stats;
  };

  void worker_loop(std::size_t worker_id);
  JobResult run_job(Job& job, std::size_t worker_id,
                    telemetry::JobReport& report);
  JobResult run_cold(Job& job, std::size_t worker_id,
                     telemetry::JobReport& report);
  JobResult run_sharded(Job& job, std::size_t worker_id,
                        telemetry::JobReport& report);
  void finish_job(Job& job, JobResult result);
  void fail_job(Job& job, std::exception_ptr error);
  void retire_job(const std::string& tenant, bool failed, bool replayed);
  /// Closes the report (tiling other_us/total_us), publishes the phase
  /// histograms + per-tenant labels, and runs SLO accounting.
  void finalize_report(telemetry::JobReport& report);
  /// Copies the cold build's preprocess sub-phase walls into the report
  /// (exact sub-tiling: total = match + order + scale + other) and
  /// publishes the corresponding histograms.
  static void record_preprocess_breakdown(const FactorResult& f,
                                          telemetry::JobReport& report);

  FactorServiceOptions opt_;
  telemetry::SloTracker slo_;
  telemetry::FlightRecorder recorder_;
  std::unique_ptr<telemetry::DashboardExporter> dashboard_;
  PatternCache cache_;
  BoundedQueue<Job> queue_;

  mutable std::mutex mutex_;  ///< tenants_, stats_, pending_
  std::condition_variable cv_idle_;
  std::map<std::string, TenantState> tenants_;
  FactorServiceStats stats_;
  std::size_t pending_ = 0;  ///< admitted, future not yet resolved

  std::mutex pause_mutex_;
  std::condition_variable cv_pause_;
  bool paused_ = false;
  bool closing_ = false;

  std::atomic<std::uint64_t> next_job_id_{1};
  std::atomic<std::uint64_t> completed_seq_{0};

  /// Per-worker single-thread pools (deterministic mode only). A cached
  /// plan's device stays pinned to the pool of the worker that built it;
  /// entry locking keeps each plan single-flight, so any worker may
  /// replay it.
  std::vector<std::unique_ptr<ThreadPool>> worker_pools_;
  std::vector<std::thread> workers_;
};

}  // namespace e2elu::service
