// fleet_replay: a closed loop of circuit tenants on one FactorService.
//
// Two client threads each own half of the tenants. A client submits a
// tenant's next value-drift step plus a right-hand side only after its
// previous job resolved, the way a transient simulation waits on its
// Newton solve. Every 20th job of a client is a "mayfly" submission: a
// circuit with a fresh pattern, which no cached plan can serve. The
// pattern cache's budget holds every tenant's plan plus about eight mayfly
// plans, so mayfly inserts evict the oldest mayfly plans (LRU) while the
// tenants' plans, touched every few jobs, stay resident.
//
// Warm jobs (refactor replay + solve) set the latency median; cold builds
// (each tenant's first job and every mayfly) set the p99 — the only jobs
// where preprocess, symbolic and levelize run in this workload.
//
// The untraced run times passes of kPassJobs jobs, each on a fresh service
// that starts cold and serves the same job sequence: wall_s is the median
// pass's makespan. The traced run compares an untraced loop of kTracedJobs
// jobs (its job latencies give the service.job_wall_ms percentiles) with
// the same loop under spans.

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <thread>

#include "matrix/generators.hpp"
#include "refactor/refactor.hpp"
#include "service/factor_service.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace e2elu;

namespace {

constexpr int kClients = 2;
constexpr int kTenantsPerClient = 4;
constexpr int kMayflyPeriod = 20;  ///< one mayfly per 20 jobs: 5%
constexpr double kDriftMagnitude = 0.1;
constexpr index_t kMayflyN = 1600;
/// Jobs of one timed pass (about 4 s on a 4-core host).
constexpr std::size_t kPassJobs = 500;
/// Jobs of each traced-run loop: the 1000 a p99 needs.
constexpr std::size_t kTracedJobs = 1000;

struct Tenant {
  std::string name;
  Csr pattern;
};

struct FleetSetup {
  std::vector<Tenant> tenants;  ///< client c owns [c*4, c*4+4)
  std::size_t cache_budget = 0;
};

Options pipeline_options() {
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(256u << 20);
  opt.match_diagonal = false;
  return opt;
}

/// Tenant t's circuit: a fixed base (so every seed serves the same mix of
/// sizes and fills) with a seeded sub-network appended (append_chain).
Csr tenant_pattern(std::uint64_t seed, int t) {
  const auto id = static_cast<std::uint64_t>(t);
  return append_chain(gen_circuit(800 + 200 * static_cast<index_t>(t),
                                  5.0 + 0.25 * (t % 4), 2 + t % 3,
                                  16 + 4 * (t % 4), 0xC1 + id),
                      mix_seed(seed, 100 + id));
}

/// A fresh circuit pattern. One hub keeps the plan footprints within
/// about ±20% of each other, so the cache budget's mayfly slack holds.
Csr mayfly_pattern(std::uint64_t seed, int client, std::size_t k) {
  return gen_circuit(kMayflyN, 4.0, 1, 8,
                     mix_seed(seed, 1'000'000 +
                                        static_cast<std::uint64_t>(client) *
                                            100'000 + k));
}

/// Tenant patterns, and the cache budget from the exact device footprint
/// of each tenant's plan and of a sample mayfly plan.
FleetSetup make_setup(std::uint64_t seed) {
  FleetSetup s;
  Options opt = pipeline_options();
  opt.numeric.fusion.enabled = true;  // as the service compiles its plans
  std::size_t total = 0;
  for (int t = 0; t < kClients * kTenantsPerClient; ++t) {
    Tenant tenant{"tenant" + std::to_string(t), tenant_pattern(seed, t)};
    total += refactor::Refactorizer(tenant.pattern, opt)
                 .device_footprint_bytes();
    s.tenants.push_back(std::move(tenant));
  }
  const std::size_t mayfly =
      refactor::Refactorizer(mayfly_pattern(seed, 0, 0), opt)
          .device_footprint_bytes();
  s.cache_budget = total + 8 * mayfly;
  return s;
}

/// What one job left behind for the metrics.
struct JobRecord {
  double latency_ms = 0;  ///< submit() to resolved future
  bool ok = false;
  service::JobResult result;  ///< factors dropped, report kept
  FactorResult cold;  ///< a cold build's phase reports (factors dropped)
};

/// Client c's job sequence: its tenants round robin, a mayfly every
/// kMayflyPeriod jobs (offset per client so the two never coincide).
void run_client(service::FactorService& svc, const FleetSetup& s,
                std::uint64_t seed, int c, std::size_t jobs,
                std::vector<JobRecord>& records, SpanRecorder& rec) {
  std::vector<std::uint64_t> step(kTenantsPerClient, 0);
  int next_tenant = 0;
  const std::size_t offset = static_cast<std::size_t>(c) * kMayflyPeriod / 2;
  for (std::size_t k = 0; k < jobs; ++k) {
    JobRecord r;
    const bool mayfly = k % kMayflyPeriod == offset && k > 0;
    Csr a;
    std::string tenant;
    if (mayfly) {
      a = mayfly_pattern(seed, c, k);
      tenant = "mayfly";
    } else {
      const int local = next_tenant++ % kTenantsPerClient;
      const Tenant& t = s.tenants[static_cast<std::size_t>(
          c * kTenantsPerClient + local)];
      a = gen_value_drift(t.pattern, kDriftMagnitude,
                          mix_seed(seed, 7) + step[local]++);
      tenant = t.name;
    }
    const std::vector<value_t> b =
        make_rhs(a.n, mix_seed(seed, (static_cast<std::uint64_t>(c) << 32) + k));
    const std::uint64_t job_id =
        (static_cast<std::uint64_t>(c) << 32) + k + 1;
    const double t0 = rec.now_us();
    std::int64_t job_span = -1;
    WallTimer latency;
    try {
      ScopedSpan span(rec, "job", job_id);
      job_span = span.id();
      std::future<service::JobResult> fut = svc.submit(a, b, tenant);
      r.result = fut.get();
      r.latency_ms = latency.millis();
      span.attr("cache_hit", r.result.cache_hit);
      span.attr("sim_us", r.result.sim_us);
      r.ok = r.result.x.has_value() && solves(a, *r.result.x, b);
    } catch (const std::exception& e) {
      r.latency_ms = latency.millis();
      std::fprintf(stderr, "[perfbench] fleet job %s failed: %s\n",
                   tenant.c_str(), e.what());
    }
    if (rec.enabled() && r.ok) {
      // The service's own phase breakdown of this job, laid out in order
      // under the job span.
      const telemetry::JobReport& jr = r.result.report;
      double at = t0;
      const std::pair<const char*, double> phases[] = {
          {"service.queue", jr.queue_wait_us},
          {"service.lookup", jr.cache_lookup_us},
          {"service.build", jr.build_us},
          {"refactor.replay", jr.replay_us},
          {"solve", jr.solve_us}};
      for (const auto& [name, us] : phases) {
        if (us <= 0) continue;
        rec.add(name, job_id, job_span, at, at + us);
        at += us;
      }
    }
    if (r.ok && !r.result.cache_hit) {
      r.cold = std::move(r.result.factors);
      r.cold.l = {};
      r.cold.u = {};
    }
    r.result.factors = {};  // keep the report, not the factors
    r.result.x.reset();
    records.push_back(std::move(r));
  }
}

struct LoopResult {
  std::vector<JobRecord> jobs;
  double wall_s = 0;
  service::FactorServiceStats stats;
};

/// One closed loop of `jobs` jobs on a fresh service.
LoopResult run_loop(const FleetSetup& s, std::uint64_t seed,
                    SpanRecorder& rec, std::size_t jobs) {
  service::FactorServiceOptions opt;
  opt.workers = 2;
  opt.deterministic = true;
  opt.pipeline = pipeline_options();
  opt.cache.memory_budget_bytes = s.cache_budget;
  LoopResult out;
  std::vector<std::vector<JobRecord>> per_client(kClients);
  {
    service::FactorService svc(opt);
    WallTimer wall;
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          run_client(svc, s, seed, c, jobs / kClients,
                     per_client[static_cast<std::size_t>(c)], rec);
        });
      }
    }
    out.wall_s = wall.seconds();
    out.stats = svc.stats();
  }
  for (auto& jobs : per_client) {
    for (JobRecord& j : jobs) out.jobs.push_back(std::move(j));
  }
  return out;
}

}  // namespace

std::uint64_t fleet_digest(std::uint64_t seed) {
  const FleetSetup s = make_setup(seed);
  std::uint64_t h = 1469598103934665603ull;
  for (const Tenant& t : s.tenants) {
    h = digest(gen_value_drift(t.pattern, kDriftMagnitude, mix_seed(seed, 7)),
               h);
  }
  return digest(mayfly_pattern(seed, 0, kMayflyPeriod), h);
}

Outcome run_fleet(const RunConfig& cfg, SpanRecorder& rec) {
  Outcome out;
  FleetSetup s;
  const double setup_s = timed_setup([&] { s = make_setup(cfg.seed); });

  SpanRecorder off(false);
  const auto count = [&](const LoopResult& loop) {
    for (const JobRecord& j : loop.jobs) {
      ++out.attempted;
      if (!j.ok) ++out.failed;
    }
  };

  if (!cfg.trace) {
    std::vector<double> pass_sim_ms;
    const std::vector<double> walls = timed_passes(
        cfg.seconds,
        [&] {
          const LoopResult loop = run_loop(s, cfg.seed, off, kPassJobs);
          count(loop);
          double sim_us = 0;
          for (const JobRecord& j : loop.jobs) sim_us += j.result.sim_us;
          pass_sim_ms.push_back(sim_us / 1000.0);
        },
        2);
    out.metrics.add("setup_s", setup_s, "s");
    out.metrics.add("sim_ms", median(pass_sim_ms), "ms");
    out.metrics.add("wall_s", median(walls), "s");
    out.metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  const LoopResult untraced = run_loop(s, cfg.seed, off, kTracedJobs);
  count(untraced);

  // A failed job misses every latency limit: it sorts past every success.
  const auto latencies = [](const LoopResult& loop) {
    std::vector<double> v;
    for (const JobRecord& j : loop.jobs) {
      v.push_back(j.ok ? j.latency_ms : 1e300);
    }
    return v;
  };

  // ---- traced loop: same jobs, spans on.
  const LoopResult traced = run_loop(s, cfg.seed, rec, kTracedJobs);
  count(traced);
  PhaseTotals cold;
  GpuTotals gpu;
  std::vector<double> replay_ms, replay_sim_us, queue_ms, build_ms;
  std::uint64_t hits = 0, replays = 0, demoted = 0;
  double solve_ms = 0;
  for (const JobRecord& j : traced.jobs) {
    if (!j.ok) continue;
    const service::JobResult& r = j.result;
    const telemetry::JobReport& jr = r.report;
    queue_ms.push_back(jr.queue_wait_us / 1000.0);
    solve_ms += jr.solve_us / 1000.0;
    gpu.add(jr.device);
    if (r.cache_hit) ++hits;
    if (r.demoted) ++demoted;
    if (r.replayed) {
      ++replays;
      replay_ms.push_back(jr.replay_us / 1000.0);
      replay_sim_us.push_back(r.sim_us);
    }
    if (!r.cache_hit) {
      build_ms.push_back(jr.build_us / 1000.0);
      cold.add(j.cold);
    }
  }

  auto& m = out.metrics;
  cold.emit(m);
  m.add_percentile("refactor.replay_ms_p50", replay_ms, 0.50, "ms");
  m.add_percentile("refactor.replay_sim_us_p50", replay_sim_us, 0.50, "us");
  m.add("refactor.reuse_ratio",
        hits > 0 ? static_cast<double>(replays) / static_cast<double>(hits)
                 : 0.0,
        "ratio");
  m.add("refactor.fallbacks", static_cast<double>(demoted), "count");
  const std::vector<double> lat = latencies(untraced);
  m.add_percentile("service.job_wall_ms_p50", lat, 0.50, "ms");
  m.add_percentile("service.job_wall_ms_p99", lat, 0.99, "ms");
  m.add_percentile("service.queue_wait_ms_p50", queue_ms, 0.50, "ms");
  m.add_percentile("service.queue_wait_ms_p99", queue_ms, 0.99, "ms");
  m.add_percentile("service.build_ms_p50", build_ms, 0.50, "ms");
  const service::PatternCacheStats& cs = traced.stats.cache;
  m.add("service.cache.hit_ratio",
        cs.lookups > 0 ? static_cast<double>(cs.hits) /
                             static_cast<double>(cs.lookups)
                       : 0.0,
        "ratio");
  m.add("service.cache.evictions", static_cast<double>(cs.evictions),
        "count");
  m.add("service.build_retries",
        static_cast<double>(traced.stats.build_retries), "count");
  m.add("solve.wall_ms", solve_ms, "ms");
  gpu.emit(m);
  const double warm_pct =
      100.0 * static_cast<double>(replays) /
      static_cast<double>(std::max<std::size_t>(1, traced.jobs.size()));
  m.add("share.warm_replay_pct", warm_pct, "%");
  m.add("trace.overhead_pct",
        100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s, "%");
  char line[200];
  std::snprintf(line, sizeof line,
                "composition %s: %.1f%% of %zu jobs were warm replays "
                "(%zu cold builds, %llu evictions)",
                cfg.workload.c_str(), warm_pct, traced.jobs.size(),
                build_ms.size(),
                static_cast<unsigned long long>(cs.evictions));
  out.report_lines.emplace_back(line);
  return out;
}

}  // namespace perfbench
