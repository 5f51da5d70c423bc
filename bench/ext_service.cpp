// ext_service: what does the pattern cache buy a mixed tenant fleet?
//
// The FactorService exists for the fleet workload: many tenants, each
// resubmitting its own sparsity pattern with new values (Newton
// iterations, transient steps), interleaved arbitrarily. This bench runs
// such a fleet twice — pattern cache on, pattern cache off — and compares
// the simulated device+host time the *warm* submissions cost (every
// submission after a tenant's first, i.e. the jobs a cached plan can turn
// into numeric-only replays).
//
// Pass/fail: warm submissions must be at least kMinWarmSpeedup x cheaper
// in simulated time with the cache than without, every warm job must have
// routed through the cache (hit + replay, no demotions), and the two
// modes must produce bit-identical factors for every job. Violations exit
// nonzero so CI gates on the service's reason to exist. Results are also
// written as BENCH_service.json (argv[1] overrides the path).
//
// Telemetry leg: the cached fleet also carries a "mayfly" tenant that
// submits a structurally fresh matrix every round — a tenant the pattern
// cache can never help. Its per-tenant latency histogram
// (service.job_sim_us{tenant=mayfly}) must sit at least kMinWarmSpeedup x
// above a warm tenant's at p99, and both distributions must show up in a
// rendered dashboard frame — the per-tenant histogram labels are gated
// here, not just unit-tested.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "matrix/generators.hpp"
#include "service/factor_service.hpp"
#include "support/rng.hpp"
#include "telemetry/dashboard.hpp"
#include "trace/metrics.hpp"

using namespace e2elu;

namespace {

constexpr double kMinWarmSpeedup = 5.0;
constexpr int kWarmPerTenant = 8;

struct Tenant {
  std::string name;
  Csr pattern;
};

struct JobRecord {
  service::JobResult result;
  FactorResult factors;  // kept for the cross-mode bit comparison
};

struct TenantRow {
  std::string name;
  index_t n = 0;
  offset_t nnz = 0;
  double cold_sim_cached = 0, warm_sim_cached = 0;
  double cold_sim_uncached = 0, warm_sim_uncached = 0;
  std::uint64_t warm_launches_cached = 0, warm_launches_uncached = 0;
};

service::FactorServiceOptions fleet_options(bool cache_enabled) {
  service::FactorServiceOptions opt;
  opt.workers = 1;  // one lane: sim-time totals compare apples to apples
  opt.deterministic = true;
  opt.cache_enabled = cache_enabled;
  opt.pipeline.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  opt.pipeline.match_diagonal = false;
  return opt;
}

/// Runs the whole fleet through one service: per tenant, one cold
/// submission drained first (steady state — plans resident before the
/// warm traffic), then the interleaved warm phase: round-robin across
/// tenants, each round one value-drifted resubmission per tenant.
///
/// with_mayfly additionally interleaves one structurally fresh submission
/// per warm round under the "mayfly" tenant (a different sparsity pattern
/// every time — guaranteed cache misses), and clears the metrics registry
/// between the cold warm-up and the warm phase, so the per-tenant
/// histograms afterwards hold exactly the steady-state traffic: all-warm
/// distributions for the fleet tenants, all-cold for the mayfly.
std::vector<std::vector<JobRecord>> run_fleet(
    const std::vector<Tenant>& fleet, bool cache_enabled,
    bool with_mayfly = false) {
  service::FactorService svc(fleet_options(cache_enabled));
  std::vector<std::vector<JobRecord>> per_tenant(fleet.size());

  for (std::size_t t = 0; t < fleet.size(); ++t) {
    service::JobResult r =
        svc.submit(fleet[t].pattern, std::nullopt, fleet[t].name, 0).get();
    JobRecord rec;
    rec.factors = r.factors;
    rec.result = std::move(r);
    per_tenant[t].push_back(std::move(rec));
  }
  if (with_mayfly) trace::MetricsRegistry::global().clear();

  for (int round = 1; round <= kWarmPerTenant; ++round) {
    std::vector<std::future<service::JobResult>> futures;
    futures.reserve(fleet.size());
    for (const Tenant& tenant : fleet) {
      futures.push_back(svc.submit(
          gen_value_drift(tenant.pattern, 0.1,
                          static_cast<std::uint64_t>(round)),
          std::nullopt, tenant.name, 0));
    }
    for (std::size_t t = 0; t < fleet.size(); ++t) {
      service::JobResult r = futures[t].get();
      JobRecord rec;
      rec.factors = r.factors;
      rec.result = std::move(r);
      per_tenant[t].push_back(std::move(rec));
    }
    if (with_mayfly) {
      // Same order as pwr-grid, fresh structure every round: the cost of a
      // cold build at this size, paid on every single submission.
      svc.submit(gen_circuit(1200, 6.0, 3, 24,
                             0x5150 + static_cast<std::uint64_t>(round)),
                 std::nullopt, "mayfly", 0)
          .get();
    }
  }

  const service::FactorServiceStats stats = svc.stats();
  std::printf("  [%s] hits=%llu misses=%llu replays=%llu demotions=%llu "
              "evictions=%llu resident=%zu bytes max_queue=%zu\n",
              cache_enabled ? "cache on " : "cache off",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.replays),
              static_cast<unsigned long long>(stats.demotions),
              static_cast<unsigned long long>(stats.cache.evictions),
              stats.cache.resident_bytes, stats.max_queue_depth);
  return per_tenant;
}

bool factors_bit_identical(const FactorResult& a, const FactorResult& b) {
  return a.l.values.size() == b.l.values.size() &&
         a.u.values.size() == b.u.values.size() &&
         std::memcmp(a.l.values.data(), b.l.values.data(),
                     a.l.values.size() * sizeof(value_t)) == 0 &&
         std::memcmp(a.u.values.data(), b.u.values.data(),
                     a.u.values.size() * sizeof(value_t)) == 0;
}

void write_json(const char* path, const std::vector<TenantRow>& rows,
                double speedup, double warm_p99, double cold_p99) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[ext_service] cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"warm_speedup\": %.3f,\n"
               "  \"warm_tenant_p99_sim_us\": %.3f,\n"
               "  \"cold_tenant_p99_sim_us\": %.3f,\n"
               "  \"tenants\": [\n",
               speedup, warm_p99, cold_p99);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TenantRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"tenant\": \"%s\", \"n\": %d, \"nnz\": %lld, "
        "\"cold_sim_us_cached\": %.3f, \"warm_sim_us_cached\": %.3f, "
        "\"cold_sim_us_uncached\": %.3f, \"warm_sim_us_uncached\": %.3f, "
        "\"warm_launches_cached\": %llu, \"warm_launches_uncached\": %llu, "
        "\"warm_speedup\": %.3f}%s\n",
        r.name.c_str(), r.n, static_cast<long long>(r.nnz),
        r.cold_sim_cached, r.warm_sim_cached, r.cold_sim_uncached,
        r.warm_sim_uncached,
        static_cast<unsigned long long>(r.warm_launches_cached),
        static_cast<unsigned long long>(r.warm_launches_uncached),
        r.warm_sim_cached == 0 ? 0.0
                               : r.warm_sim_uncached / r.warm_sim_cached,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[ext_service] wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceSession trace_session;

  const std::vector<Tenant> fleet = {
      {"pwr-grid", gen_circuit(1200, 6.0, 3, 24, 0x11)},
      {"rf-filter", gen_circuit(800, 5.0, 2, 16, 0x22)},
      {"sram-array", gen_circuit(1600, 5.5, 4, 32, 0x33)},
  };

  std::printf("=== ext_service: pattern-cache value for a mixed tenant "
              "fleet (%zu tenants x %d warm submissions) ===\n",
              fleet.size(), kWarmPerTenant);

  trace::MetricsRegistry::global().clear();
  const auto cached = run_fleet(fleet, /*cache_enabled=*/true,
                                /*with_mayfly=*/true);

  // Steady-state per-tenant latency distributions (the registry holds
  // only the warm phase; see run_fleet): every pwr-grid sample is a warm
  // replay, every mayfly sample a cold build of the same-size problem.
  const auto hists = trace::MetricsRegistry::global().histograms_snapshot();
  const auto warm_it =
      hists.find(trace::labeled("service.job_sim_us", "tenant", "pwr-grid"));
  const auto cold_it =
      hists.find(trace::labeled("service.job_sim_us", "tenant", "mayfly"));
  const double warm_p99 = warm_it == hists.end() ? 0.0 : warm_it->second.p99();
  const double cold_p99 = cold_it == hists.end() ? 0.0 : cold_it->second.p99();
  std::printf("\nper-tenant sim-latency p99: pwr-grid (warm) %.0f us, "
              "mayfly (always cold) %.0f us\n",
              warm_p99, cold_p99);
  std::printf("\n");
  telemetry::render_dashboard(std::cout, trace::MetricsRegistry::global());
  std::printf("\n");

  trace::MetricsRegistry::global().clear();
  const auto uncached = run_fleet(fleet, /*cache_enabled=*/false);

  std::printf("\n%-12s %7s %8s | %12s %12s | %12s %12s | %8s\n", "tenant",
              "n", "nnz", "warm sim on", "warm sim off", "lnch on",
              "lnch off", "speedup");
  bench::print_rule(100);

  std::vector<TenantRow> rows;
  double warm_cached_total = 0, warm_uncached_total = 0;
  bool all_identical = true, all_warm_replayed = true;
  for (std::size_t t = 0; t < fleet.size(); ++t) {
    TenantRow row;
    row.name = fleet[t].name;
    row.n = fleet[t].pattern.n;
    row.nnz = fleet[t].pattern.nnz();
    row.cold_sim_cached = cached[t][0].result.sim_us;
    row.cold_sim_uncached = uncached[t][0].result.sim_us;
    for (std::size_t j = 1; j < cached[t].size(); ++j) {
      const service::JobResult& on = cached[t][j].result;
      const service::JobResult& off = uncached[t][j].result;
      row.warm_sim_cached += on.sim_us;
      row.warm_sim_uncached += off.sim_us;
      row.warm_launches_cached += on.launches;
      row.warm_launches_uncached += off.launches;
      all_warm_replayed =
          all_warm_replayed && on.cache_hit && on.replayed && !on.demoted;
      all_identical = all_identical && factors_bit_identical(
                                           cached[t][j].factors,
                                           uncached[t][j].factors);
    }
    warm_cached_total += row.warm_sim_cached;
    warm_uncached_total += row.warm_sim_uncached;
    std::printf("%-12s %7d %8lld | %10.0fus %10.0fus | %12llu %12llu | "
                "%7.1fx\n",
                row.name.c_str(), row.n, static_cast<long long>(row.nnz),
                row.warm_sim_cached, row.warm_sim_uncached,
                static_cast<unsigned long long>(row.warm_launches_cached),
                static_cast<unsigned long long>(row.warm_launches_uncached),
                row.warm_sim_cached == 0
                    ? 0.0
                    : row.warm_sim_uncached / row.warm_sim_cached);
    rows.push_back(std::move(row));
  }
  bench::print_rule(100);

  const double speedup =
      warm_cached_total == 0 ? 0.0 : warm_uncached_total / warm_cached_total;
  std::printf("fleet warm sim: %.0f us cached vs %.0f us uncached -> "
              "%.1fx (gate >= %.1fx)\n",
              warm_cached_total, warm_uncached_total, speedup,
              kMinWarmSpeedup);

  write_json(argc > 1 ? argv[1] : "BENCH_service.json", rows, speedup,
             warm_p99, cold_p99);

  // ---- Gates.
  int failures = 0;
  if (!all_warm_replayed) {
    std::printf("FAIL: a warm submission missed the cache, was not "
                "replayed, or demoted\n");
    ++failures;
  }
  if (!all_identical) {
    std::printf("FAIL: cached and cache-disabled factors differ\n");
    ++failures;
  }
  if (speedup < kMinWarmSpeedup) {
    std::printf("FAIL: warm speedup %.2fx below the %.1fx gate\n", speedup,
                kMinWarmSpeedup);
    ++failures;
  }
  if (warm_p99 <= 0 || cold_p99 <= 0) {
    std::printf("FAIL: per-tenant latency histograms missing (warm p99 "
                "%.0f, cold p99 %.0f)\n",
                warm_p99, cold_p99);
    ++failures;
  } else if (cold_p99 < warm_p99 * kMinWarmSpeedup) {
    std::printf("FAIL: cold-tenant p99 %.0f us is not %.1fx above the warm "
                "tenant's %.0f us\n",
                cold_p99, kMinWarmSpeedup, warm_p99);
    ++failures;
  }
  if (failures == 0) {
    std::printf("PASS: warm tenants %.1fx cheaper through the pattern "
                "cache, factors bit-identical\n",
                speedup);
  }
  return failures == 0 ? 0 : 1;
}
