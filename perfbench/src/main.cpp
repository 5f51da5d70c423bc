// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one named workload on inputs generated from the seed and prints, as
// its last line, one JSON object: whether every correctness check passed,
// the factor+solve jobs attempted and failed, and the metrics. With
// --trace 0 these are the end-to-end metrics (tracing off); with --trace 1
// the workload runs again with spans around its layer calls and the
// metrics are the per-layer ones, preceded by a composition report. Exits
// 1 when a correctness check failed, 2 on bad arguments.
//
//   perfbench --inputs-digest --workload <name> --seed <n>
//
// prints a digest of the generated inputs instead (the seed test uses it),
// `perfbench --selftest` checks the percentile rule and metric names, and
// `perfbench --manifest` prints the end-to-end and per-layer metric names
// and units as JSON (the test compares them with BENCHMARK.json).
// See perfbench/README.md for the workloads and the metric map.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <table2_paper|table2_amd_window|"
               "fleet_replay|mesh_outofcore> --seed <n> --seconds <s> "
               "--trace <0|1> [--inputs-digest]\n");
  return 2;
}

/// Unit checks of the reporting rules; returns the number of failures.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };
  const auto samples = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;
  };
  expect(!percentile(samples(999), 0.99).has_value(),
         "p99 of 999 samples is withheld (9 beyond it)");
  expect(percentile(samples(1000), 0.99) == 990.0,
         "p99 of 1000 samples is the 990th smallest (10 beyond it)");
  expect(!percentile(samples(19), 0.50).has_value(),
         "p50 of 19 samples is withheld");
  expect(percentile(samples(20), 0.50) == 10.0,
         "p50 of 20 samples is the 10th smallest");
  MetricSet m;
  expect(!m.add_percentile("service.job_wall_ms_p99", samples(500), 0.99, "ms") &&
             !m.get("service.job_wall_ms_p99").has_value(),
         "add_percentile adds nothing without the samples");
  expect(valid_metric_name("service.cache.hit_ratio") &&
             valid_metric_name("service.job_wall_ms_p50") &&
             !valid_metric_name("bad name") && !valid_metric_name("") &&
             !valid_metric_name("x/y"),
         "metric names match [A-Za-z0-9_.-]+");
  bool threw = false;
  try {
    m.add("bad name", 1, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "an invalid metric name is rejected");

  MetricSet measured;
  measured.add("wall_s", 2, "s");
  measured.add("setup_s", 1, "s");
  const std::vector<MetricSpec> specs = {
      {"setup_s", "s"}, {"wall_s", "s"}, {"sim_ms", "ms"}};
  const MetricSet ordered = in_manifest_order(measured, specs, true);
  expect(ordered.all().size() == 3 && ordered.all()[0].name == "setup_s" &&
             ordered.all()[1].value == 2 && ordered.get("sim_ms") == 0.0,
         "in_manifest_order orders by the manifest and zero-fills");
  const auto rejects = [&](const MetricSet& m, bool absent_is_zero) {
    try {
      in_manifest_order(m, specs, absent_is_zero);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  MetricSet extra = measured;
  extra.add("other", 1, "s");
  MetricSet wrong_unit;
  wrong_unit.add("wall_s", 1, "ms");
  expect(rejects(measured, false) && rejects(extra, true) &&
             rejects(wrong_unit, true),
         "in_manifest_order rejects missing, extra and mis-unit metrics");
  for (const auto* list : {&kEndToEndMetrics, &kPerLayerMetrics}) {
    MetricSet all;
    bool ok = true;
    for (const MetricSpec& spec : *list) {
      try {
        all.add(spec.name, 1, spec.unit);  // checks name and uniqueness
      } catch (const std::invalid_argument&) {
        ok = false;
      }
    }
    expect(ok, "manifest names are valid and used once");
  }
  return failures;
}

/// Both metric lists as one JSON object of name -> unit maps.
void print_manifest() {
  const auto list = [](const std::vector<MetricSpec>& specs) {
    std::string s = "{";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      s += (i ? ", \"" : "\"") + std::string(specs[i].name) + "\": \"" +
           specs[i].unit + "\"";
    }
    return s + "}";
  };
  std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
              list(kEndToEndMetrics).c_str(), list(kPerLayerMetrics).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Pin the simulated-kernel pool to 2 workers before anything creates
  // it: a 4-worker pool on a 4-core host made Table-2 wall times swing by
  // a third between runs (perfbench/README.md, "Thread budget").
  setenv("E2ELU_THREADS", "2", 1);

  RunConfig cfg;
  bool digest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--selftest") {
        return selftest() == 0 ? 0 : 1;
      } else if (arg == "--manifest") {
        print_manifest();
        return 0;
      } else if (arg == "--inputs-digest") {
        digest_only = true;
      } else if (arg == "--workload" && has_value) {
        cfg.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        cfg.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        cfg.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        cfg.trace = std::stoi(argv[++i]) != 0;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }

  const std::string& w = cfg.workload;
  if (w != "table2_paper" && w != "table2_amd_window" &&
      w != "fleet_replay" && w != "mesh_outofcore") {
    return usage();
  }

  if (digest_only) {
    const std::uint64_t h =
        w == "fleet_replay"     ? fleet_digest(cfg.seed)
        : w == "mesh_outofcore" ? mesh_digest(cfg.seed)
                                : table2_digest(cfg.seed,
                                                w == "table2_amd_window");
    std::printf("%016llx\n", static_cast<unsigned long long>(h));
    return 0;
  }

  SpanRecorder rec(cfg.trace);
  Outcome out;
  try {
    if (w == "fleet_replay") {
      out = run_fleet(cfg, rec);
    } else if (w == "mesh_outofcore") {
      out = run_mesh(cfg, rec);
    } else {
      out = run_table2(cfg, w == "table2_amd_window", rec);
    }
    // Every workload prints every metric of the manifest: the end-to-end
    // ones all measure something on each workload; a per-layer one of a
    // layer the workload does not run reads 0.
    out.metrics = in_manifest_order(
        out.metrics, cfg.trace ? kPerLayerMetrics : kEndToEndMetrics,
        cfg.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] %s aborted: %s\n", w.c_str(), e.what());
    return 1;
  }

  if (cfg.trace) {
    // Spans go next to the build, inside the checkout.
    const std::filesystem::path dir = ".bench_build/traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path =
        (dir / (w + "-seed" + std::to_string(cfg.seed) + ".json")).string();
    if (!ec && rec.write_json(path)) {
      std::fprintf(stderr, "[perfbench] spans written to %s\n", path.c_str());
    }
    for (const auto& [name, us] : rec.self_time_us_by_name()) {
      std::printf("self time %-24s %12.3f ms\n", name.c_str(), us / 1000.0);
    }
  }
  for (const std::string& line : out.report_lines) std::printf("%s\n", line.c_str());
  for (const std::string& f : out.check_failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  std::cout << result_json(out) << std::endl;
  return out.correct() ? 0 : 1;
}
