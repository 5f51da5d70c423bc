#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0 || q >= 1) return std::nullopt;
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it; everything after that rank lies beyond the percentile.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (rank == 0 || n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name '" + name + "'");
  }
  if (get(name).has_value()) {
    throw std::invalid_argument("metric '" + name + "' added twice");
  }
  metrics_.push_back({name, value, unit});
}

bool MetricSet::add_percentile(const std::string& name,
                               const std::vector<double>& samples, double q,
                               const std::string& unit) {
  const std::optional<double> p = percentile(samples, q);
  if (p.has_value()) add(name, *p, unit);
  return p.has_value();
}

std::optional<double> MetricSet::get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return std::nullopt;
}

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"sim_ms", "ms"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"preprocess.sim_ms", "ms"},
    {"preprocess.wall_ms", "ms"},
    {"preprocess.match.sim_ms", "ms"},
    {"preprocess.order.sim_ms", "ms"},
    {"preprocess.scale.sim_ms", "ms"},
    {"preprocess.launches", "count"},
    {"preprocess.fill_nnz", "count"},
    {"symbolic.sim_ms", "ms"},
    {"symbolic.wall_ms", "ms"},
    {"symbolic.chunks", "count"},
    {"symbolic.ops", "count"},
    {"levelize.sim_ms", "ms"},
    {"levelize.wall_ms", "ms"},
    {"levelize.levels", "count"},
    {"fusion.fused_levels", "count"},
    {"numeric.sim_ms", "ms"},
    {"numeric.wall_ms", "ms"},
    {"numeric.launches", "count"},
    {"numeric.ops", "count"},
    {"numeric.occupancy", "ratio"},
    {"window.refetches", "count"},
    {"window.fetch_mb", "MiB"},
    {"window.stall_ms", "ms"},
    {"solve.wall_ms", "ms"},
    {"refactor.replay_ms_p50", "ms"},
    {"refactor.replay_sim_us_p50", "us"},
    {"refactor.reuse_ratio", "ratio"},
    {"refactor.fallbacks", "count"},
    {"service.job_wall_ms_p50", "ms"},
    {"service.job_wall_ms_p99", "ms"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p99", "ms"},
    {"service.build_ms_p50", "ms"},
    {"service.cache.hit_ratio", "ratio"},
    {"service.cache.evictions", "count"},
    {"service.build_retries", "count"},
    {"sharding.devices_used", "count"},
    {"sharding.balance", "ratio"},
    {"sharding.cross_edges", "count"},
    {"sharding.peer_mb", "MiB"},
    {"sharding.numeric_elapsed_ms", "ms"},
    {"sharding.predicted_speedup", "x"},
    {"sharding.measured_speedup", "x"},
    {"gpusim.launches", "count"},
    {"gpusim.launch_ms", "ms"},
    {"gpusim.transfer_ms", "ms"},
    {"gpusim.h2d_mb", "MiB"},
    {"gpusim.d2h_mb", "MiB"},
    {"gpusim.page_faults", "count"},
    {"trace.overhead_pct", "%"},
    {"share.numeric_wall_pct", "%"},
    {"share.preprocess_sim_pct", "%"},
    {"share.symbolic_sim_pct", "%"},
    {"share.numeric_sim_pct", "%"},
    {"share.warm_replay_pct", "%"},
};

MetricSet in_manifest_order(const MetricSet& measured,
                            const std::vector<MetricSpec>& specs,
                            bool absent_is_zero) {
  for (const Metric& m : measured.all()) {
    const auto spec = std::find_if(specs.begin(), specs.end(),
                                   [&](const MetricSpec& s) {
                                     return m.name == s.name;
                                   });
    if (spec == specs.end()) {
      throw std::invalid_argument("metric '" + m.name +
                                  "' is not in the manifest");
    }
    if (m.unit != spec->unit) {
      throw std::invalid_argument("metric '" + m.name + "' has unit '" +
                                  m.unit + "', the manifest '" + spec->unit +
                                  "'");
    }
  }
  MetricSet out;
  for (const MetricSpec& s : specs) {
    const std::optional<double> v = measured.get(s.name);
    if (!v.has_value() && !absent_is_zero) {
      throw std::invalid_argument(std::string("metric '") + s.name +
                                  "' was not measured");
    }
    out.add(s.name, v.value_or(0.0), s.unit);
  }
  return out;
}

std::string result_json(const Outcome& outcome) {
  std::ostringstream os;
  os << "{\"correct\": " << (outcome.correct() ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted
     << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : outcome.metrics.all()) {
    // Every digit the double carries; non-finite values are not JSON.
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

}  // namespace perfbench
