// Result reporting for the perfbench binary: named metrics with units,
// the percentile sample rule, and the one-line JSON result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// True iff `name` is non-empty and made only of [A-Za-z0-9_.-].
bool valid_metric_name(const std::string& name);

/// Nearest-rank percentile (q in (0, 1)) of `samples`, or nullopt unless
/// at least 10 samples lie beyond it: a percentile is reported only when
/// the tail above it is itself measured, so p50 needs >= 20 samples and
/// p99 needs >= 1000.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Median of a non-empty sample (mean of the middle two when even).
double median(std::vector<double> samples);

/// The metrics of one run, in insertion order. add() rejects invalid or
/// repeated names (a benchmark bug, so it throws).
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Adds the percentile when the sample rule allows it; returns whether
  /// it did.
  bool add_percentile(const std::string& name, const std::vector<double>& samples,
                      double q, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }
  std::optional<double> get(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Outcome of one workload run: jobs attempted / failed (a throw or a
/// failed correctness check), extra agreement checks that failed, the
/// metrics, and human-readable report lines printed before the result.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  MetricSet metrics;
  std::vector<std::string> report_lines;

  bool correct() const { return failed == 0 && check_failures.empty(); }
};

/// A metric the benchmark's manifest (BENCHMARK.json) lists.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload prints with --trace 0, and the
/// per-layer metrics every workload prints with --trace 1, in manifest
/// order. `perfbench --manifest` prints both; the benchmark's test holds
/// them against BENCHMARK.json.
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// `measured` in the order of `specs`. A metric of `specs` the run did not
/// measure is an error, unless `absent_is_zero`: then it reads 0 (a layer
/// that does not run in the workload, or a percentile without the samples
/// its rule asks for). A measured metric outside `specs`, or with another
/// unit, is an error too. Errors are benchmark bugs, so they throw.
MetricSet in_manifest_order(const MetricSet& measured,
                            const std::vector<MetricSpec>& specs,
                            bool absent_is_zero);

/// The final result line:
///   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
std::string result_json(const Outcome& outcome);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

}  // namespace perfbench
