// Benchmark-side span recorder for the traced run.
//
// Spans are recorded only around the benchmark's own calls into the
// library's layers: name, start, end, parent and a job id shared by every
// span of one job, plus numeric attributes (the layer's counters for that
// call). They stay in memory and are written out as JSON when the run
// ends. A disabled recorder (the untraced run) records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::uint64_t job = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for a root
    double start_us = 0;
    double end_us = 0;
    std::vector<std::pair<std::string, double>> attrs;
  };

  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  /// Microseconds since the recorder was created (steady clock).
  double now_us() const;

  /// Opens a span on the calling thread; its parent is the thread's
  /// innermost open span. Returns -1 when disabled.
  std::int64_t begin(const std::string& name, std::uint64_t job);
  /// Closes the calling thread's innermost span (which must be `id`).
  void end(std::int64_t id,
           std::vector<std::pair<std::string, double>> attrs = {});
  /// Records an already-finished span whose times were measured elsewhere
  /// (a service JobReport's phase breakdown).
  std::int64_t add(const std::string& name, std::uint64_t job,
                   std::int64_t parent, double start_us, double end_us,
                   std::vector<std::pair<std::string, double>> attrs = {});

  /// Self time per span name: each span's duration minus the part of it
  /// its children cover, summed over spans of that name.
  std::map<std::string, double> self_time_us_by_name() const;

  /// Writes every span as a JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// RAII span: begin() on construction, end() with the attributes set
/// through attr() on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, std::uint64_t job)
      : rec_(rec), id_(rec.begin(name, job)) {}
  ~ScopedSpan() { rec_.end(id_, std::move(attrs_)); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }
  void attr(const std::string& key, double value) {
    if (id_ >= 0) attrs_.emplace_back(key, value);
  }

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
  std::vector<std::pair<std::string, double>> attrs_;
};

}  // namespace perfbench
