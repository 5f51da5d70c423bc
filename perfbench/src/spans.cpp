#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// The calling thread's open spans, innermost last.
thread_local std::vector<std::int64_t> open_spans;

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int64_t SpanRecorder::begin(const std::string& name, std::uint64_t job) {
  if (!enabled_) return -1;
  const std::int64_t parent = open_spans.empty() ? -1 : open_spans.back();
  const double start = now_us();
  std::int64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, job, parent, start, start, {}});
  }
  open_spans.push_back(id);
  return id;
}

void SpanRecorder::end(std::int64_t id,
                       std::vector<std::pair<std::string, double>> attrs) {
  if (id < 0) return;
  if (open_spans.empty() || open_spans.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  open_spans.pop_back();
  const double end = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_us = end;
  s.attrs = std::move(attrs);
}

std::int64_t SpanRecorder::add(
    const std::string& name, std::uint64_t job, std::int64_t parent,
    double start_us, double end_us,
    std::vector<std::pair<std::string, double>> attrs) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, job, parent, start_us, end_us, std::move(attrs)});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> SpanRecorder::self_time_us_by_name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children's intervals per parent, merged so overlapping children are
  // not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo0, hi0] : iv) {
      const double lo = std::max(lo0, s.start_us);
      const double hi = std::min(hi0, s.end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.name] += (s.end_us - s.start_us) - covered;
  }
  return self;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"job\": " << s.job << ", \"parent\": " << s.parent
        << ", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
        << ", \"attrs\": {";
    for (std::size_t k = 0; k < s.attrs.size(); ++k) {
      out << (k ? ", " : "") << "\"" << s.attrs[k].first
          << "\": " << s.attrs[k].second;
    }
    out << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
