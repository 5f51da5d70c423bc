// bench_diff: the perf-regression guard.
//
//   bench_diff <baseline.json> <current.json> [max_regression]
//
// Compares a bench run's JSON artifact (BENCH_numeric.json,
// BENCH_service.json) against the committed baseline snapshot in
// bench/baseline/ and exits nonzero when any tracked metric regressed by
// more than max_regression (default 0.15 = 15%). CI runs it after each
// bench, so a change that silently costs simulated time or warm-path
// speedup fails the build instead of landing.
//
// The two files are walked in parallel (objects by key, arrays by
// index). Numeric leaves are classified by name:
//   - contains "speedup"                    -> higher is better
//   - contains "sim" or ends in _us / _ms   -> lower is better
//   - anything else (n, nnz, levels, ...)   -> informational only
// A key present in the baseline but missing from the current run fails
// the diff — schema drift must be deliberate (regenerate the baseline),
// never silent. Extra keys in the current run are fine: new metrics
// don't need a baseline yet. An empty array in the baseline also fails:
// it guards nothing, so a bench that stopped emitting rows would pass
// vacuously.
//
// Simulated time makes this gate reproducible: the "measurements" are
// deterministic functions of the cost model, so the only noise source is
// the workload itself, and the 15% band is slack for intentional model
// retuning, not for run-to-run jitter.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace {

using e2elu::json::Value;

enum class Direction { LowerBetter, HigherBetter, Info };

Direction classify(const std::string& name) {
  if (name.find("speedup") != std::string::npos) return Direction::HigherBetter;
  if (name.find("sim") != std::string::npos) return Direction::LowerBetter;
  const auto ends_with = [&](const char* suffix) {
    const std::size_t len = std::strlen(suffix);
    return name.size() >= len &&
           name.compare(name.size() - len, len, suffix) == 0;
  };
  if (ends_with("_us") || ends_with("_ms")) return Direction::LowerBetter;
  return Direction::Info;
}

struct Diff {
  int checked = 0;
  int regressions = 0;
  int missing = 0;
  int empty = 0;
};

/// Relative change in the "worse" direction: positive = regression.
double regression_of(Direction dir, double base, double cur) {
  if (base == 0) return cur == 0 ? 0.0 : (dir == Direction::Info ? 0.0 : 1.0);
  const double rel = (cur - base) / std::fabs(base);
  return dir == Direction::HigherBetter ? -rel : rel;
}

void walk(const Value& base, const Value& cur, const std::string& path,
          const std::string& leaf_name, double max_regression, Diff& diff) {
  if (base.kind() == Value::Kind::Object) {
    if (cur.kind() != Value::Kind::Object) {
      std::printf("MISSING  %s: baseline object absent from current run\n",
                  path.c_str());
      ++diff.missing;
      return;
    }
    for (const auto& [key, child] : base.as_object()) {
      const Value* match = cur.find(key);
      if (match == nullptr) {
        std::printf("MISSING  %s.%s\n", path.c_str(), key.c_str());
        ++diff.missing;
        continue;
      }
      walk(child, *match, path.empty() ? key : path + "." + key, key,
           max_regression, diff);
    }
    return;
  }
  if (base.kind() == Value::Kind::Array) {
    if (base.as_array().empty()) {
      std::printf("EMPTY    %s: baseline array has no rows to guard\n",
                  path.c_str());
      ++diff.empty;
      return;
    }
    if (cur.kind() != Value::Kind::Array ||
        cur.as_array().size() < base.as_array().size()) {
      std::printf("MISSING  %s: current array shorter than baseline\n",
                  path.c_str());
      ++diff.missing;
      return;
    }
    for (std::size_t k = 0; k < base.as_array().size(); ++k) {
      walk(base.as_array()[k], cur.as_array()[k],
           path + "[" + std::to_string(k) + "]", leaf_name, max_regression,
           diff);
    }
    return;
  }
  if (base.kind() != Value::Kind::Number ||
      cur.kind() != Value::Kind::Number) {
    return;  // strings/bools (matrix names, bit_identical) are not gated
  }
  const Direction dir = classify(leaf_name);
  if (dir == Direction::Info) return;
  ++diff.checked;
  const double b = base.as_number();
  const double c = cur.as_number();
  const double reg = regression_of(dir, b, c);
  const char* tag = reg > max_regression ? "REGRESS " : "ok      ";
  if (reg > max_regression) ++diff.regressions;
  std::printf("%s %-60s %14.3f -> %14.3f  (%+.1f%%, %s-better)\n", tag,
              path.c_str(), b, c, 100.0 * (c - b) / (b == 0 ? 1.0 : b),
              dir == Direction::HigherBetter ? "higher" : "lower");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <current.json> "
                 "[max_regression=0.15]\n");
    return 2;
  }
  const double max_regression = argc == 4 ? std::atof(argv[3]) : 0.15;

  Value base, cur;
  try {
    base = e2elu::json::parse_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: cannot read baseline %s: %s\n", argv[1],
                 e.what());
    return 2;
  }
  try {
    cur = e2elu::json::parse_file(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: cannot read current %s: %s\n", argv[2],
                 e.what());
    return 2;
  }

  std::printf("bench_diff: %s vs %s (max regression %.0f%%)\n", argv[1],
              argv[2], 100.0 * max_regression);
  Diff diff;
  walk(base, cur, "", "", max_regression, diff);
  std::printf(
      "bench_diff: %d metrics checked, %d regressed, %d missing from "
      "current run, %d empty baseline arrays\n",
      diff.checked, diff.regressions, diff.missing, diff.empty);
  if (diff.regressions > 0 || diff.missing > 0 || diff.empty > 0) {
    std::printf(
        "bench_diff: FAIL — investigate, or regenerate bench/baseline/ if "
        "the change is intentional\n");
    return 1;
  }
  std::printf("bench_diff: PASS\n");
  return 0;
}
