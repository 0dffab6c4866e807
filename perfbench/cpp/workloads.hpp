// The benchmark's three workloads: paper_turntable, shelf_replay and
// fleet_conveyor.  See ../METRICS.md for what each one measures and why.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  /// Host seconds of timed cycles to accumulate before stopping.
  double seconds = 10.0;
  /// Trace run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where a trace run writes its Chrome trace-event JSON.
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::string failure;          ///< First failed correctness check.
  std::uint64_t attempted = 0;  ///< Timed host cycles run.
  std::uint64_t failed = 0;     ///< Timed host cycles that did not complete.
  std::vector<Metric> metrics;
};

const std::vector<std::string>& workload_names();

/// Builds the workload's scene from options.seed, runs it, checks its
/// outputs and returns its metrics.  Throws std::invalid_argument for an
/// unknown workload.
Result run_workload(const Options& options);

}  // namespace perfbench
