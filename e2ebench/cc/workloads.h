// The three workloads and the lifecycle they share: set up (generate inputs
// and build the starting database), run the load, stop, recover, verify.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for databases (inside the checkout).
  std::string work_dir;
  /// Where the traced run writes its spans; empty = do not write.
  std::string trace_file;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind the value (for the human-readable report).
  uint64_t samples = 0;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why the run is invalid (insufficient samples, set-up failure); an
  /// invalid run prints no result.
  std::string error;
};

/// Runs one workload (`ingest`, `timetravel` or `mixed`) and returns its end-to-end metrics, or with `config.trace` its
/// per-layer ones.
RunResult RunWorkload(const RunConfig& config);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
