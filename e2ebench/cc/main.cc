// ttra end-to-end benchmark: command-line entry point.
//
//   e2ebench --workload <ingest|timetravel|mixed>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--trace-file <path>]
//
// Prints a human-readable report on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a separate traced run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "engine.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--trace-file <path>]\n";
  return 2;
}

std::string JsonNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "e2ebench: built without NDEBUG; numbers from a build with "
               "live assertions are not recorded. Build with "
               "-DCMAKE_BUILD_TYPE=Release.\n";
  return 3;
#endif
  e2ebench::RunConfig config;
  config.work_dir = ".bench_build/e2ebench-work";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-file") {
      config.trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  std::cerr << "e2ebench: workload " << config.workload << ", seed "
            << config.seed << ", " << config.seconds << " s, trace "
            << config.trace << "\nengine: " << e2ebench::EngineDescription()
            << "\n";
  const e2ebench::RunResult result = e2ebench::RunWorkload(config);
  if (!result.error.empty()) {
    std::cerr << "e2ebench: run invalid: " << result.error << "\n";
    return 1;
  }
  std::string metrics;
  for (const e2ebench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "e2ebench: " << m.name << " is not a finite number\n";
      return 1;
    }
    std::fprintf(stderr, "  %-40s %16.4f %-6s (n=%llu)\n", m.name.c_str(),
                 m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples));
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
