// perfbench: runs one benchmark workload and prints one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}},
//    "meta": {...}}
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --scripts DIR --work-dir DIR --trace-out FILE
// perfbench/run.py builds this binary and is the benchmark's entry point.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

void PrintNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void PrintResult(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
              r.tally.Failed() == 0 ? "true" : "false",
              static_cast<long long>(r.tally.attempted),
              static_cast<long long>(r.tally.Failed()));
  std::printf("\"metrics\": {");
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": ", sep, name.c_str());
    PrintNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    sep = ", ";
  }
  std::printf("}, \"meta\": {");
  sep = "";
  for (const auto& [key, json] : r.meta) {
    std::printf("%s\"%s\": %s", sep, key.c_str(), json.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scripts") {
      args.scripts_dir = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--trace-out") {
      args.trace_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.scripts_dir.empty() ||
      args.work_dir.empty() || args.seconds <= 0 ||
      (args.trace && args.trace_path.empty())) {
    std::fprintf(stderr, "perfbench: missing or invalid arguments\n");
    return 2;
  }
  perfbench::Result result;
  sysds::Status s = perfbench::RunWorkload(args, &result);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  PrintResult(result);
  return 0;
}
