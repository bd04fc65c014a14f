#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scripts_dir;  // the benchmark's DML scripts
  std::string work_dir;     // scratch directory for generated files
  std::string trace_path;   // spans of a traced run are written here
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports: the operation tally, the metrics of the
/// requested kind (end-to-end or per-layer), and run metadata kept as
/// ready-to-print JSON values.
struct Result {
  FailureTally tally;
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, std::string>> meta;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Meta(const std::string& key, double value);
  void Meta(const std::string& key, const std::string& value);
};

/// Sets up and measures one workload. Fails only when set-up fails; failed
/// or wrong operations are counted in result->tally instead.
sysds::Status RunWorkload(const Args& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
