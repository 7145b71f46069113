// The three workloads and the run that measures one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  std::string leptond;              // path of the leptond binary
  std::string work_dir = ".perfbench";  // inputs cache, stores, span files
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

bool known_workload(const std::string& name);

// Runs one workload end to end, printing the human-readable report to
// stdout as it goes. False with *err set when the run could not be made
// (a setup failure, not an incorrect output — those land in the Report).
bool run_workload(const Args& args, Report* report, std::string* err);

}  // namespace perfbench
