// perfbench — one workload of the outside-in benchmark, from a seed.
//
//   perfbench --workload ingest_large --seed 1 --seconds 20 --trace 0
//             --leptond <path to leptond> [--work-dir .perfbench]
//
// Prints a human-readable report, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any output was wrong (after printing the result), 2 when the run
// could not be made (without printing one).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string number(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_json(const perfbench::Report& rep) {
  std::string s = "{\"correct\": ";
  s += rep.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(rep.attempted);
  s += ", \"failed\": " + std::to_string(rep.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <ingest_large|serve_large|"
               "small_zipf> --seed N --seconds S --trace 0|1 --leptond PATH "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--leptond") {
      args.leptond = v;
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!perfbench::known_workload(args.workload)) return usage("unknown workload");
  if (args.seconds < 1) return usage("--seconds must be at least 1");
  if (args.leptond.empty()) return usage("--leptond is required");

  perfbench::Report rep;
  std::string err;
  if (!perfbench::run_workload(args, &rep, &err)) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  print_json(rep);
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}
