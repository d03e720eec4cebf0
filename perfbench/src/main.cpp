// deepcam_perfbench: runs one benchmark workload against the DeepCAM
// library's public API and prints its raw measurements as one JSON
// document on stdout (perfbench/run.py builds, runs and reduces it).
//
//   deepcam_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments, 3 when the workload threw.
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

const std::map<std::string, void (*)(const Args&, Report&)>& workloads() {
  static const std::map<std::string, void (*)(const Args&, Report&)> w = {
      {"offline-vgg11-k1024", perfbench::run_offline_vgg11},
      {"offline-wide-k256", perfbench::run_offline_wide},
      {"serve-lenet5-slo", perfbench::run_serve},
      {"paper-vgg11", perfbench::run_paper},
  };
  return w;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "deepcam_perfbench: %s\nusage: deepcam_perfbench --workload "
               "<name> [--seed N] [--seconds S] [--trace 0|1]\nworkloads:",
               why);
  for (const auto& [name, fn] : workloads())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0) return usage("every flag takes a value");
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  const auto it = workloads().find(args.workload);
  if (it == workloads().end()) return usage("unknown or missing --workload");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  Report report;
  try {
    it->second(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepcam_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 3;
  }
  std::cout << report.json(args) << '\n';
  return report.all_checks_ok() ? 0 : 1;
}
