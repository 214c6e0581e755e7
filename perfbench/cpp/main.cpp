// perfbench: the repository benchmark binary. run.py builds and drives it;
// it can also be run directly:
//
//   perfbench --workload fullbatch-products --seed 1 --seconds 15 --trace 0
//             [--tiny 1] [--out DIR]
//
// The last line of standard output is one JSON object with the metrics,
// timing summaries, run manifest and output checks. Exit code 0 means every
// operation and check succeeded.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why << "\nusage: perfbench --workload NAME "
            << "--seed N --seconds S --trace 0|1 [--tiny 0|1] [--out DIR]\n"
            << "workloads:";
  for (const char* const* name = perfbench::workload_names(); *name; ++name) {
    std::cerr << ' ' << *name;
  }
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--tiny") {
        options.tiny = std::stoi(value) != 0;
      } else if (flag == "--out") {
        options.out_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag + ": " + value).c_str());
    }
  }
  if (options.workload.empty()) return usage("--workload is required");

  perfbench::Report report;
  bool ran = true;
  try {
    perfbench::run_workload(options, report);
  } catch (const std::exception& e) {
    // A throwing operation is a failed operation; the result still prints.
    report.operations(1, 1);
    report.check("run-completed", false, e.what());
    ran = false;
  }
  std::cout << report.to_json() << std::endl;
  return ran && report.all_checks_passed() ? 0 : 1;
}
