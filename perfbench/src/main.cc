// perfbench: runs one benchmark workload and prints its result as the last
// line of standard output.
//
//   perfbench --workload <static-query|update-mix|served> --seed <n>
//             --seconds <s> --trace <0|1> --data-dir <dir>
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same op list
// with per-layer instrumentation and reports the per-layer metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::RunSpec spec;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      spec.workload = value;
    } else if (flag == "--seed") {
      spec.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      spec.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      spec.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      spec.data_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (spec.workload != "static-query" && spec.workload != "update-mix" &&
      spec.workload != "served") {
    std::fprintf(stderr, "unknown workload '%s'\n", spec.workload.c_str());
    return 2;
  }
  if (spec.data_dir.empty() || spec.seconds < 1) {
    std::fprintf(stderr, "need --data-dir and --seconds >= 1\n");
    return 2;
  }
  perfbench::RemoveTree(spec.data_dir);
  perfbench::MakeDirs(spec.data_dir);
  perfbench::Report report = perfbench::RunWorkload(spec);
  perfbench::RemoveTree(spec.data_dir);
  std::fprintf(stderr, "digest %016llx, %llu mismatches\n",
               static_cast<unsigned long long>(report.digest),
               static_cast<unsigned long long>(report.mismatches));
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
