// Determinism guard: shortened static-query and update-mix runs, twice
// each, must agree bit for bit on write_amp, space_amp, the answer digest
// and every counter-type per-layer metric, with no failed op and every
// answer equal to the reference model's.

#include <cstdio>
#include <cstring>
#include <string>

#include "common.h"

namespace {

int failures = 0;

void Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL %s\n", what.c_str());
  failures++;
}

perfbench::Report Run(const std::string& workload, bool trace) {
  perfbench::RunSpec spec;
  spec.workload = workload;
  spec.seed = 7;
  spec.seconds = 2;
  spec.trace = trace;
  spec.scale = 0.15;
  spec.data_dir = "determinism_data";
  perfbench::RemoveTree(spec.data_dir);
  perfbench::MakeDirs(spec.data_dir);
  perfbench::Report r = perfbench::RunWorkload(spec);
  perfbench::RemoveTree(spec.data_dir);
  if (!r.correct || r.mismatches != 0) Fail(workload + ": wrong answers");
  if (r.failed != 0) Fail(workload + ": failed ops");
  if (r.attempted == 0) Fail(workload + ": nothing attempted");
  return r;
}

void SameBits(const std::string& workload, const perfbench::Metric& a,
              const perfbench::Report& other) {
  const perfbench::Metric* b = other.Find(a.name);
  if (b == nullptr) {
    Fail(workload + ": " + a.name + " missing in the second run");
  } else if (std::memcmp(&a.value, &b->value, sizeof(double)) != 0) {
    Fail(workload + ": " + a.name + " differs: " + std::to_string(a.value) +
         " vs " + std::to_string(b->value));
  }
}

}  // namespace

int main() {
  for (const char* workload : {"static-query", "update-mix"}) {
    const perfbench::Report e1 = Run(workload, false);
    const perfbench::Report e2 = Run(workload, false);
    for (const char* name : {"write_amp", "space_amp"}) {
      const perfbench::Metric* m = e1.Find(name);
      if (m == nullptr) {
        Fail(std::string(workload) + ": no " + name);
      } else {
        SameBits(workload, *m, e2);
      }
    }
    if (e1.digest != e2.digest) Fail(std::string(workload) + ": digest");

    const perfbench::Report t1 = Run(workload, true);
    const perfbench::Report t2 = Run(workload, true);
    int counters = 0;
    for (const perfbench::Metric& m : t1.metrics) {
      if (!m.counter) continue;
      counters++;
      SameBits(workload, m, t2);
    }
    if (counters < 10) Fail(std::string(workload) + ": too few counters");
    if (t1.digest != e1.digest) {
      Fail(std::string(workload) + ": traced digest differs from untraced");
    }
    std::printf("%s: %d counter metrics repeat, digest %016llx\n", workload,
                counters, static_cast<unsigned long long>(e1.digest));
  }
  if (failures == 0) std::printf("determinism_test: ok\n");
  return failures == 0 ? 0 : 1;
}
