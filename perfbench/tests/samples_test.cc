// Samples against a sorted-vector reference: nearest-rank percentiles,
// ties, small n, and merging.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "samples.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, size_t n, double q) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s (n=%zu, q=%g)\n", what, n, q);
    failures++;
  }
}

// Reference: the smallest 1-based rank r with r / n >= q / 100, found by
// scanning, read off a sorted copy.
int64_t Reference(std::vector<int64_t> v, double q, size_t* rank) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t r = 1;
  while (r < n && static_cast<double>(r) / n < q / 100.0 - 1e-12) r++;
  *rank = r;
  return v[r - 1];
}

void CheckAll(const std::vector<int64_t>& values) {
  perfbench::Samples s;
  for (int64_t x : values) s.Add(x);
  for (double q : {0.1, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    size_t rank = 0;
    const int64_t want = Reference(values, q, &rank);
    Check(s.Percentile(q) == want, "percentile", values.size(), q);
    Check(s.Beyond(q) == values.size() - rank, "beyond", values.size(), q);
    // Samples strictly above the percentile never exceed Beyond (ties at
    // the percentile's value count below it).
    size_t above = 0;
    for (int64_t x : values) above += x > want ? 1 : 0;
    Check(above <= s.Beyond(q), "above <= beyond", values.size(), q);
  }
}

}  // namespace

int main() {
  // Small n, including the exact boundaries of p50 and p99.
  CheckAll({7});
  CheckAll({3, 1});
  CheckAll({2, 9, 4});
  CheckAll({5, 5, 5, 5, 5});
  {
    std::vector<int64_t> hundred;
    for (int i = 100; i >= 1; i--) hundred.push_back(i);
    CheckAll(hundred);
    perfbench::Samples s;
    for (int64_t x : hundred) s.Add(x);
    Check(s.Percentile(99) == 99, "p99 of 1..100 is 99", 100, 99);
    Check(s.Percentile(50) == 50, "p50 of 1..100 is 50", 100, 50);
    Check(s.Beyond(99) == 1, "one sample beyond p99 of 100", 100, 99);
  }
  // Heavy ties and random sizes.
  std::srand(12345);
  for (int round = 0; round < 200; round++) {
    const size_t n = 1 + std::rand() % 3000;
    std::vector<int64_t> v;
    for (size_t i = 0; i < n; i++) v.push_back(std::rand() % (1 + round % 7));
    CheckAll(v);
  }
  // Merge equals adding everything to one recorder; adding after a read
  // re-sorts.
  {
    perfbench::Samples a, b, all;
    for (int i = 0; i < 500; i++) {
      const int64_t x = (i * 7919) % 1000;
      (i % 3 == 0 ? a : b).Add(x);
      all.Add(x);
    }
    (void)a.Percentile(50);
    a.Merge(b);
    for (double q : {50.0, 99.0}) {
      Check(a.Percentile(q) == all.Percentile(q), "merge", 500, q);
    }
    a.Add(-1);
    Check(a.Percentile(0.1) == -1, "add after read", 501, 0.1);
  }
  perfbench::Samples empty;
  Check(empty.Percentile(50) == 0 && empty.Beyond(50) == 0, "empty", 0, 50);
  if (failures == 0) std::printf("samples_test: ok\n");
  return failures == 0 ? 0 : 1;
}
