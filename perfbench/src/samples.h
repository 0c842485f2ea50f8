// Exact latency percentiles for the benchmark.
//
// Every timed call is stored as one steady_clock sample in nanoseconds and
// percentiles are order statistics over the full sample (nearest rank), so
// a reported p99 is a latency some call actually took. The engine's
// util/histogram is not used here: its buckets are 20-25% wide and it
// interpolates inside them, which hides changes smaller than a bucket.

#ifndef PERFBENCH_SAMPLES_H_
#define PERFBENCH_SAMPLES_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Samples {
 public:
  void Add(int64_t ns) {
    v_.push_back(ns);
    sorted_ = false;
  }
  void Merge(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
    sorted_ = false;
  }
  void Reserve(size_t n) { v_.reserve(n); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  /// 1-based nearest rank of percentile q (0 < q <= 100): the smallest r
  /// with r >= q/100 * n. Computed in integer arithmetic on q * 1000 so
  /// that e.g. q = 99 and n = 100 give rank 99, not 100 from rounding.
  static size_t Rank(double q, size_t n) {
    const uint64_t milli = static_cast<uint64_t>(std::llround(q * 1000.0));
    const uint64_t num = milli * n;
    size_t r = static_cast<size_t>((num + 100000 - 1) / 100000);
    return std::clamp<size_t>(r, 1, n);
  }

  /// Samples strictly above the rank of q: how many observations a
  /// percentile rests on from above.
  size_t Beyond(double q) const {
    return v_.empty() ? 0 : v_.size() - Rank(q, v_.size());
  }

  /// The q-th percentile in nanoseconds (0 when empty).
  int64_t Percentile(double q) {
    if (v_.empty()) return 0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    return v_[Rank(q, v_.size()) - 1];
  }

  double PercentileUs(double q) { return Percentile(q) / 1000.0; }

 private:
  std::vector<int64_t> v_;
  bool sorted_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_SAMPLES_H_
